// gcbench: the benchmark binary.
//
//   gcbench --workload sweep-grid|gcached-hot|gcached-fill --seed N
//           --seconds S --trace 0|1 --golden SEED:DIGEST
//           [--commit SHA --dirty 0|1 --src-digest HEX --out-dir DIR]
//           [--corrupt]
//
// Prints a provenance line, one line per metric (name, value, unit), and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs the
// same workload with spans around its calls into the layers, then the layer
// suite, writes the spans to DIR and reports the per-layer metrics. Exits 1
// when any output check failed, 2 on bad arguments, 3 from a checking build.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "gcbench.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"

namespace {

using namespace gcbench;

/// The end-to-end metrics; every other metric a run produces is per-layer.
const std::set<std::string> kEndToEnd = {
    "setup_s", "wall_s",  "ops_per_s", "p50_us",
    "p99_us",  "miss_ratio", "amat_us", "peak_rss_mb"};

int usage(const std::string& why) {
  std::cerr << "gcbench: " << why
            << "\nusage: gcbench --workload sweep-grid|gcached-hot|"
               "gcached-fill --seed N --seconds S --trace 0|1 "
               "--golden SEED:DIGEST [--commit SHA --dirty 0|1 "
               "--src-digest HEX --out-dir DIR] [--corrupt]\n";
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown", dirty = "unknown", src_digest = "unknown";
  std::string out_dir = ".bench_build";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt") {
      opt.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = !v.empty() && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      have_seconds = !v.empty() && *end == '\0' && opt.seconds > 0.0 &&
                     opt.seconds <= 120.0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      opt.trace = v == "1";
    } else if (a == "--golden") {
      const auto colon = v.find(':');
      if (colon == std::string::npos) return usage("--golden needs SEED:DIGEST");
      opt.golden_seed = std::strtoull(v.substr(0, colon).c_str(), nullptr, 10);
      opt.golden_digest = v.substr(colon + 1);
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--dirty") {
      dirty = v;
    } else if (a == "--src-digest") {
      src_digest = v;
    } else if (a == "--out-dir") {
      out_dir = v;
    } else {
      return usage("unknown argument " + a);
    }
  }
  if (opt.workload != "sweep-grid" && opt.workload != "gcached-hot" &&
      opt.workload != "gcached-fill")
    return usage("unknown --workload '" + opt.workload + "'");
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds (0 < S <= 120) and --trace are required");

  // In a checking build the hot-tier contracts run on every access and the
  // stack sweep path re-runs the lane engine as a cross-check: its timings
  // describe the checks, not the system.
  if (gcaching::kHotChecksEnabled) {
    std::cerr << "gcbench: refusing to report from a checking build "
                 "(configure with GC_FAST_SIM=ON)\n";
    return 3;
  }

  char host[256] = {};
  gethostname(host, sizeof host - 1);
  std::cout << std::boolalpha << "provenance: {\"commit\": " << json_string(commit)
            << ", \"dirty\": " << json_string(dirty)
            << ", \"src_digest\": " << json_string(src_digest)
            << ", \"host\": " << json_string(host)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"GC_FAST_SIM\": " << !gcaching::kHotChecksEnabled
            << ", \"GCACHING_OBS\": " << gcaching::obs::kObsEnabled
            << ", \"build_type\": " << json_string(GCBENCH_BUILD_TYPE)
            << ", \"workload\": " << json_string(opt.workload)
            << ", \"seed\": " << opt.seed
            << ", \"seconds\": " << json_number(opt.seconds)
            << ", \"trace\": " << opt.trace << "}\n";

  Checks checks;
  Tracer tracer;
  Metrics metrics;
  try {
    metrics = run_workload(opt, checks, opt.trace ? &tracer : nullptr);
    if (opt.trace) metrics.merge(run_layers(opt, checks, tracer));
  } catch (const std::exception& e) {
    checks.check(false, 1, std::string("exception: ") + e.what());
  }
  put(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  if (opt.trace) {
    const std::string path = out_dir + "/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    checks.check(tracer.write_jsonl(path), 1, "could not write " + path);
    std::cout << "spans: " << tracer.records().size() << " written to " << path
              << "\n";
  }

  std::string json;
  for (const auto& [name, m] : metrics) {
    checks.check(std::isfinite(m.value), 1, name + " is not finite");
    std::cout << "  " << name << " " << json_number(m.value) << " " << m.unit
              << (kEndToEnd.count(name) != 0 ? "" : "  (per-layer)") << "\n";
    if ((kEndToEnd.count(name) != 0) == opt.trace || !std::isfinite(m.value))
      continue;
    json += (json.empty() ? "" : ", ") + json_string(name) +
            ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::cout << "  error_share "
            << json_number(checks.attempted == 0
                               ? 1.0
                               : static_cast<double>(checks.failed) /
                                     static_cast<double>(checks.attempted))
            << " ratio (" << checks.failed << " of " << checks.attempted
            << " checked cells/ops failed)\n";
  const bool correct = checks.failed == 0 && checks.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed << ", \"metrics\": {" << json
            << "}}" << std::endl;
  return correct ? 0 : 1;
}
