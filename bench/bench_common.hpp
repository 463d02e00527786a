// Shared scaffolding for the reproduction benches.
//
// Every bench binary:
//   * prints its table/figure as aligned text (the paper's rows/series);
//   * accepts `--csv <dir>` to additionally emit machine-readable CSVs;
//   * accepts `--quick` to shrink empirical sections for smoke runs.
#pragma once

#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace gcaching::bench {

struct BenchOptions {
  std::optional<std::string> csv_dir;
  bool quick = false;
};

inline BenchOptions parse_args(int argc, char** argv) {
  BenchOptions opts;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--csv" && a + 1 < argc) {
      opts.csv_dir = argv[++a];
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0] << " [--csv DIR] [--quick]\n";
      std::exit(0);
    }
  }
  return opts;
}

/// Emits a finished table to stdout and, when requested, to CSV.
class TableSink {
 public:
  TableSink(const BenchOptions& opts, const std::string& title,
            const std::string& csv_name, std::vector<std::string> headers)
      : title_(title), table_(headers) {
    if (opts.csv_dir)
      csv_.emplace(*opts.csv_dir + "/" + csv_name + ".csv", headers);
  }

  void add_row(const std::vector<std::string>& cells) {
    table_.add_row(cells);
    if (csv_) csv_->add_row(cells);
  }

  void add_separator() { table_.add_separator(); }

  void flush() {
    std::cout << "== " << title_ << " ==\n" << table_ << "\n";
  }

 private:
  std::string title_;
  TextTable table_;
  std::optional<CsvWriter> csv_;
};

inline std::string fmt(double v, int precision = 3) {
  return TextTable::fmt(v, precision);
}
inline std::string fmtr(double v) { return TextTable::fmt_ratio(v); }
inline std::string fmti(std::uint64_t v) { return TextTable::fmt_int(v); }

// ---- Result provenance ------------------------------------------------------
// Committed bench JSONs are only comparable against baselines from the same
// commit and machine; PR 6's item-lfu baseline went stale silently because
// nothing recorded where its numbers came from. Every JSON writer stamps
// these two fields, and `--compare` warns loudly on a missing or mismatched
// stamp (see warn_if_stale_baseline).

/// First output line of `cmd`, trimmed; "unknown" when the command fails or
/// prints nothing.
inline std::string first_line_of_command(const char* cmd) {
  FILE* pipe = ::popen(cmd, "r");
  if (pipe == nullptr) return "unknown";
  char buf[256] = {0};
  const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  ::pclose(pipe);
  if (!got) return "unknown";
  std::string line(buf);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line.empty() ? "unknown" : line;
}

/// Short git commit of the working tree the bench binary runs in, with a
/// `-dirty` suffix when the tree has uncommitted changes (numbers from a
/// dirty tree do not belong to the commit they would otherwise name).
inline std::string current_git_commit() {
  const std::string commit =
      first_line_of_command("git rev-parse --short HEAD 2>/dev/null");
  if (commit == "unknown") return commit;
  const bool dirty =
      first_line_of_command("git status --porcelain 2>/dev/null") != "unknown";
  return dirty ? commit + "-dirty" : commit;
}

/// Host identity for cross-machine staleness detection.
inline std::string machine_name() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) != 0 || buf[0] == '\0')
    return "unknown";
  return buf;
}

/// Pulls `"key": "value"` out of one serialized result line. The benches'
/// JSON writers emit one cell per line, so `--compare` readers can scan
/// line-oriented instead of carrying a JSON parser.
inline std::optional<std::string> json_line_string(const std::string& line,
                                                   const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(begin, end - begin);
}

/// Pulls `"key": number` out of one serialized result line.
inline std::optional<double> json_line_number(const std::string& line,
                                              const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::stod(line.substr(at + needle.size()));
}

/// Loud stderr banner when a --compare baseline has no provenance stamp or
/// was measured elsewhere/elsewhen. Ratios against such a baseline can
/// reflect machine or commit drift rather than the change under test.
inline void warn_if_stale_baseline(const std::string& path,
                                   const std::string& baseline_commit,
                                   const std::string& baseline_machine) {
  const std::string commit = current_git_commit();
  const std::string machine = machine_name();
  std::vector<std::string> problems;
  if (baseline_commit.empty() || baseline_machine.empty()) {
    problems.push_back(
        "baseline has no git_commit/machine stamp (predates provenance "
        "stamping) — it may be arbitrarily stale");
  } else {
    if (baseline_commit != commit)
      problems.push_back("baseline commit " + baseline_commit +
                         " != current " + commit);
    if (baseline_machine != machine)
      problems.push_back("baseline machine " + baseline_machine +
                         " != current " + machine);
  }
  if (problems.empty()) return;
  std::cerr << "\n"
            << "=========================== WARNING ==========================="
            << "\n"
            << "stale baseline suspected for --compare " << path << ":\n";
  for (const std::string& p : problems) std::cerr << "  * " << p << "\n";
  std::cerr << "ratios below may measure machine/commit drift, not your "
               "change;\nregenerate the baseline on this machine at the "
               "pre-change commit.\n"
            << "==============================================================="
            << "\n\n";
}

}  // namespace gcaching::bench
