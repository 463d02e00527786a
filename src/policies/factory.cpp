#include "policies/factory.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>

#include "core/simulator.hpp"
#include "locality/stack_column.hpp"
#include "obs/obs.hpp"
#include "policies/athreshold.hpp"
#include "policies/belady.hpp"
#include "policies/block_fifo.hpp"
#include "policies/block_lru.hpp"
#include "policies/footprint.hpp"
#include "policies/gcm.hpp"
#include "policies/iblp.hpp"
#include "policies/item_arc.hpp"
#include "policies/item_clock.hpp"
#include "policies/item_fifo.hpp"
#include "policies/item_lfu.hpp"
#include "policies/item_lru.hpp"
#include "policies/item_random.hpp"
#include "policies/item_slru.hpp"
#include "util/contracts.hpp"
#include "util/parse_number.hpp"

namespace gcaching {

namespace {

using Params = std::map<std::string, std::string>;

std::pair<std::string, Params> parse_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  Params params;
  if (colon != std::string::npos) {
    std::istringstream rest(spec.substr(colon + 1));
    std::string kv;
    while (std::getline(rest, kv, ',')) {
      const auto eq = kv.find('=');
      GC_REQUIRE(eq != std::string::npos,
                 "policy parameter must be key=value: " + kv);
      params[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
  }
  return {name, params};
}

// Parameters are parsed with a full check (util/parse_number.hpp): a sign,
// trailing junk or a non-number is a malformed spec, never a wrapped or
// truncated value.
std::uint64_t get_u64(const Params& p, const std::string& key,
                      std::uint64_t fallback) {
  const auto it = p.find(key);
  if (it == p.end()) return fallback;
  const std::optional<std::uint64_t> v =
      parse_number<std::uint64_t>(it->second);
  GC_REQUIRE(v.has_value(), "policy parameter " + key +
                                " must be a non-negative integer: " +
                                it->second);
  return *v;
}

double get_f64(const Params& p, const std::string& key, double fallback) {
  const auto it = p.find(key);
  if (it == p.end()) return fallback;
  const std::optional<double> v = parse_number<double>(it->second);
  GC_REQUIRE(v.has_value(), "policy parameter " + key +
                                " must be a non-negative number: " +
                                it->second);
  return *v;
}

IblpConfig iblp_config(const Params& p, std::size_t capacity) {
  IblpConfig cfg;
  const std::uint64_t half = capacity / 2;
  cfg.item_layer = static_cast<std::size_t>(get_u64(p, "i", half));
  cfg.block_layer =
      static_cast<std::size_t>(get_u64(p, "b", capacity - cfg.item_layer));
  GC_REQUIRE(cfg.total() == capacity,
             "IBLP spec i+b must equal the cache capacity");
  return cfg;
}

/// Construct a concrete policy and run the devirtualized engine on it. This
/// is the single point where the spec's dynamic name becomes a static type.
template <typename Policy, typename... Args>
SimStats run_fast(const BlockMap& map, const Trace& trace,
                  std::span<const BlockId> block_ids, std::size_t capacity,
                  Args&&... args) {
  Policy policy(std::forward<Args>(args)...);
  return simulate_fast(map, trace, policy, capacity, block_ids);
}

}  // namespace

std::unique_ptr<ReplacementPolicy> make_policy(const std::string& spec,
                                               std::size_t capacity) {
  const auto [name, params] = parse_spec(spec);
  if (name == "item-lru") return std::make_unique<ItemLru>();
  if (name == "item-fifo") return std::make_unique<ItemFifo>();
  if (name == "item-lfu") return std::make_unique<ItemLfu>();
  if (name == "item-clock") return std::make_unique<ItemClock>();
  if (name == "item-random")
    return std::make_unique<ItemRandom>(get_u64(params, "seed", 1));
  if (name == "item-slru")
    return std::make_unique<ItemSlru>(get_f64(params, "p", 0.5));
  if (name == "item-arc") return std::make_unique<ItemArc>();
  if (name == "footprint")
    return std::make_unique<FootprintCache>(
        get_u64(params, "cold_block", 1) != 0);
  if (name == "block-lru") return std::make_unique<BlockLru>();
  if (name == "block-fifo") return std::make_unique<BlockFifo>();
  if (name == "iblp")
    return std::make_unique<Iblp>(iblp_config(params, capacity));
  if (name == "iblp-excl")
    return std::make_unique<IblpExclusive>(iblp_config(params, capacity));
  if (name == "iblp-blockfirst")
    return std::make_unique<IblpBlockFirst>(iblp_config(params, capacity));
  if (name == "gcm")
    return std::make_unique<Gcm>(
        get_u64(params, "seed", 1),
        static_cast<std::size_t>(get_u64(params, "sideload", 0)));
  if (name == "marking-item")
    return std::make_unique<MarkingItem>(get_u64(params, "seed", 1));
  if (name == "marking-blockmark")
    return std::make_unique<MarkingBlockMark>(get_u64(params, "seed", 1));
  if (name == "athreshold")
    return std::make_unique<AThreshold>(
        static_cast<unsigned>(get_u64(params, "a", 1)));
  if (name == "belady-item") return std::make_unique<BeladyItem>();
  if (name == "belady-block") return std::make_unique<BeladyBlock>();
  if (name == "belady-greedy-gc") return std::make_unique<BeladyGreedyGc>();
  GC_REQUIRE(false, "unknown policy spec: " + spec);
  return nullptr;  // unreachable
}

SimStats simulate_fast_spec(const std::string& spec, const BlockMap& map,
                            const Trace& trace,
                            std::span<const BlockId> block_ids,
                            std::size_t capacity) {
  const auto [name, params] = parse_spec(spec);
  if (name == "item-lru")
    return run_fast<ItemLru>(map, trace, block_ids, capacity);
  if (name == "item-fifo")
    return run_fast<ItemFifo>(map, trace, block_ids, capacity);
  if (name == "item-lfu")
    return run_fast<ItemLfu>(map, trace, block_ids, capacity);
  if (name == "item-clock")
    return run_fast<ItemClock>(map, trace, block_ids, capacity);
  if (name == "item-random")
    return run_fast<ItemRandom>(map, trace, block_ids, capacity,
                                get_u64(params, "seed", 1));
  if (name == "item-slru")
    return run_fast<ItemSlru>(map, trace, block_ids, capacity,
                              get_f64(params, "p", 0.5));
  if (name == "item-arc")
    return run_fast<ItemArc>(map, trace, block_ids, capacity);
  if (name == "footprint")
    return run_fast<FootprintCache>(map, trace, block_ids, capacity,
                                    get_u64(params, "cold_block", 1) != 0);
  if (name == "block-lru")
    return run_fast<BlockLru>(map, trace, block_ids, capacity);
  if (name == "block-fifo")
    return run_fast<BlockFifo>(map, trace, block_ids, capacity);
  if (name == "iblp")
    return run_fast<Iblp>(map, trace, block_ids, capacity,
                          iblp_config(params, capacity));
  if (name == "iblp-excl")
    return run_fast<IblpExclusive>(map, trace, block_ids, capacity,
                                   iblp_config(params, capacity));
  if (name == "iblp-blockfirst")
    return run_fast<IblpBlockFirst>(map, trace, block_ids, capacity,
                                    iblp_config(params, capacity));
  if (name == "gcm")
    return run_fast<Gcm>(
        map, trace, block_ids, capacity, get_u64(params, "seed", 1),
        static_cast<std::size_t>(get_u64(params, "sideload", 0)));
  if (name == "marking-item")
    return run_fast<MarkingItem>(map, trace, block_ids, capacity,
                                 get_u64(params, "seed", 1));
  if (name == "marking-blockmark")
    return run_fast<MarkingBlockMark>(map, trace, block_ids, capacity,
                                      get_u64(params, "seed", 1));
  if (name == "athreshold")
    return run_fast<AThreshold>(map, trace, block_ids, capacity,
                                static_cast<unsigned>(get_u64(params, "a", 1)));
  if (name == "belady-item")
    return run_fast<BeladyItem>(map, trace, block_ids, capacity);
  if (name == "belady-block")
    return run_fast<BeladyBlock>(map, trace, block_ids, capacity);
  if (name == "belady-greedy-gc")
    return run_fast<BeladyGreedyGc>(map, trace, block_ids, capacity);
  GC_REQUIRE(false, "unknown policy spec: " + spec);
  return {};  // unreachable
}

SimStats simulate_fast_spec(const std::string& spec, const BlockMap& map,
                            const Trace& trace, std::size_t capacity) {
  std::vector<BlockId> storage;
  const std::span<const BlockId> ids = resolve_block_ids(map, trace, storage);
  return simulate_fast_spec(spec, map, trace, ids, capacity);
}

SimStats simulate_fast_spec(const std::string& spec, const Workload& workload,
                            std::size_t capacity) {
  GC_REQUIRE(workload.map != nullptr, "workload has no block map");
  return simulate_fast_spec(spec, *workload.map, workload.trace, capacity);
}

std::vector<SimStats> simulate_column_spec(
    const std::string& spec, const BlockMap& map, const Trace& trace,
    std::span<const BlockId> block_ids,
    std::span<const std::size_t> capacities) {
  // Whole-column entry point: a timeline records single runs only, so none
  // of the runs below (nor the checking replay) records into one.
  const obs::TimelineDetachScope no_timeline;
  const std::string name = parse_spec(spec).first;
  const bool stack = name == "item-lru" ||
                     (name == "block-lru" &&
                      locality::block_column_supported(map));
  const auto per_cell = [&](std::size_t capacity) {
    return simulate_fast_spec(spec, map, trace, block_ids, capacity);
  };
  if (!stack) {
    GC_OBS_SPAN(span, "per_cell_column", "column");
    GC_OBS_SPAN_ARG(span, "capacities", std::to_string(capacities.size()));
    GC_OBS_COUNT("column.per_cell", 1);
    std::vector<SimStats> column;
    column.reserve(capacities.size());
    for (const std::size_t capacity : capacities)
      column.push_back(per_cell(capacity));
    return column;
  }
  GC_OBS_SPAN(span, "stack_column_pass", "column");
  GC_OBS_SPAN_ARG(span, "capacities", std::to_string(capacities.size()));
  GC_OBS_COUNT("column.stack_fast_path", 1);
  const std::vector<SimStats> derived =
      name == "item-lru"
          ? locality::item_lru_column(map, trace, capacities)
          : locality::block_lru_column(map, trace, block_ids, capacities);
  if constexpr (kHotChecksEnabled) {
    for (std::size_t i = 0; i < capacities.size(); ++i)
      GC_CHECK(derived[i] == per_cell(capacities[i]),
               "stack-column derivation diverged from the per-cell engine");
  }
  return derived;
}

double estimated_sim_cost(const std::string& spec, std::uint64_t accesses) {
  // Relative cost per access, item-lru = 1.0, calibrated from the
  // GC_FAST_SIM throughputs in BENCH_throughput.json (zipf workload) after
  // the data-oriented policy rewrites — the lazily-ordered LFU bucket and
  // the FlatBlockIndex geometry compressed the spread from ~70x to
  // ~17x. A misestimate only shifts schedule order, never correctness.
  static const std::map<std::string, double> kUnitCost = {
      {"item-lru", 1.0},       {"item-fifo", 1.0},
      {"item-lfu", 1.3},       {"item-clock", 1.4},
      {"item-random", 1.0},    {"item-slru", 1.9},
      {"item-arc", 1.5},       {"footprint", 6.1},
      {"block-lru", 4.3},      {"block-fifo", 5.0},
      {"iblp", 10.7},          {"iblp-excl", 7.9},
      {"iblp-blockfirst", 11.8}, {"gcm", 4.3},
      {"marking-item", 1.5},   {"marking-blockmark", 8.3},
      {"athreshold", 6.9},     {"belady-item", 12.1},
      {"belady-block", 14.8},  {"belady-greedy-gc", 17.5}};
  const auto [name, params] = parse_spec(spec);
  const auto it = kUnitCost.find(name);
  // Unknown names get a middle-of-the-pack estimate: misscheduling one row
  // costs a little balance, never correctness.
  const double unit = it == kUnitCost.end() ? 8.0 : it->second;
  return unit * static_cast<double>(accesses);
}

std::vector<std::string> known_policy_names() {
  return {"item-lru",       "item-fifo",         "item-lfu",
          "item-clock",     "item-random",       "item-slru",
          "item-arc",       "footprint",         "block-lru",
          "block-fifo",     "iblp",              "iblp-excl",
          "iblp-blockfirst", "gcm",              "marking-item",
          "marking-blockmark", "athreshold",     "belady-item",
          "belady-block",   "belady-greedy-gc"};
}

}  // namespace gcaching
