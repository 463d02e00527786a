// Intrusive recency list over a dense id universe.
//
// All LRU-style policies in this library keep their recency order in an
// `IndexedList`: a doubly-linked list whose nodes are preallocated, indexed
// by the id itself (item id or block id). Every operation is O(1) with no
// allocation on the hot path, and membership is an O(1) flag check, which is
// what makes the simulator fast enough for multi-million-access sweeps.
// Per-operation contracts are hot-tier (GC_HOT_REQUIRE): enforced by
// default, compiled out under GC_FAST_SIM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/cache_line.hpp"
#include "util/contracts.hpp"

namespace gcaching {

class IndexedList {
 public:
  using Id = std::uint32_t;

  explicit IndexedList(std::size_t universe)
      : nodes_(universe + 1, Node{kNull, kNull}) {  // last is the sentinel
    const Id s = sentinel();
    nodes_[s].prev = s;
    nodes_[s].next = s;
    GC_ASSERT_APART(IndexedList, size_, nodes_);
  }

  std::size_t universe() const noexcept { return nodes_.size() - 1; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool contains(Id id) const {
    GC_HOT_REQUIRE(id < universe(), "id out of range");
    return nodes_[id].next != kNull;
  }

  /// Most-recently-used end.
  Id front() const {
    GC_HOT_REQUIRE(!empty(), "front() of empty list");
    return nodes_[sentinel()].next;
  }

  /// Least-recently-used end.
  Id back() const {
    GC_HOT_REQUIRE(!empty(), "back() of empty list");
    return nodes_[sentinel()].prev;
  }

  void push_front(Id id) {
    GC_HOT_REQUIRE(id < universe(), "id out of range");
    GC_HOT_REQUIRE(nodes_[id].next == kNull, "id already in list");
    link_after(sentinel(), id);
    ++size_;
  }

  void push_back(Id id) {
    GC_HOT_REQUIRE(id < universe(), "id out of range");
    GC_HOT_REQUIRE(nodes_[id].next == kNull, "id already in list");
    link_after(nodes_[sentinel()].prev, id);
    ++size_;
  }

  void remove(Id id) {
    GC_HOT_REQUIRE(id < universe(), "id out of range");
    GC_HOT_REQUIRE(nodes_[id].next != kNull, "removing id not in list");
    unlink(id);
    nodes_[id] = Node{kNull, kNull};
    --size_;
  }

  void move_to_front(Id id) {
    GC_HOT_REQUIRE(nodes_[id].next != kNull,
                   "move_to_front of id not in list");
    if (nodes_[sentinel()].next == id) return;  // already most recent
    unlink(id);
    link_after(sentinel(), id);
  }

  /// Hint: fetch `id`'s node and the sentinel, which move_to_front and
  /// push_front write, for writing. Safe without the owner's lock: it reads
  /// only the node array's bounds, fixed after construction (clear()
  /// rewrites the nodes, never the array).
  void prefetch(Id id) const noexcept {
    __builtin_prefetch(nodes_.data() + id, 1);
    __builtin_prefetch(nodes_.data() + sentinel(), 1);
  }

  Id pop_back() {
    const Id id = back();
    remove(id);
    return id;
  }

  /// pop_back() then push_front(id) in one step: the least-recently-used id
  /// leaves, `id` becomes the most recent, and the replaced id is returned.
  /// The size is unchanged, so size_'s line is not written.
  Id replace_back(Id id) {
    GC_HOT_REQUIRE(id < universe(), "id out of range");
    GC_HOT_REQUIRE(nodes_[id].next == kNull, "id already in list");
    const Id victim = back();
    unlink(victim);
    nodes_[victim] = Node{kNull, kNull};
    link_after(sentinel(), id);
    return victim;
  }

  void clear() {
    // O(universe) — only used between runs, never on the hot path.
    for (auto& n : nodes_) n = Node{kNull, kNull};
    const Id s = sentinel();
    nodes_[s].prev = s;
    nodes_[s].next = s;
    size_ = 0;
  }

  /// Snapshot MRU -> LRU (for tests).
  std::vector<Id> to_vector() const {
    std::vector<Id> out;
    out.reserve(size_);
    for (Id cur = nodes_[sentinel()].next; cur != sentinel();
         cur = nodes_[cur].next)
      out.push_back(cur);
    return out;
  }

  /// Iterate LRU -> MRU until fn returns false. Used for victim scans that
  /// must skip ineligible entries (e.g. items of the currently-missed block).
  template <typename Fn>
  void for_each_from_lru(Fn&& fn) const {
    for (Id cur = nodes_[sentinel()].prev; cur != sentinel();) {
      const Id prev = nodes_[cur].prev;  // fn may remove cur
      if (!fn(cur)) return;
      cur = prev;
    }
  }

 private:
  // 8-byte node: membership is encoded as next != kNull, so the whole
  // recency state an operation touches is a handful of 8-byte slots.
  static constexpr Id kNull = static_cast<Id>(-1);
  struct Node {
    Id prev;
    Id next;
  };

  Id sentinel() const noexcept { return static_cast<Id>(nodes_.size() - 1); }

  void link_after(Id pos, Id id) {
    Node& n = nodes_[id];
    n.prev = pos;
    n.next = nodes_[pos].next;
    nodes_[n.next].prev = id;
    nodes_[pos].next = id;
  }

  void unlink(Id id) {
    Node& n = nodes_[id];
    nodes_[n.prev].next = n.next;
    nodes_[n.next].prev = n.prev;
  }

  // The node array's bounds are read by every operation and written by
  // none; size_ is written by every push and remove. Keeping size_ a line
  // past them leaves the bounds shared in every core that runs the list
  // (util/cache_line.hpp). On any 16-byte-aligned start, which operator new
  // gives, the begin and end pointers then never share size_'s line.
  // Padding, not alignas: an over-aligned type would make every engine
  // holding a list by value realign its stack frame.
  std::vector<Node> nodes_;
  char pad_[kCacheLineBytes - sizeof(std::vector<Node>)] = {};
  std::size_t size_ = 0;
};

}  // namespace gcaching
