#pragma once
/// \file indexed_event_set.hpp
/// \brief Pending-event set with at most one event per slot, re-keyed in
///        place.
///
/// IndexedEventSet is a 4-ary min-heap over a fixed number of *slots*.  Each
/// slot holds at most one pending event; scheduling a slot that is already
/// pending moves its event instead of adding a second one, and cancel()
/// removes it.  A simulator whose pending work is "the next event of each
/// source" (a server's next arrival, its next completion) thus never leaves
/// superseded events in the heap to be popped and thrown away, and the heap
/// never holds more entries than there are slots.
///
/// Order is the same strict total order as EventQueue: (time, seq), where
/// seq is drawn from one counter every time a slot is scheduled (first time
/// or re-key).  A re-keyed event therefore sorts exactly where a fresh push
/// of the same event into an EventQueue would, so replacing "push a new
/// event and filter the stale one on pop" with a re-key leaves the order of
/// live events unchanged.
///
/// Layout: the key is kept inline in each heap entry (no heap -> slot -> key
/// indirection on the sift paths), and a slot -> position array locates a
/// slot's entry for re-keys and cancels.  The entries past the last one are
/// sentinels that sort after every event, so each sift-down step picks the
/// least of four children with a branch-free tournament.

#include <cstdint>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace routesim {

class IndexedEventSet {
 public:
  struct Entry {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< draw from the schedule counter (tie-break)
    std::uint32_t slot = 0;
  };

  /// An empty set of `slots` slots; the seq counter starts at 0.
  explicit IndexedEventSet(std::size_t slots) {
    RS_EXPECTS(slots < kAbsent / kArity);  // child indices stay in range
    heap_.assign(slots + kArity, kSentinel);  // a last child group may overhang
    pos_.assign(slots, kAbsent);
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t slots() const noexcept { return pos_.size(); }

  [[nodiscard]] bool pending(std::uint32_t slot) const {
    RS_DASSERT(slot < pos_.size());
    return pos_[slot] != kAbsent;
  }

  /// Schedules `slot` at `time` with a fresh seq, moving its event if the
  /// slot is already pending.
  void schedule(std::uint32_t slot, double time) {
    RS_DASSERT(slot < pos_.size());
    const Entry entry{time, next_seq_++, slot};
    const std::uint32_t at = pos_[slot];
    if (at == kAbsent) {
      sift_up(size_++, entry);
    } else if (before(entry, heap_[at])) {
      sift_up(at, entry);
    } else {
      sift_down(at, entry);
    }
  }

  /// Removes the pending event of `slot`, if any.
  void cancel(std::uint32_t slot) {
    RS_DASSERT(slot < pos_.size());
    const std::uint32_t at = pos_[slot];
    if (at == kAbsent) return;
    pos_[slot] = kAbsent;
    const Entry last = take_last();
    if (at == size_) return;  // the removed entry was the last one
    if (before(last, heap_[at])) {
      sift_up(at, last);
    } else {
      sift_down(at, last);
    }
  }

  /// The earliest event (undefined when empty; checked in debug builds).
  [[nodiscard]] const Entry& top() const {
    RS_DASSERT(size_ != 0);
    return heap_[0];
  }

  /// Removes and returns the earliest event; its slot is no longer pending.
  Entry pop() {
    RS_DASSERT(size_ != 0);
    const Entry result = heap_[0];
    pos_[result.slot] = kAbsent;
    const Entry last = take_last();
    if (size_ != 0) sift_down(0, last);
    return result;
  }

 private:
  static constexpr std::uint32_t kArity = 4;
  static constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();
  static constexpr Entry kSentinel{std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<std::uint64_t>::max(), 0};

  // Bitwise & and | keep the comparison free of short-circuit branches.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  Entry take_last() {
    const Entry last = heap_[--size_];
    heap_[size_] = kSentinel;
    return last;
  }

  void place(std::uint32_t i, const Entry& entry) {
    heap_[i] = entry;
    pos_[entry.slot] = i;
  }

  // Hole percolation: `entry` goes into the hole at i, parents move down.
  void sift_up(std::uint32_t i, const Entry& entry) {
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / kArity;
      if (!before(entry, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, entry);
  }

  // Hole percolation: `entry` goes into the hole at i, children move up.
  // Any child group that starts inside the heap is padded by sentinels, so
  // all four children are compared without bounds checks.
  void sift_down(std::uint32_t i, const Entry& entry) {
    for (;;) {
      const std::uint32_t first = kArity * i + 1;
      if (first >= size_) break;
      const Entry* child = &heap_[first];
      const std::uint32_t left = before(child[1], child[0]) ? 1 : 0;
      const std::uint32_t right = before(child[3], child[2]) ? 3 : 2;
      const std::uint32_t best = first + (before(child[right], child[left]) ? right : left);
      if (!before(heap_[best], entry)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, entry);
  }

  std::vector<Entry> heap_;         ///< [0, size_) events, then sentinels
  std::vector<std::uint32_t> pos_;  ///< slot -> heap index, kAbsent if idle
  std::uint32_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace routesim
