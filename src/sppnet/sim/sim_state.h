#ifndef SPPNET_SIM_SIM_STATE_H_
#define SPPNET_SIM_SIM_STATE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sppnet/common/check.h"
#include "sppnet/io/checkpoint.h"

namespace sppnet {

/// Per-user-query bookkeeping shared by all strategies, keyed by the
/// root query id (expanding-ring / retry qids map back to it).
struct QueryState {
  std::uint32_t user = 0;      ///< Submitting user.
  std::uint32_t query_class = 0;
  std::uint32_t ring_ttl = 0;  ///< Current ring (expanding ring only).
  double ring_results = 0.0;   ///< Results from the current ring.
  double submit_time = 0.0;
  bool first_response_seen = false;
};

/// One QueryState's checkpoint fields, shared by SimState and the
/// sharded engine's per-domain containers.
void PutQueryState(CheckpointWriter& w, const QueryState& s);
QueryState GetQueryState(CheckpointReader& r);

/// Open-addressing uint64 -> V table: power-of-two capacity, linear
/// probing, generation-stamped occupancy (Clear() is O(1) — bump the
/// generation). Point lookups and point erases only; the iteration
/// (ForEach) serves the checkpoint and retirement paths, whose results
/// never depend on the visit order — which makes the layout safely
/// deterministic: probe order can never leak into results.
template <typename V>
class FlatMap64 {
 public:
  FlatMap64() = default;

  /// Null when absent.
  V* Find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    std::size_t i = Mix(key) & mask_;
    while (slots_[i].stamp == generation_) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* Find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->Find(key);
  }

  /// Returns (slot, inserted). A fresh slot holds a value-initialized V.
  std::pair<V*, bool> FindOrInsert(std::uint64_t key) {
    if (size_ + 1 > (Capacity() * 7) / 10) Grow();
    std::size_t i = Mix(key) & mask_;
    while (slots_[i].stamp == generation_) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
      i = (i + 1) & mask_;
    }
    slots_[i].stamp = generation_;
    slots_[i].key = key;
    slots_[i].value = V{};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes `key` and releases its value; false when absent.
  /// Backward-shift deletion: every later key of the probe run that may
  /// move into the hole does, so lookups need no tombstones.
  bool Erase(std::uint64_t key) {
    if (slots_.empty()) return false;
    std::size_t i = Mix(key) & mask_;
    while (slots_[i].stamp == generation_ && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    if (slots_[i].stamp != generation_) return false;
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask_; slots_[j].stamp == generation_;
         j = (j + 1) & mask_) {
      // The key at j may fill the hole unless its home slot lies
      // cyclically in (hole, j].
      const std::size_t home = Mix(slots_[j].key) & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].stamp = generation_ - 1;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

  /// Drops every entry without touching the slot storage.
  void Clear() {
    ++generation_;
    size_ = 0;
  }

  /// Invokes fn(key, value) for every live entry, in unspecified slot
  /// order. Off the hot path only, and callers make their result
  /// independent of the order (the checkpoint path sorts what it
  /// collects), so the probe layout still cannot leak into results.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.stamp == generation_) fn(slot.key, slot.value);
    }
  }

  std::size_t size() const { return size_; }
  std::size_t Capacity() const { return slots_.size(); }
  std::size_t ApproxMemoryBytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  /// The occupancy stamp lives inside the slot so a probe touches one
  /// cache line, not two — the tables are far larger than LLC under
  /// real workloads and every avoided line is a DRAM miss saved.
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    std::uint32_t stamp = 0;  ///< Occupied iff == generation_.
  };

  // splitmix64 finalizer: cheap, and scrambles the low bits the
  // sequential qids concentrate in.
  static std::size_t Mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }

  void Grow() {
    const std::size_t new_cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old_slots = std::move(slots_);
    const std::uint32_t old_gen = generation_;
    slots_.assign(new_cap, Slot{});
    generation_ = 1;
    mask_ = new_cap - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_slots[i].stamp != old_gen) continue;
      std::size_t j = Mix(old_slots[i].key) & mask_;
      while (slots_[j].stamp == generation_) j = (j + 1) & mask_;
      slots_[j] = std::move(old_slots[i]);
      slots_[j].stamp = generation_;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t generation_ = 1;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// All per-query simulator state behind one facade: the qid counter,
/// the duplicate tables (per-cluster qid -> upstream), the per-root
/// QueryState, the retry-qid -> root mapping and the in-flight event
/// counts that retire all of it. Storage exploits the fact that query
/// ids are handed out sequentially from 0: generation-stamped slot
/// arrays indexed by qid, plus one open-addressing table per qid for
/// its duplicate entries, so nothing allocates per entry (DESIGN.md §9).
///
/// Exact retirement (DESIGN.md §11): the simulator counts, per qid, the
/// pending events that carry it (AddRef on schedule, Release on
/// dispatch). A retry or ring qid bound to a root by SetRoot holds one
/// more count on that root. When a qid's count is zero nothing can
/// reach its state again, so RetireIfIdle drops its duplicate table,
/// QueryState and binding at once — a bound qid then releases its hold
/// on the root, which retires in turn when that was its last. Retired
/// qids become unaddressable: a write to one aborts whether it lies
/// below the compacted floor or above it.
class SimState {
 public:
  /// Largest cluster-slot space a checkpoint may declare. Cluster ids
  /// share the 25-bit domain field of the sharded event key, so a larger
  /// count is a malformed payload, not a network.
  static constexpr std::size_t kMaxClusters = std::size_t{1} << 24;
  /// Widest [floor, next qid) window a checkpoint may declare. The slot
  /// arrays are indexed across that window, and exact retirement
  /// keeps a run's window at the span of its longest-lived query (a few
  /// thousand qids on the benchmark workloads), so a wider one is a
  /// malformed payload.
  static constexpr std::uint64_t kMaxQidWindow = std::uint64_t{1} << 22;

  explicit SimState(std::size_t num_clusters)
      : num_clusters_(num_clusters) {}

  /// Makes cluster ids below `num_clusters` addressable (no-op when
  /// already so). The in-sim adaptation layer appends cluster slots when
  /// a split promotes a new super-peer; existing entries are untouched,
  /// so growth never perturbs prior state. The count is checkpointed and
  /// bounds the cluster ids LoadFrom accepts.
  void EnsureClusters(std::size_t num_clusters);

  // --- Query ids ------------------------------------------------------------
  /// Hands out the next sequential qid.
  std::uint64_t Mint() { return next_qid_++; }
  /// The qid Mint() hands out next.
  std::uint64_t next_qid() const { return next_qid_; }

  // --- Duplicate tables (per-cluster qid -> upstream) ---------------------
  /// Records that `cluster` saw `qid` arriving from `upstream`; returns
  /// true on the first visit (false: duplicate, upstream unchanged).
  /// Defined inline below: this is the hottest call in the simulator
  /// (once per query arrival).
  bool MarkSeen(std::size_t cluster, std::uint64_t qid,
                std::uint32_t upstream);
  /// Upstream recorded by MarkSeen; null when the cluster never saw qid.
  const std::uint32_t* Upstream(std::size_t cluster, std::uint64_t qid) const;

  // --- Per-root query state ----------------------------------------------
  /// Creates (value-initialized) state for a fresh root qid.
  QueryState& Claim(std::uint64_t qid);
  /// Null when qid was never claimed or has retired.
  QueryState* Find(std::uint64_t qid);

  // --- Retry-qid -> root mapping ------------------------------------------
  /// Binds `qid` to `root`; the first binding wins. A binding with
  /// qid != root holds one in-flight count on `root` until qid retires.
  void SetRoot(std::uint64_t qid, std::uint64_t root);
  /// Root of `qid`; identity when unmapped.
  std::uint64_t RootOf(std::uint64_t qid) const;

  // --- In-flight counts and exact retirement --------------------------------
  /// One more pending event carries `qid`. Inline below: once per
  /// qid-carrying schedule.
  void AddRef(std::uint64_t qid);
  /// A pending event carrying `qid` was dispatched: drops its count,
  /// then RetireIfIdle(qid, now). Inline below: once per qid-carrying
  /// dispatch.
  void Release(std::uint64_t qid, double now);
  /// Retires `qid` when its count is zero (no-op otherwise, and for a
  /// qid already retired). A claimed root records its submit-to-`now`
  /// span in longest_lifetime_seconds().
  void RetireIfIdle(std::uint64_t qid, double now);
  /// RetireIfIdle for every qid in [retire_floor(), next_qid()): the
  /// restore path's final step, once the pending events have re-taken
  /// their counts.
  void RetireIdle(double now);
  /// Claimed roots not yet retired.
  std::uint64_t live_roots() const { return live_roots_; }
  /// Longest submit-to-retire span of any root retired by this state,
  /// in simulated seconds (0 before the first).
  double longest_lifetime_seconds() const { return longest_lifetime_; }
  /// (qid, count) of every qid whose count is nonzero, ascending by qid:
  /// the events carrying it, plus one per bound qid still live for a
  /// root. Diagnostics and tests; not on any hot path.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> InFlightCounts() const;

  /// Drops every entry (duplicate tables, query states, root mappings,
  /// counts) for qids below `floor` and makes those qids unaddressable.
  /// A surviving qid bound to a root below `floor` loses its binding, so
  /// RootOf() returns the qid itself and the state still round-trips
  /// through SaveTo/LoadFrom. Exact retirement advances the floor by
  /// itself over the retired prefix; an explicit call is for callers that
  /// know a prefix is dead.
  /// The floor is monotone — a lower `floor` is a no-op.
  void RetireBelow(std::uint64_t floor);
  /// First qid not known retired: the compacted floor plus the retired
  /// prefix not yet compacted.
  std::uint64_t retire_floor() const { return qid_base_ + retired_prefix_; }

  // --- Checkpoint (streaming mode) ------------------------------------------
  /// Serializes the logical contents in a canonically sorted form: two
  /// states holding the same entries produce the same bytes, whatever
  /// their tables' probe layouts. The in-flight counts are not written:
  /// the restoring simulator rebuilds them from its pending events.
  void SaveTo(CheckpointWriter& w) const;
  /// Populates this freshly constructed, still-empty state (checked)
  /// from a checkpoint. Returns false when the payload is malformed: a
  /// cluster count above kMaxClusters, a qid window wider than
  /// kMaxQidWindow, a cluster id outside the saved count, a qid below
  /// the saved retirement floor or at or above the saved next qid, or a
  /// qid claimed twice.
  bool LoadFrom(CheckpointReader& r);

  // --- Introspection (sim.state.* gauges) ----------------------------------
  /// Approximate resident bytes of every container above, derived from
  /// capacities (deterministic).
  std::size_t ApproxScratchBytes() const;
  std::uint64_t duplicate_entries() const { return duplicate_entries_; }

 private:
  static constexpr std::uint64_t kNoRoot = ~std::uint64_t{0};

  /// Per-qid bookkeeping (one slot per qid).
  struct QidTrack {
    std::uint64_t root = kNoRoot;  ///< SetRoot binding; kNoRoot = unset.
    std::uint32_t inflight = 0;    ///< See InFlightCounts().
    std::uint8_t status = 0;       ///< kFresh, kClaimed or kRetired.
  };
  static constexpr std::uint8_t kFresh = 0;
  static constexpr std::uint8_t kClaimed = 1;
  static constexpr std::uint8_t kRetired = 2;

  /// Amortized growth of a qid-indexed slot array to cover `qid`.
  template <typename T>
  static void EnsureSlot(std::vector<T>& v, std::uint64_t qid, const T& fill) {
    if (qid < v.size()) return;
    std::size_t target = std::max<std::size_t>(v.size() * 2, 64);
    target = std::max<std::size_t>(target, static_cast<std::size_t>(qid) + 1);
    v.resize(target, fill);
  }

  /// Slot of `qid`. Slot arrays are indexed relative to the
  /// retirement floor; a retired qid wraps to a huge index and reads as
  /// absent (writes grow-check against it and abort).
  std::size_t SlotOf(std::uint64_t qid) const {
    return static_cast<std::size_t>(qid - qid_base_);
  }
  /// Creates (or returns) the track of a qid at or above the floor.
  QidTrack& Track(std::uint64_t qid) {
    EnsureSlot(track_, SlotOf(qid), QidTrack{});
    return track_[SlotOf(qid)];
  }
  /// Retires `qid` unconditionally; returns its root binding (kNoRoot
  /// when unbound).
  std::uint64_t RetireNow(std::uint64_t qid, double now);
  /// Advances the floor over the retired prefix of the qid window.
  void AdvanceFloor();
  /// RetireBelow without the binding pass: compacts the slot arrays up
  /// to `floor` (> qid_base_).
  void DropBelow(std::uint64_t floor);

  /// Cluster ids below this are addressable (grown by EnsureClusters).
  std::size_t num_clusters_;
  /// Qids below this are retired (RetireBelow / AdvanceFloor).
  std::uint64_t qid_base_ = 0;
  std::uint64_t next_qid_ = 0;
  std::uint64_t duplicate_entries_ = 0;
  std::uint64_t live_roots_ = 0;
  double longest_lifetime_ = 0.0;

  /// Duplicate tables indexed by qid, keyed by cluster. Qids are touched
  /// in tight bursts (one flood), so the hot table is small and
  /// cache-resident; per-cluster tables would spread the same probes
  /// over the whole table population.
  std::vector<FlatMap64<std::uint32_t>> dup_table_;
  /// Indexed by qid; grown only by Claim, so a QueryState reference
  /// survives every other call.
  std::vector<QueryState> state_slots_;
  std::vector<QidTrack> track_;  // Indexed by qid.
  /// Leading retired slots of track_ (the next compaction's width).
  std::size_t retired_prefix_ = 0;
};

inline bool SimState::MarkSeen(std::size_t cluster, std::uint64_t qid,
                               std::uint32_t upstream) {
  // A visit for a retired qid means a count was lost (it would
  // silently re-insert a table the floor already dropped); one
  // predictable compare buys a loud failure instead.
  SPPNET_CHECK(qid >= qid_base_);
  SPPNET_CHECK_MSG(Track(qid).status != kRetired,
                   "duplicate-table visit to a retired qid");
  // Keyed per qid (not per cluster): a flood's visits all land in one
  // small table that stays cache-resident while the flood is live,
  // instead of scattering point probes across every cluster's table.
  EnsureSlot(dup_table_, SlotOf(qid), {});
  const auto [slot, inserted] = dup_table_[SlotOf(qid)].FindOrInsert(cluster);
  if (inserted) {
    *slot = upstream;
    ++duplicate_entries_;
  }
  return inserted;
}

inline const std::uint32_t* SimState::Upstream(std::size_t cluster,
                                               std::uint64_t qid) const {
  if (SlotOf(qid) >= dup_table_.size()) return nullptr;
  return dup_table_[SlotOf(qid)].Find(cluster);
}

inline void SimState::AddRef(std::uint64_t qid) {
  SPPNET_CHECK(qid >= qid_base_);
  QidTrack& track = Track(qid);
  SPPNET_CHECK_MSG(track.status != kRetired, "event for a retired qid");
  ++track.inflight;
}

inline void SimState::Release(std::uint64_t qid, double now) {
  SPPNET_CHECK(qid >= qid_base_);
  SPPNET_CHECK(SlotOf(qid) < track_.size());
  std::uint32_t& inflight = track_[SlotOf(qid)].inflight;
  SPPNET_CHECK(inflight > 0);
  if (--inflight == 0) RetireIfIdle(qid, now);
}

}  // namespace sppnet

#endif  // SPPNET_SIM_SIM_STATE_H_
