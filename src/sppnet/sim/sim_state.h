#ifndef SPPNET_SIM_SIM_STATE_H_
#define SPPNET_SIM_SIM_STATE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sppnet/common/check.h"
#include "sppnet/io/checkpoint.h"

namespace sppnet {

/// Storage backing for the simulator's per-query state. The dense
/// backend exploits the fact that query ids are handed out sequentially
/// from 0 (slot arrays) and that the per-cluster tables only ever see
/// point lookups (open addressing, no iteration); the hash-map backend
/// is the reference implementation both are held bit-identical against
/// (tests/sim/engine_equivalence_test.cc).
enum class SimStateBackend {
  /// Generation-stamped slot arrays keyed by qid + open-addressing
  /// tables; no per-entry allocation.
  kDense,
  /// The original std::unordered_map containers.
  kMapReference,
};

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

/// Open-addressing uint64 -> V table: power-of-two capacity, linear
/// probing, generation-stamped occupancy (Clear() is O(1) — bump the
/// generation). Point lookups only; nothing is ever erased, and the
/// only iteration (ForEach) serves the checkpoint path, which sorts
/// what it collects — exactly the duplicate tables' access pattern,
/// and what makes the layout safely deterministic: probe order can
/// never leak into results.
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

  /// Drops every entry without touching the slot storage.
  void Clear() {
    ++generation_;
    size_ = 0;
  }

  /// Invokes fn(key, value) for every live entry, in unspecified slot
  /// order. Checkpoint-path only: callers sort what they collect, so
  /// the probe layout still cannot leak into results.
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

/// All per-query simulator state behind one facade: the duplicate
/// tables (per-cluster qid -> upstream), the per-root QueryState and
/// the retry-qid -> root mapping. Both backends implement identical
/// semantics; the simulator never observes which one it is running on
/// (see DESIGN.md §9 for the determinism argument).
class SimState {
 public:
  SimState(SimStateBackend backend, std::size_t num_clusters);

  /// Grows the per-cluster containers to cover cluster ids below
  /// `num_clusters` (no-op when already large enough). The in-sim
  /// adaptation layer appends cluster slots when a split promotes a new
  /// super-peer; existing entries are untouched, so growth never
  /// perturbs prior state.
  void EnsureClusters(std::size_t num_clusters);

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
  /// Null when qid was never claimed.
  QueryState* Find(std::uint64_t qid);

  // --- Retry-qid -> root mapping ------------------------------------------
  void SetRoot(std::uint64_t qid, std::uint64_t root);
  /// Root of `qid`; identity when unmapped.
  std::uint64_t RootOf(std::uint64_t qid) const;

  // --- Retirement (streaming mode) -----------------------------------------
  /// Drops every entry (duplicate tables, query states, root mappings)
  /// for qids below `floor` and makes those qids unaddressable,
  /// bounding resident state on an unbounded run. The caller guarantees
  /// no in-flight event references a retired qid (the streaming layer's
  /// retention horizon, DESIGN.md §11); the floor is monotone — a lower
  /// `floor` is a no-op.
  void RetireBelow(std::uint64_t floor);
  std::uint64_t retire_floor() const { return qid_base_; }

  // --- Checkpoint (streaming mode) ------------------------------------------
  /// Serializes the logical contents in a backend-portable, canonically
  /// sorted form: both backends holding the same entries produce the
  /// same bytes, so a checkpoint written under one backend restores
  /// under the other.
  void SaveTo(CheckpointWriter& w) const;
  /// Populates this freshly constructed, still-empty state (checked)
  /// from a checkpoint. Returns false when the payload is malformed.
  bool LoadFrom(CheckpointReader& r);

  // --- Introspection (sim.state.* gauges) ----------------------------------
  /// Approximate resident bytes of every container above. Derived from
  /// element counts and capacities: deterministic for the dense backend,
  /// estimated per-node costs for the reference maps.
  std::size_t ApproxScratchBytes() const;
  std::uint64_t duplicate_entries() const { return duplicate_entries_; }

  SimStateBackend backend() const { return backend_; }

 private:
  static constexpr std::uint64_t kNoRoot = ~std::uint64_t{0};

  /// Amortized growth of a qid-indexed slot array to cover `qid`.
  template <typename T>
  static void EnsureSlot(std::vector<T>& v, std::uint64_t qid, const T& fill) {
    if (qid < v.size()) return;
    std::size_t target = std::max<std::size_t>(v.size() * 2, 64);
    target = std::max<std::size_t>(target, static_cast<std::size_t>(qid) + 1);
    v.resize(target, fill);
  }

  /// Dense slot of `qid`. Slot arrays are indexed relative to the
  /// retirement floor; a retired qid wraps to a huge index and reads as
  /// absent (writes grow-check against it and abort).
  std::size_t SlotOf(std::uint64_t qid) const {
    return static_cast<std::size_t>(qid - qid_base_);
  }

  const SimStateBackend backend_;
  /// Cluster ids below this are addressable (grown by EnsureClusters).
  std::size_t num_clusters_;
  /// Qids below this are retired (RetireBelow); 0 in batch runs.
  std::uint64_t qid_base_ = 0;
  std::uint64_t duplicate_entries_ = 0;

  // --- Dense backend -------------------------------------------------------
  /// Duplicate tables indexed by qid, keyed by cluster — the inverse of
  /// the reference layout. Qids are touched in tight bursts (one flood),
  /// so the hot table is small and cache-resident; per-cluster tables
  /// would spread the same probes over the whole table population.
  std::vector<FlatMap64<std::uint32_t>> dense_table_;
  std::vector<QueryState> state_slots_;                 // Indexed by qid.
  std::vector<std::uint8_t> state_live_;
  std::vector<std::uint64_t> root_slots_;               // kNoRoot = unset.

  // --- Reference backend ---------------------------------------------------
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> map_table_;
  std::unordered_map<std::uint64_t, QueryState> map_state_;
  std::unordered_map<std::uint64_t, std::uint64_t> map_root_;
};

inline bool SimState::MarkSeen(std::size_t cluster, std::uint64_t qid,
                               std::uint32_t upstream) {
  // A visit for a retired qid means the retention horizon was violated
  // (the map backend would silently re-insert and diverge from dense);
  // one predictable compare buys a loud failure instead.
  SPPNET_CHECK(qid >= qid_base_);
  bool fresh;
  if (backend_ == SimStateBackend::kDense) {
    // Keyed per qid (not per cluster): a flood's visits all land in one
    // small table that stays cache-resident while the flood is live,
    // instead of scattering point probes across every cluster's table.
    EnsureSlot(dense_table_, SlotOf(qid), {});
    const auto [slot, inserted] =
        dense_table_[SlotOf(qid)].FindOrInsert(cluster);
    if (inserted) *slot = upstream;
    fresh = inserted;
  } else {
    fresh = map_table_[cluster].try_emplace(qid, upstream).second;
  }
  if (fresh) ++duplicate_entries_;
  return fresh;
}

inline const std::uint32_t* SimState::Upstream(std::size_t cluster,
                                               std::uint64_t qid) const {
  if (backend_ == SimStateBackend::kDense) {
    if (SlotOf(qid) >= dense_table_.size()) return nullptr;
    return dense_table_[SlotOf(qid)].Find(cluster);
  }
  if (qid < qid_base_) return nullptr;
  const auto it = map_table_[cluster].find(qid);
  return it == map_table_[cluster].end() ? nullptr : &it->second;
}

}  // namespace sppnet

#endif  // SPPNET_SIM_SIM_STATE_H_
