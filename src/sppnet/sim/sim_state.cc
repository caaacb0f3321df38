#include "sppnet/sim/sim_state.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace sppnet {
namespace {

/// Estimated heap bytes per unordered_map node (libstdc++: node header
/// + payload, plus the bucket-array pointer amortized per element).
template <typename K, typename V>
std::size_t MapEntryBytes() {
  return sizeof(std::pair<const K, V>) + 2 * sizeof(void*);
}

}  // namespace

SimState::SimState(SimStateBackend backend, std::size_t num_clusters)
    : backend_(backend), num_clusters_(num_clusters) {
  if (backend_ == SimStateBackend::kMapReference) {
    map_table_.resize(num_clusters_);
  }
}

void SimState::EnsureClusters(std::size_t num_clusters) {
  if (num_clusters <= num_clusters_) return;
  num_clusters_ = num_clusters;
  if (backend_ == SimStateBackend::kMapReference) {
    map_table_.resize(num_clusters_);
  }
}

QueryState& SimState::Claim(std::uint64_t qid) {
  SPPNET_CHECK(qid >= qid_base_);
  if (backend_ == SimStateBackend::kDense) {
    QidTrack& track = DenseTrack(qid);
    SPPNET_CHECK_MSG(track.status == kFresh,
                     "qid claimed twice or claimed after retirement");
    track.status = kClaimed;
    ++live_roots_;
    const std::size_t slot = SlotOf(qid);
    EnsureSlot(state_slots_, slot, QueryState{});
    state_slots_[slot] = QueryState{};
    return state_slots_[slot];
  }
  SPPNET_CHECK_MSG(!map_track_[qid].retired, "claim of a retired qid");
  const auto [it, inserted] = map_state_.try_emplace(qid);
  if (inserted) ++live_roots_;
  return it->second;
}

QueryState* SimState::Find(std::uint64_t qid) {
  if (backend_ == SimStateBackend::kDense) {
    const std::size_t slot = SlotOf(qid);
    if (slot >= track_.size() || track_[slot].status != kClaimed) {
      return nullptr;
    }
    return &state_slots_[slot];
  }
  const auto it = map_state_.find(qid);
  return it == map_state_.end() ? nullptr : &it->second;
}

void SimState::SetRoot(std::uint64_t qid, std::uint64_t root) {
  SPPNET_CHECK(qid >= qid_base_);
  if (backend_ == SimStateBackend::kDense) {
    QidTrack& track = DenseTrack(qid);
    SPPNET_CHECK_MSG(track.status != kRetired, "binding of a retired qid");
    if (track.root != kNoRoot) return;
    track.root = root;
  } else {
    SPPNET_CHECK_MSG(!map_track_[qid].retired, "binding of a retired qid");
    if (!map_root_.emplace(qid, root).second) return;
  }
  if (qid != root) AddRef(root);
}

std::uint64_t SimState::RootOf(std::uint64_t qid) const {
  if (backend_ == SimStateBackend::kDense) {
    const std::size_t slot = SlotOf(qid);
    if (slot >= track_.size() || track_[slot].root == kNoRoot) return qid;
    return track_[slot].root;
  }
  const auto it = map_root_.find(qid);
  return it == map_root_.end() ? qid : it->second;
}

void SimState::RetireIfIdle(std::uint64_t qid, double now) {
  if (qid < qid_base_) return;
  if (backend_ == SimStateBackend::kDense) {
    const QidTrack& track = DenseTrack(qid);
    if (track.status == kRetired || track.inflight > 0) return;
  } else {
    const MapTrack& track = map_track_[qid];
    if (track.retired || track.inflight > 0) return;
  }
  const std::uint64_t root = RetireNow(qid, now);
  // A bound qid held one count on its root; the root may now be idle.
  if (root != kNoRoot && root != qid && root >= qid_base_) Release(root, now);
  AdvanceFloor();
}

std::uint64_t SimState::RetireNow(std::uint64_t qid, double now) {
  const QueryState* state = Find(qid);
  if (state != nullptr) {
    longest_lifetime_ = std::max(longest_lifetime_, now - state->submit_time);
    --live_roots_;
  }
  std::uint64_t root = kNoRoot;
  if (backend_ == SimStateBackend::kDense) {
    const std::size_t slot = SlotOf(qid);
    QidTrack& track = track_[slot];
    root = track.root;
    track = QidTrack{};
    track.status = kRetired;
    if (slot < dense_table_.size()) dense_table_[slot] = {};
    return root;
  }
  MapTrack& track = map_track_[qid];
  for (const std::uint32_t cluster : track.clusters) {
    map_table_[cluster].erase(qid);
  }
  track = MapTrack{};
  track.retired = true;
  map_state_.erase(qid);
  if (const auto it = map_root_.find(qid); it != map_root_.end()) {
    root = it->second;
    map_root_.erase(it);
  }
  return root;
}

void SimState::RetireIdle(double now) {
  for (std::uint64_t qid = qid_base_; qid < next_qid_; ++qid) {
    RetireIfIdle(qid, now);
  }
}

void SimState::AdvanceFloor() {
  if (backend_ == SimStateBackend::kMapReference) {
    for (auto it = map_track_.find(qid_base_);
         it != map_track_.end() && it->second.retired;
         it = map_track_.find(qid_base_)) {
      map_track_.erase(it);
      ++qid_base_;
    }
    return;
  }
  while (retired_prefix_ < track_.size() &&
         track_[retired_prefix_].status == kRetired) {
    ++retired_prefix_;
  }
  // Compact once the retired prefix covers half the minted window: each
  // compaction moves at most a constant multiple of the slots it drops,
  // so the cost is amortized O(1) per retired qid.
  const std::uint64_t window =
      next_qid_ > qid_base_ ? next_qid_ - qid_base_ : 0;
  if (retired_prefix_ >= 64 && 2 * retired_prefix_ >= window) {
    RetireBelow(qid_base_ + retired_prefix_);
  }
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
SimState::InFlightCounts() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
  if (backend_ == SimStateBackend::kDense) {
    for (std::size_t i = 0; i < track_.size(); ++i) {
      if (track_[i].inflight > 0) {
        counts.emplace_back(qid_base_ + i, track_[i].inflight);
      }
    }
    return counts;
  }
  for (const auto& [qid, track] : map_track_) {
    if (track.inflight > 0) counts.emplace_back(qid, track.inflight);
  }
  std::sort(counts.begin(), counts.end());
  return counts;
}

void SimState::RetireBelow(std::uint64_t floor) {
  if (floor <= qid_base_) return;
  if (backend_ == SimStateBackend::kDense) {
    const std::uint64_t drop = floor - qid_base_;
    const std::size_t claimed = static_cast<std::size_t>(std::count_if(
        track_.begin(),
        track_.begin() + static_cast<std::ptrdiff_t>(
                             std::min<std::uint64_t>(drop, track_.size())),
        [](const QidTrack& t) { return t.status == kClaimed; }));
    live_roots_ -= claimed;
    const auto drop_prefix = [drop](auto& v) {
      const std::size_t d =
          static_cast<std::size_t>(std::min<std::uint64_t>(drop, v.size()));
      v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(d));
    };
    drop_prefix(dense_table_);
    drop_prefix(state_slots_);
    drop_prefix(track_);
    retired_prefix_ = retired_prefix_ > drop
                          ? retired_prefix_ - static_cast<std::size_t>(drop)
                          : 0;
  } else {
    const auto erase_below = [floor](auto& m) {
      for (auto it = m.begin(); it != m.end();) {
        it = it->first < floor ? m.erase(it) : std::next(it);
      }
    };
    for (auto& table : map_table_) erase_below(table);
    for (const auto& [qid, state] : map_state_) {
      if (qid < floor) --live_roots_;
    }
    erase_below(map_state_);
    erase_below(map_root_);
    erase_below(map_track_);
  }
  qid_base_ = floor;
  next_qid_ = std::max(next_qid_, floor);
}

namespace {

// Section tag bracketing the SimState payload inside a checkpoint
// ("stat" in little-endian ASCII).
constexpr std::uint32_t kStateTag = 0x74617473u;

}  // namespace

void PutQueryState(CheckpointWriter& w, const QueryState& s) {
  w.PutU32(s.user);
  w.PutU32(s.query_class);
  w.PutU32(s.ring_ttl);
  w.PutDouble(s.ring_results);
  w.PutDouble(s.submit_time);
  w.PutBool(s.first_response_seen);
}

QueryState GetQueryState(CheckpointReader& r) {
  QueryState s;
  s.user = r.GetU32();
  s.query_class = r.GetU32();
  s.ring_ttl = r.GetU32();
  s.ring_results = r.GetDouble();
  s.submit_time = r.GetDouble();
  s.first_response_seen = r.GetBool();
  return s;
}

void SimState::SaveTo(CheckpointWriter& w) const {
  const bool dense = backend_ == SimStateBackend::kDense;

  // Every list below is collected then canonically sorted, so the bytes
  // are a function of the logical contents alone — identical across
  // backends and across the dense tables' probe layouts.
  struct SeenEntry {
    std::uint64_t qid;
    std::uint64_t cluster;
    std::uint32_t upstream;
  };
  std::vector<SeenEntry> seen;
  if (dense) {
    for (std::size_t i = 0; i < dense_table_.size(); ++i) {
      dense_table_[i].ForEach(
          [&](std::uint64_t cluster, const std::uint32_t& upstream) {
            seen.push_back({qid_base_ + i, cluster, upstream});
          });
    }
  } else {
    for (std::size_t c = 0; c < map_table_.size(); ++c) {
      for (const auto& [qid, upstream] : map_table_[c]) {
        seen.push_back({qid, c, upstream});
      }
    }
  }
  std::sort(seen.begin(), seen.end(), [](const SeenEntry& a,
                                         const SeenEntry& b) {
    return a.qid != b.qid ? a.qid < b.qid : a.cluster < b.cluster;
  });

  std::vector<std::pair<std::uint64_t, QueryState>> states;
  if (dense) {
    for (std::size_t i = 0; i < track_.size(); ++i) {
      if (track_[i].status == kClaimed) {
        states.emplace_back(qid_base_ + i, state_slots_[i]);
      }
    }
  } else {
    states.assign(map_state_.begin(), map_state_.end());
  }
  std::sort(states.begin(), states.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;
  if (dense) {
    for (std::size_t i = 0; i < track_.size(); ++i) {
      if (track_[i].root != kNoRoot) {
        roots.emplace_back(qid_base_ + i, track_[i].root);
      }
    }
  } else {
    roots.assign(map_root_.begin(), map_root_.end());
  }
  std::sort(roots.begin(), roots.end());

  // The next qid bounds every qid in the section (LoadFrom rejects one
  // at or above it). States that address qids without minting them
  // still save a bound that covers them.
  std::uint64_t next = std::max(next_qid_, retire_floor());
  if (!seen.empty()) next = std::max(next, seen.back().qid + 1);
  if (!states.empty()) next = std::max(next, states.back().first + 1);
  for (const auto& [qid, root] : roots) {
    next = std::max(next, std::max(qid, root) + 1);
  }
  w.BeginSection(kStateTag);
  w.PutU64(retire_floor());
  w.PutU64(next);
  w.PutU64(duplicate_entries_);
  w.PutU64(num_clusters_);
  w.PutU64(seen.size());
  for (const SeenEntry& e : seen) {
    w.PutU64(e.qid);
    w.PutU64(e.cluster);
    w.PutU32(e.upstream);
  }
  w.PutU64(states.size());
  for (const auto& [qid, state] : states) {
    w.PutU64(qid);
    PutQueryState(w, state);
  }
  w.PutU64(roots.size());
  for (const auto& [qid, root] : roots) {
    w.PutU64(qid);
    w.PutU64(root);
  }
}

bool SimState::LoadFrom(CheckpointReader& r) {
  SPPNET_CHECK(duplicate_entries_ == 0 && qid_base_ == 0 && next_qid_ == 0);
  if (!r.BeginSection(kStateTag)) return false;
  const std::uint64_t floor = r.GetU64();
  const std::uint64_t next = r.GetU64();
  const std::uint64_t saved_duplicates = r.GetU64();
  const std::uint64_t clusters = r.GetU64();
  if (!r.ok() || clusters > kMaxClusters || next < floor ||
      next - floor > kMaxQidWindow) {
    return false;
  }
  qid_base_ = floor;
  next_qid_ = next;
  EnsureClusters(static_cast<std::size_t>(clusters));
  const auto in_window = [floor, next](std::uint64_t qid) {
    return qid >= floor && qid < next;
  };

  const std::uint64_t num_seen = r.GetU64();
  for (std::uint64_t i = 0; i < num_seen && r.ok(); ++i) {
    const std::uint64_t qid = r.GetU64();
    const std::uint64_t cluster = r.GetU64();
    const std::uint32_t upstream = r.GetU32();
    if (!in_window(qid) || cluster >= clusters) return false;
    if (r.ok()) MarkSeen(static_cast<std::size_t>(cluster), qid, upstream);
  }

  const std::uint64_t num_states = r.GetU64();
  for (std::uint64_t i = 0; i < num_states && r.ok(); ++i) {
    const std::uint64_t qid = r.GetU64();
    const QueryState state = GetQueryState(r);
    if (!in_window(qid) || Find(qid) != nullptr) return false;
    if (r.ok()) Claim(qid) = state;
  }

  const std::uint64_t num_roots = r.GetU64();
  for (std::uint64_t i = 0; i < num_roots && r.ok(); ++i) {
    const std::uint64_t qid = r.GetU64();
    const std::uint64_t root = r.GetU64();
    if (!in_window(qid) || !in_window(root)) return false;
    if (r.ok()) SetRoot(qid, root);
  }

  // The tally counts historical inserts (including since-retired
  // entries), not the live set the loop above re-inserted.
  duplicate_entries_ = saved_duplicates;
  return r.ok();
}

std::size_t SimState::ApproxScratchBytes() const {
  std::size_t bytes = 0;
  if (backend_ == SimStateBackend::kDense) {
    for (const auto& table : dense_table_) bytes += table.ApproxMemoryBytes();
    bytes += dense_table_.capacity() * sizeof(dense_table_[0]);
    bytes += state_slots_.capacity() * sizeof(QueryState);
    bytes += track_.capacity() * sizeof(QidTrack);
    return bytes;
  }
  for (const auto& table : map_table_) {
    bytes += table.size() * MapEntryBytes<std::uint64_t, std::uint32_t>();
  }
  bytes += map_table_.capacity() * sizeof(map_table_[0]);
  bytes += map_state_.size() * MapEntryBytes<std::uint64_t, QueryState>();
  bytes += map_root_.size() * MapEntryBytes<std::uint64_t, std::uint64_t>();
  for (const auto& [qid, track] : map_track_) {
    bytes += MapEntryBytes<std::uint64_t, MapTrack>() +
             track.clusters.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace sppnet
