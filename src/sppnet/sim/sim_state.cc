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
    const std::size_t slot = SlotOf(qid);
    EnsureSlot(state_slots_, slot, QueryState{});
    EnsureSlot(state_live_, slot, std::uint8_t{0});
    SPPNET_CHECK(!state_live_[slot]);
    state_live_[slot] = 1;
    state_slots_[slot] = QueryState{};
    return state_slots_[slot];
  }
  return map_state_.try_emplace(qid).first->second;
}

QueryState* SimState::Find(std::uint64_t qid) {
  if (backend_ == SimStateBackend::kDense) {
    const std::size_t slot = SlotOf(qid);
    if (slot >= state_live_.size() || !state_live_[slot]) return nullptr;
    return &state_slots_[slot];
  }
  const auto it = map_state_.find(qid);
  return it == map_state_.end() ? nullptr : &it->second;
}

void SimState::SetRoot(std::uint64_t qid, std::uint64_t root) {
  SPPNET_CHECK(qid >= qid_base_);
  if (backend_ == SimStateBackend::kDense) {
    const std::size_t slot = SlotOf(qid);
    EnsureSlot(root_slots_, slot, kNoRoot);
    if (root_slots_[slot] == kNoRoot) root_slots_[slot] = root;
    return;
  }
  map_root_.emplace(qid, root);
}

std::uint64_t SimState::RootOf(std::uint64_t qid) const {
  if (backend_ == SimStateBackend::kDense) {
    const std::size_t slot = SlotOf(qid);
    if (slot >= root_slots_.size() || root_slots_[slot] == kNoRoot) return qid;
    return root_slots_[slot];
  }
  const auto it = map_root_.find(qid);
  return it == map_root_.end() ? qid : it->second;
}

void SimState::RetireBelow(std::uint64_t floor) {
  if (floor <= qid_base_) return;
  if (backend_ == SimStateBackend::kDense) {
    const std::uint64_t drop = floor - qid_base_;
    const auto drop_prefix = [drop](auto& v) {
      const std::size_t d =
          static_cast<std::size_t>(std::min<std::uint64_t>(drop, v.size()));
      v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(d));
    };
    drop_prefix(dense_table_);
    drop_prefix(state_slots_);
    drop_prefix(state_live_);
    drop_prefix(root_slots_);
  } else {
    const auto erase_below = [floor](auto& m) {
      for (auto it = m.begin(); it != m.end();) {
        it = it->first < floor ? m.erase(it) : std::next(it);
      }
    };
    for (auto& table : map_table_) erase_below(table);
    erase_below(map_state_);
    erase_below(map_root_);
  }
  qid_base_ = floor;
}

namespace {

// Section tag bracketing the SimState payload inside a checkpoint
// ("stat" in little-endian ASCII).
constexpr std::uint32_t kStateTag = 0x74617473u;

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

}  // namespace

void SimState::SaveTo(CheckpointWriter& w) const {
  w.BeginSection(kStateTag);
  w.PutU64(qid_base_);
  w.PutU64(duplicate_entries_);
  w.PutU64(num_clusters_);
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
  w.PutU64(seen.size());
  for (const SeenEntry& e : seen) {
    w.PutU64(e.qid);
    w.PutU64(e.cluster);
    w.PutU32(e.upstream);
  }

  std::vector<std::pair<std::uint64_t, QueryState>> states;
  if (dense) {
    for (std::size_t i = 0; i < state_live_.size(); ++i) {
      if (state_live_[i]) states.emplace_back(qid_base_ + i, state_slots_[i]);
    }
  } else {
    states.assign(map_state_.begin(), map_state_.end());
  }
  std::sort(states.begin(), states.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.PutU64(states.size());
  for (const auto& [qid, state] : states) {
    w.PutU64(qid);
    PutQueryState(w, state);
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;
  if (dense) {
    for (std::size_t i = 0; i < root_slots_.size(); ++i) {
      if (root_slots_[i] != kNoRoot) {
        roots.emplace_back(qid_base_ + i, root_slots_[i]);
      }
    }
  } else {
    roots.assign(map_root_.begin(), map_root_.end());
  }
  std::sort(roots.begin(), roots.end());
  w.PutU64(roots.size());
  for (const auto& [qid, root] : roots) {
    w.PutU64(qid);
    w.PutU64(root);
  }
}

bool SimState::LoadFrom(CheckpointReader& r) {
  SPPNET_CHECK(duplicate_entries_ == 0 && qid_base_ == 0);
  if (!r.BeginSection(kStateTag)) return false;
  qid_base_ = r.GetU64();
  const std::uint64_t saved_duplicates = r.GetU64();
  EnsureClusters(static_cast<std::size_t>(r.GetU64()));

  const std::uint64_t num_seen = r.GetU64();
  for (std::uint64_t i = 0; i < num_seen && r.ok(); ++i) {
    const std::uint64_t qid = r.GetU64();
    const std::size_t cluster = static_cast<std::size_t>(r.GetU64());
    const std::uint32_t upstream = r.GetU32();
    if (r.ok()) MarkSeen(cluster, qid, upstream);
  }

  const std::uint64_t num_states = r.GetU64();
  for (std::uint64_t i = 0; i < num_states && r.ok(); ++i) {
    const std::uint64_t qid = r.GetU64();
    const QueryState state = GetQueryState(r);
    if (r.ok()) Claim(qid) = state;
  }

  const std::uint64_t num_roots = r.GetU64();
  for (std::uint64_t i = 0; i < num_roots && r.ok(); ++i) {
    const std::uint64_t qid = r.GetU64();
    const std::uint64_t root = r.GetU64();
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
    bytes += state_live_.capacity();
    bytes += root_slots_.capacity() * sizeof(std::uint64_t);
    return bytes;
  }
  for (const auto& table : map_table_) {
    bytes += table.size() * MapEntryBytes<std::uint64_t, std::uint32_t>();
  }
  bytes += map_table_.capacity() * sizeof(map_table_[0]);
  bytes += map_state_.size() * MapEntryBytes<std::uint64_t, QueryState>();
  bytes += map_root_.size() * MapEntryBytes<std::uint64_t, std::uint64_t>();
  return bytes;
}

}  // namespace sppnet
