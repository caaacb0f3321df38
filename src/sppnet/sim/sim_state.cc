#include "sppnet/sim/sim_state.h"

#include <algorithm>
#include <utility>

namespace sppnet {

void SimState::EnsureClusters(std::size_t num_clusters) {
  num_clusters_ = std::max(num_clusters_, num_clusters);
}

QueryState& SimState::Claim(std::uint64_t qid) {
  SPPNET_CHECK(qid >= qid_base_);
  QidTrack& track = Track(qid);
  SPPNET_CHECK_MSG(track.status == kFresh,
                   "qid claimed twice or claimed after retirement");
  track.status = kClaimed;
  ++live_roots_;
  const std::size_t slot = SlotOf(qid);
  EnsureSlot(state_slots_, slot, QueryState{});
  state_slots_[slot] = QueryState{};
  return state_slots_[slot];
}

QueryState* SimState::Find(std::uint64_t qid) {
  const std::size_t slot = SlotOf(qid);
  if (slot >= track_.size() || track_[slot].status != kClaimed) {
    return nullptr;
  }
  return &state_slots_[slot];
}

void SimState::SetRoot(std::uint64_t qid, std::uint64_t root) {
  SPPNET_CHECK(qid >= qid_base_);
  QidTrack& track = Track(qid);
  SPPNET_CHECK_MSG(track.status != kRetired, "binding of a retired qid");
  if (track.root != kNoRoot) return;
  track.root = root;
  if (qid != root) AddRef(root);
}

std::uint64_t SimState::RootOf(std::uint64_t qid) const {
  const std::size_t slot = SlotOf(qid);
  if (slot >= track_.size() || track_[slot].root == kNoRoot) return qid;
  return track_[slot].root;
}

void SimState::RetireIfIdle(std::uint64_t qid, double now) {
  if (qid < qid_base_) return;
  const QidTrack& track = Track(qid);
  if (track.status == kRetired || track.inflight > 0) return;
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
  const std::size_t slot = SlotOf(qid);
  QidTrack& track = track_[slot];
  const std::uint64_t root = track.root;
  track = QidTrack{};
  track.status = kRetired;
  if (slot < dup_table_.size()) dup_table_[slot] = {};
  return root;
}

void SimState::RetireIdle(double now) {
  for (std::uint64_t qid = qid_base_; qid < next_qid_; ++qid) {
    RetireIfIdle(qid, now);
  }
}

void SimState::AdvanceFloor() {
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
  for (std::size_t i = 0; i < track_.size(); ++i) {
    if (track_[i].inflight > 0) {
      counts.emplace_back(qid_base_ + i, track_[i].inflight);
    }
  }
  return counts;
}

void SimState::RetireBelow(std::uint64_t floor) {
  if (floor <= qid_base_) return;
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
  drop_prefix(dup_table_);
  drop_prefix(state_slots_);
  drop_prefix(track_);
  retired_prefix_ = retired_prefix_ > drop
                        ? retired_prefix_ - static_cast<std::size_t>(drop)
                        : 0;
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
  // Every list below comes out in ascending qid order (the slot arrays
  // are qid-indexed); each duplicate table's entries are sorted by
  // cluster, so the bytes are a function of the logical contents alone,
  // never of a table's probe layout.
  struct SeenEntry {
    std::uint64_t qid;
    std::uint64_t cluster;
    std::uint32_t upstream;
  };
  std::vector<SeenEntry> seen;
  for (std::size_t i = 0; i < dup_table_.size(); ++i) {
    const std::size_t first = seen.size();
    dup_table_[i].ForEach(
        [&](std::uint64_t cluster, const std::uint32_t& upstream) {
          seen.push_back({qid_base_ + i, cluster, upstream});
        });
    std::sort(seen.begin() + static_cast<std::ptrdiff_t>(first), seen.end(),
              [](const SeenEntry& a, const SeenEntry& b) {
                return a.cluster < b.cluster;
              });
  }

  std::vector<std::pair<std::uint64_t, QueryState>> states;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;
  for (std::size_t i = 0; i < track_.size(); ++i) {
    if (track_[i].status == kClaimed) {
      states.emplace_back(qid_base_ + i, state_slots_[i]);
    }
    if (track_[i].root != kNoRoot) {
      roots.emplace_back(qid_base_ + i, track_[i].root);
    }
  }

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
  std::size_t bytes = dup_table_.capacity() * sizeof(dup_table_[0]) +
                      state_slots_.capacity() * sizeof(QueryState) +
                      track_.capacity() * sizeof(QidTrack);
  for (const auto& table : dup_table_) bytes += table.ApproxMemoryBytes();
  return bytes;
}

}  // namespace sppnet
