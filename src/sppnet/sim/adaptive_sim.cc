#include "sppnet/sim/adaptive_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "sppnet/common/check.h"
#include "sppnet/workload/election.h"

namespace sppnet {
namespace {

/// Rule III accepts a shorter TTL when it preserves at least this
/// fraction of the mean reach — the same threshold the offline
/// controller applies to the evaluator's mean_reach.
constexpr double kReachRetention = 0.98;

/// Random peering attempts per under-degree super-peer per round
/// (mirrors the offline controller's budget).
constexpr int kPeeringAttempts = 8;

/// Decision rounds a slot sits out rule I after a split or coalesce
/// touched it: one round covers the measurement window that contains
/// the structural change's re-upload storm.
constexpr std::uint8_t kSettleRounds = 1;

/// Consecutive over/under-threshold windows before rule I acts. Window
/// loads are Poisson-noisy; requiring agreement across windows squares
/// away one-window spikes (p -> p^2) that would otherwise churn
/// membership at the thresholds indefinitely.
constexpr std::uint8_t kSustainRounds = 2;

}  // namespace

void AdaptivePlan::Validate() const {
  SPPNET_CHECK_MSG(
      std::isfinite(probe_interval_seconds) && probe_interval_seconds >= 0.0,
      "probe interval must be finite and >= 0");
  SPPNET_CHECK_MSG(std::isfinite(decision_interval_seconds) &&
                       decision_interval_seconds > 0.0,
                   "decision interval must be finite and > 0");
  if (!enabled()) return;
  SPPNET_CHECK_MSG(probe_interval_seconds <= decision_interval_seconds,
                   "probe interval must not exceed the decision interval");
  policy.Validate();
}

AdaptiveController::AdaptiveController(const NetworkInstance& instance,
                                       const LocalPolicy& policy,
                                       std::uint64_t sim_seed)
    : policy_(policy), rng_(sim_seed ^ AdaptivePlan::kStreamSalt) {
  policy_.Validate();
  SPPNET_CHECK_MSG(instance.redundancy_k == 1,
                   "in-sim adaptation models non-redundant clusters");
  const std::size_t n = instance.NumClusters();
  const std::size_t num_clients = instance.TotalClients();
  const std::size_t total = n + num_clients;

  node_cluster_.resize(total);
  is_head_.assign(total, 0);
  files_.resize(total);
  head_.resize(n);
  members_.resize(n);
  adj_.resize(n);
  dead_.assign(n, 0);
  cooldown_.assign(n, 0);
  over_streak_.assign(n, 0);
  under_streak_.assign(n, 0);
  cap_over_streak_.assign(n, 0);
  files_sum_.assign(n, 0.0);
  reports_.resize(n);
  live_clusters_ = n;

  for (std::size_t i = 0; i < n; ++i) {
    const auto h = static_cast<std::uint32_t>(i);  // k == 1: head id == i.
    head_[i] = h;
    node_cluster_[h] = h;
    is_head_[h] = 1;
    files_[h] = static_cast<double>(instance.partner_files[i]);
    files_sum_[i] = files_[h];
    members_[i].reserve(instance.client_offset[i + 1] -
                        instance.client_offset[i]);
    for (std::size_t c = instance.client_offset[i];
         c < instance.client_offset[i + 1]; ++c) {
      const auto node = static_cast<std::uint32_t>(n + c);
      members_[i].push_back(node);
      node_cluster_[node] = static_cast<std::uint32_t>(i);
      files_[node] = static_cast<double>(instance.client_files[c]);
      files_sum_[i] += files_[node];
    }
    if (instance.topology.is_complete()) {
      for (std::uint32_t v = 0; v < n; ++v) {
        if (v != i) adj_[i].insert(v);
      }
    } else {
      for (const NodeId v :
           instance.topology.graph().Neighbors(static_cast<NodeId>(i))) {
        adj_[i].insert(static_cast<std::uint32_t>(v));
      }
    }
  }
}

double AdaptiveController::AvgOutdegree() const {
  if (live_clusters_ == 0) return 0.0;
  std::size_t sum = 0;
  for (std::size_t i = 0; i < adj_.size(); ++i) {
    if (!dead_[i]) sum += adj_[i].size();
  }
  return static_cast<double>(sum) / static_cast<double>(live_clusters_);
}

void AdaptiveController::MoveClient(std::uint32_t node,
                                    std::size_t to_cluster) {
  SPPNET_CHECK(!is_head_[node]);
  SPPNET_CHECK(!dead_[to_cluster]);
  const std::size_t from = node_cluster_[node];
  auto& src = members_[from];
  src.erase(std::find(src.begin(), src.end(), node));
  files_sum_[from] -= files_[node];
  members_[to_cluster].push_back(node);
  files_sum_[to_cluster] += files_[node];
  node_cluster_[node] = static_cast<std::uint32_t>(to_cluster);
}

void AdaptiveController::SetCapacityView(std::vector<PeerCapacity> capacities,
                                         double overload_utilization,
                                         bool aware_election,
                                         bool demote_overloaded) {
  SPPNET_CHECK_MSG(capacities.size() == files_.size(),
                   "capacity view must cover every node id");
  SPPNET_CHECK_MSG(overload_utilization > 0.0,
                   "overload utilization threshold must be > 0");
  capacities_ = std::move(capacities);
  cap_overload_util_ = overload_utilization;
  cap_aware_election_ = aware_election;
  cap_demote_ = demote_overloaded;
}

void AdaptiveController::RecordReport(std::size_t observer,
                                      std::size_t reporter, double total_bps,
                                      double proc_hz) {
  if (dead_[observer]) return;
  auto& slot = reports_[observer];
  for (NeighborReport& r : slot) {
    if (r.reporter == reporter) {
      r.total_bps = total_bps;
      r.proc_hz = proc_hz;
      r.round = rounds_completed_;
      return;
    }
  }
  NeighborReport fresh;
  fresh.reporter = static_cast<std::uint32_t>(reporter);
  fresh.total_bps = total_bps;
  fresh.proc_hz = proc_hz;
  fresh.round = rounds_completed_;
  slot.push_back(fresh);
}

const AdaptiveController::NeighborReport* AdaptiveController::FreshReport(
    std::size_t observer, std::uint32_t reporter) const {
  for (const NeighborReport& r : reports_[observer]) {
    if (r.reporter == reporter && r.round == rounds_completed_) return &r;
  }
  return nullptr;
}

void AdaptiveController::SplitCluster(std::size_t i, RoundActions& actions) {
  SPPNET_CHECK(members_[i].size() >= 2);

  // Promote the most capable member. With a capacity-aware view the
  // election ranks by the sampled capacities (workload/election.h);
  // the blind path keeps the historical largest-collection proxy. Both
  // are strictly-greater scans keeping the first maximum, matching the
  // offline controller. NOTE: no reference into members_ may be held
  // across the emplace_back growth below — it reallocates.
  std::size_t best = 0;
  if (cap_aware_election_) {
    best = BestCandidate(members_[i], capacities_);
  } else {
    for (std::size_t c = 1; c < members_[i].size(); ++c) {
      if (files_[members_[i][c]] > files_[members_[i][best]]) best = c;
    }
  }
  const std::uint32_t promoted = members_[i][best];
  members_[i].erase(members_[i].begin() + static_cast<std::ptrdiff_t>(best));
  files_sum_[i] -= files_[promoted];

  const auto fresh_id = static_cast<std::uint32_t>(head_.size());
  const auto self_id = static_cast<std::uint32_t>(i);
  head_.push_back(promoted);
  members_.emplace_back();
  adj_.emplace_back();
  dead_.push_back(0);
  cooldown_.push_back(kSettleRounds);
  over_streak_.push_back(0);
  under_streak_.push_back(0);
  cap_over_streak_.push_back(0);
  files_sum_.push_back(files_[promoted]);
  reports_.emplace_back();
  ++live_clusters_;
  cooldown_[i] = kSettleRounds;
  over_streak_[i] = 0;
  under_streak_[i] = 0;
  cap_over_streak_[i] = 0;
  is_head_[promoted] = 1;
  node_cluster_[promoted] = fresh_id;

  SplitAction action;
  action.cluster = self_id;
  action.new_cluster = fresh_id;
  action.promoted = promoted;

  // Move every second member (index parity over the post-promotion
  // list, like the offline controller's client split).
  std::vector<std::uint32_t> stay;
  stay.reserve(members_[i].size() / 2 + 1);
  for (std::size_t c = 0; c < members_[i].size(); ++c) {
    const std::uint32_t node = members_[i][c];
    if (c % 2 == 0) {
      stay.push_back(node);
    } else {
      members_[fresh_id].push_back(node);
      node_cluster_[node] = fresh_id;
      files_sum_[i] -= files_[node];
      files_sum_[fresh_id] += files_[node];
      action.moved.push_back(node);
    }
  }
  members_[i] = std::move(stay);

  // Move every second neighbor edge to the new cluster and link the
  // halves so the overlay stays connected.
  std::set<std::uint32_t> keep;
  std::size_t idx = 0;
  for (const std::uint32_t nb : adj_[i]) {
    if (idx++ % 2 == 0) {
      keep.insert(nb);
    } else {
      adj_[fresh_id].insert(nb);
      adj_[nb].erase(self_id);
      adj_[nb].insert(fresh_id);
    }
  }
  keep.insert(fresh_id);
  adj_[fresh_id].insert(self_id);
  adj_[i] = std::move(keep);

  actions.splits.push_back(std::move(action));
}

void AdaptiveController::CoalesceClusters(std::size_t into, std::size_t from,
                                          RoundActions& actions) {
  SPPNET_CHECK(into != from);
  CoalesceAction action;
  action.into = static_cast<std::uint32_t>(into);
  action.from = static_cast<std::uint32_t>(from);
  action.resigned_head = head_[from];

  // The resigning head becomes an ordinary member of the survivor.
  const std::uint32_t resigned = head_[from];
  is_head_[resigned] = 0;
  node_cluster_[resigned] = static_cast<std::uint32_t>(into);
  members_[into].push_back(resigned);
  files_sum_[into] += files_[resigned];

  for (const std::uint32_t node : members_[from]) {
    node_cluster_[node] = static_cast<std::uint32_t>(into);
    members_[into].push_back(node);
    files_sum_[into] += files_[node];
    action.moved.push_back(node);
  }
  members_[from].clear();

  const auto into_id = static_cast<std::uint32_t>(into);
  const auto from_id = static_cast<std::uint32_t>(from);
  for (const std::uint32_t nb : adj_[from]) {
    if (nb == into_id) continue;
    adj_[nb].erase(from_id);
    adj_[nb].insert(into_id);
    adj_[into].insert(nb);
  }
  adj_[into].erase(from_id);
  adj_[from].clear();
  head_[from] = kNoHead;
  files_sum_[from] = 0.0;
  reports_[from].clear();
  dead_[from] = 1;
  cooldown_[from] = 0;
  cooldown_[into] = kSettleRounds;
  over_streak_[from] = under_streak_[from] = 0;
  over_streak_[into] = under_streak_[into] = 0;
  cap_over_streak_[from] = cap_over_streak_[into] = 0;
  --live_clusters_;

  actions.coalesces.push_back(std::move(action));
}

bool AdaptiveController::DemoteHead(std::size_t i, RoundActions& actions) {
  if (members_[i].empty()) return false;
  const std::uint32_t old_head = head_[i];
  const std::size_t best = BestCandidate(members_[i], capacities_);
  const std::uint32_t new_head = members_[i][best];
  // Only a strictly more capable member may take over: an overloaded
  // cluster of uniformly weak peers gains nothing from reshuffling,
  // and the strictness keeps the rule from oscillating between peers
  // of equal rank.
  if (!CapacityRankHigher(capacities_[new_head], capacities_[old_head])) {
    return false;
  }
  members_[i].erase(members_[i].begin() + static_cast<std::ptrdiff_t>(best));
  members_[i].push_back(old_head);
  is_head_[old_head] = 0;
  is_head_[new_head] = 1;
  head_[i] = new_head;
  // Same node set, so files_sum_ and node_cluster_ are unchanged; the
  // re-upload storm still makes the next window unrepresentative.
  cooldown_[i] = kSettleRounds;
  over_streak_[i] = under_streak_[i] = cap_over_streak_[i] = 0;

  DemoteAction action;
  action.cluster = static_cast<std::uint32_t>(i);
  action.old_head = old_head;
  action.new_head = new_head;
  actions.demotes.push_back(action);
  return true;
}

double AdaptiveController::MeanReach(int ttl) const {
  // Files-weighted BFS reach over the live overlay: from each live
  // cluster, the total shared files within `ttl` hops (self included).
  // A deterministic stand-in for the evaluator's mean_reach — the two
  // agree on whether dropping one hop loses coverage, which is all
  // rule III asks.
  if (live_clusters_ == 0 || ttl < 0) return 0.0;
  const std::size_t slots = head_.size();
  double total = 0.0;
  std::vector<int> depth(slots);
  std::deque<std::uint32_t> frontier;
  for (std::size_t src = 0; src < slots; ++src) {
    if (dead_[src]) continue;
    std::fill(depth.begin(), depth.end(), -1);
    frontier.clear();
    depth[src] = 0;
    frontier.push_back(static_cast<std::uint32_t>(src));
    double reach = files_sum_[src];
    while (!frontier.empty()) {
      const std::uint32_t u = frontier.front();
      frontier.pop_front();
      if (depth[u] >= ttl) continue;
      for (const std::uint32_t v : adj_[u]) {
        if (dead_[v] || depth[v] >= 0) continue;
        depth[v] = depth[u] + 1;
        reach += files_sum_[v];
        frontier.push_back(v);
      }
    }
    total += reach;
  }
  return total / static_cast<double>(live_clusters_);
}

AdaptiveController::RoundActions AdaptiveController::RunRound(
    const std::vector<LoadSample>& own_loads, int current_ttl) {
  SPPNET_CHECK(own_loads.size() == head_.size());
  RoundActions actions;
  actions.new_ttl = current_ttl;
  const std::size_t n_before = head_.size();

  // --- Rule I: classify live clusters on their own window loads ----------
  // The capacity rule classifies in the same pass: a head sustained
  // above its own overload-utilization threshold becomes a demotion
  // candidate (applied after the structural rules below).
  std::vector<std::size_t> overloaded;
  std::vector<std::size_t> underloaded;
  std::vector<std::size_t> cap_overloaded;
  for (std::size_t i = 0; i < n_before; ++i) {
    if (dead_[i]) continue;
    if (!own_loads[i].valid) {
      // Head down this round: no evidence either way.
      over_streak_[i] = under_streak_[i] = cap_over_streak_[i] = 0;
      continue;
    }
    if (cooldown_[i] > 0) {
      // Settling after a structural change: this window still carries
      // the re-upload storm, so the sample is not steady-state.
      --cooldown_[i];
      over_streak_[i] = under_streak_[i] = cap_over_streak_[i] = 0;
      continue;
    }
    const LoadSample& s = own_loads[i];
    const bool over = policy_.Overloaded(s.total_bps, s.proc_hz);
    const bool under = policy_.Underloaded(s.total_bps, s.proc_hz);
    over_streak_[i] =
        over ? static_cast<std::uint8_t>(
                   std::min<int>(over_streak_[i] + 1, kSustainRounds))
             : std::uint8_t{0};
    under_streak_[i] =
        under ? static_cast<std::uint8_t>(
                    std::min<int>(under_streak_[i] + 1, kSustainRounds))
              : std::uint8_t{0};
    if (cap_demote_) {
      const bool cap_over =
          UtilizationOf(capacities_[head_[i]], s.in_bps, s.out_bps,
                        s.proc_hz) > cap_overload_util_;
      cap_over_streak_[i] =
          cap_over ? static_cast<std::uint8_t>(
                         std::min<int>(cap_over_streak_[i] + 1, kSustainRounds))
                   : std::uint8_t{0};
      if (cap_over_streak_[i] >= kSustainRounds) cap_overloaded.push_back(i);
    }
    if (over_streak_[i] >= kSustainRounds && members_[i].size() >= 2) {
      overloaded.push_back(i);
    } else if (under_streak_[i] >= kSustainRounds) {
      underloaded.push_back(i);
    }
  }
  for (const std::size_t i : overloaded) SplitCluster(i, actions);

  // Greedy coalescing of adjacent underloaded pairs: a merge needs a
  // fresh load report from the neighbor (no acting on stale numbers)
  // and must fit the survivor's bandwidth limit.
  std::vector<bool> consumed(head_.size(), false);
  for (const std::size_t i : underloaded) {
    if (consumed[i] || dead_[i]) continue;
    for (const std::uint32_t nb : adj_[i]) {
      if (nb >= n_before || consumed[nb] || dead_[nb]) continue;
      if (cooldown_[nb] > 0) continue;  // Partner is still settling.
      // A merge needs a live counterpart: no sample means the
      // neighbor's head is down this round.
      if (!own_loads[nb].valid) continue;
      const NeighborReport* report = FreshReport(i, nb);
      if (report == nullptr) continue;
      if (!policy_.Underloaded(report->total_bps, report->proc_hz)) continue;
      if (!policy_.CoalesceFits(own_loads[i].total_bps + report->total_bps)) {
        continue;
      }
      CoalesceClusters(i, nb, actions);
      consumed[i] = consumed[nb] = true;
      break;
    }
  }

  // --- Capacity rule: replace sustained-overloaded heads -----------------
  // Runs after the structural rules so a cluster split or merged this
  // round (cooldown just set) settles before any leadership change.
  for (const std::size_t i : cap_overloaded) {
    if (dead_[i] || cooldown_[i] > 0) continue;
    DemoteHead(i, actions);
  }

  // --- Rule II: grow outdegree toward the suggested value ----------------
  if (live_clusters_ > 2) {
    std::vector<std::uint32_t> live;
    live.reserve(live_clusters_);
    for (std::size_t i = 0; i < head_.size(); ++i) {
      if (!dead_[i]) live.push_back(static_cast<std::uint32_t>(i));
    }
    for (const std::uint32_t i : live) {
      if (!policy_.WantsMoreNeighbors(adj_[i].size())) continue;
      for (int attempt = 0; attempt < kPeeringAttempts; ++attempt) {
        const std::uint32_t j = live[rng_.NextBounded(live.size())];
        if (j == i || adj_[i].count(j) != 0) continue;
        if (!policy_.WantsMoreNeighbors(adj_[j].size())) continue;
        adj_[i].insert(j);
        adj_[j].insert(i);
        actions.edges.push_back({i, j});
        break;
      }
    }
  }

  // --- Rule III: shrink TTL while reach is preserved ---------------------
  if (current_ttl > 1) {
    const double with_current = MeanReach(current_ttl);
    const double with_shorter = MeanReach(current_ttl - 1);
    if (with_shorter >= kReachRetention * with_current) {
      actions.new_ttl = current_ttl - 1;
      actions.ttl_decreased = true;
    }
  }

  actions.quiescent = policy_.RoundQuiescent(
                          actions.splits.size(), actions.coalesces.size(),
                          actions.edges.size(), actions.ttl_decreased,
                          live_clusters_) &&
                      actions.demotes.empty();
  ++rounds_completed_;
  return actions;
}

namespace {

// Section tag bracketing the controller payload ("adpt").
constexpr std::uint32_t kAdaptiveTag = 0x74706461u;

}  // namespace

void AdaptiveController::SaveTo(CheckpointWriter& w) const {
  w.BeginSection(kAdaptiveTag);
  PutRng(w, rng_);
  w.PutU32Vector(node_cluster_);
  w.PutU8Vector(is_head_);
  w.PutU32Vector(head_);
  w.PutU64(members_.size());
  for (const auto& members : members_) w.PutU32Vector(members);
  w.PutU64(adj_.size());
  for (const auto& neighbors : adj_) {
    // std::set iterates ascending, so these bytes are canonical.
    w.PutU32Vector(
        std::vector<std::uint32_t>(neighbors.begin(), neighbors.end()));
  }
  w.PutU8Vector(dead_);
  w.PutU8Vector(cooldown_);
  w.PutU8Vector(over_streak_);
  w.PutU8Vector(under_streak_);
  w.PutU8Vector(cap_over_streak_);
  w.PutDoubleVector(files_sum_);
  w.PutU64(reports_.size());
  for (const auto& slot : reports_) {
    w.PutU64(slot.size());
    for (const NeighborReport& report : slot) {
      w.PutU32(report.reporter);
      w.PutDouble(report.total_bps);
      w.PutDouble(report.proc_hz);
      w.PutU64(report.round);
    }
  }
  w.PutU64(live_clusters_);
  w.PutU64(rounds_completed_);
}

bool AdaptiveController::LoadFrom(CheckpointReader& r) {
  if (!r.BeginSection(kAdaptiveTag)) return false;
  GetRng(r, rng_);
  node_cluster_ = r.GetU32Vector();
  is_head_ = r.GetU8Vector();
  head_ = r.GetU32Vector();
  const std::uint64_t num_member_slots = r.GetU64();
  members_.clear();
  for (std::uint64_t i = 0; i < num_member_slots && r.ok(); ++i) {
    members_.push_back(r.GetU32Vector());
  }
  const std::uint64_t num_adj_slots = r.GetU64();
  adj_.clear();
  for (std::uint64_t i = 0; i < num_adj_slots && r.ok(); ++i) {
    const std::vector<std::uint32_t> neighbors = r.GetU32Vector();
    adj_.emplace_back(neighbors.begin(), neighbors.end());
  }
  dead_ = r.GetU8Vector();
  cooldown_ = r.GetU8Vector();
  over_streak_ = r.GetU8Vector();
  under_streak_ = r.GetU8Vector();
  cap_over_streak_ = r.GetU8Vector();
  files_sum_ = r.GetDoubleVector();
  const std::uint64_t num_report_slots = r.GetU64();
  reports_.clear();
  for (std::uint64_t i = 0; i < num_report_slots && r.ok(); ++i) {
    const std::uint64_t count = r.GetU64();
    std::vector<NeighborReport> slot;
    for (std::uint64_t j = 0; j < count && r.ok(); ++j) {
      NeighborReport report;
      report.reporter = r.GetU32();
      report.total_bps = r.GetDouble();
      report.proc_hz = r.GetDouble();
      report.round = r.GetU64();
      slot.push_back(report);
    }
    reports_.push_back(std::move(slot));
  }
  live_clusters_ = static_cast<std::size_t>(r.GetU64());
  rounds_completed_ = r.GetU64();
  const bool shapes_ok =
      r.ok() && node_cluster_.size() == files_.size() &&
      is_head_.size() == files_.size() && head_.size() == dead_.size() &&
      members_.size() == head_.size() && adj_.size() == head_.size() &&
      cooldown_.size() == head_.size() &&
      over_streak_.size() == head_.size() &&
      under_streak_.size() == head_.size() &&
      cap_over_streak_.size() == head_.size() &&
      files_sum_.size() == head_.size() && reports_.size() == head_.size() &&
      live_clusters_ <= head_.size();
  if (!shapes_ok) return false;
  // Every stored id indexes a per-node or per-slot vector somewhere in
  // a round, so each must be in range: node ids below the node count,
  // cluster slots below the slot count.
  const std::size_t nodes = files_.size();
  const std::size_t slots = head_.size();
  const auto node_ok = [nodes](std::uint32_t v) { return v < nodes; };
  const auto slot_ok = [slots](std::uint32_t c) { return c < slots; };
  if (!std::all_of(node_cluster_.begin(), node_cluster_.end(), slot_ok)) {
    return false;
  }
  for (std::size_t i = 0; i < slots; ++i) {
    if ((head_[i] != kNoHead && !node_ok(head_[i])) ||
        !std::all_of(members_[i].begin(), members_[i].end(), node_ok) ||
        !std::all_of(adj_[i].begin(), adj_[i].end(), slot_ok) ||
        !std::all_of(reports_[i].begin(), reports_[i].end(),
                     [&](const NeighborReport& report) {
                       return slot_ok(report.reporter);
                     })) {
      return false;
    }
  }
  return true;
}

}  // namespace sppnet
