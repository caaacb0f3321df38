#include "sppnet/sim/simulator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sppnet/bootstrap/discovery.h"
#include "sppnet/common/check.h"
#include "sppnet/common/rng.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/obs/shard_merge.h"
#include "sppnet/sim/event_queue.h"
#include "sppnet/sim/faults.h"
#include "sppnet/sim/sharded_sim.h"
#include "sppnet/sim/sim_state.h"
#include "sppnet/workload/capacity.h"

namespace sppnet {
namespace {

// Event kinds.
enum : std::uint32_t {
  kQuerySubmit = 0,
  kQueryArrive,
  kResponseArrive,
  kJoinSubmit,
  kJoinArrive,
  kUpdateSubmit,
  kUpdateArrive,
  kPartnerFail,
  kPartnerRecover,
  kWalkArrive,     // Random-walk query hop.
  kRingCheck,      // Expanding-ring satisfaction probe.
  kPartnerCrash,   // Injected mid-session crash clock (fault layer).
  kRequestCheck,   // Per-request timeout probe (recovery protocol).
  kRetrySubmit,    // Backed-off query retry (recovery protocol).
  kAdaptProbeTick,     // Periodic load-probe sweep (adaptation layer).
  kAdaptProbeArrive,   // LoadProbe delivery to a super-peer.
  kAdaptReportArrive,  // LoadReport delivery back to the prober.
  kAdaptRound,         // Decision round: rules I-III on window loads.
  kAdaptTtlArrive,     // TtlUpdate broadcast delivery.
  kTraceQuerySubmit,   // Externally fed (trace-replay) query submission:
                       // same submission path as kQuerySubmit, but does
                       // not reschedule a Poisson clock.
  // Sharded-discipline kinds (DESIGN.md §12), appended so every legacy
  // value — and therefore every legacy checkpoint payload — is
  // unchanged. A sharded run addresses query traffic to the receiving
  // CLUSTER (e.node is a cluster id) and resolves the round-robin
  // partner on the receiver's shard, which owns that cluster's rr_
  // cursor; the legacy engine never schedules these.
  kClusterQueryArrive,  // Flood/ring query hop addressed to a cluster.
  kClusterWalkLaunch,   // Walk submission hop: resolve source, launch
                        // the walkers from the receiving cluster.
  kClusterWalkArrive,   // Random-walk hop addressed to a cluster.
  kRejoinRequest,       // Control-time client rejoin: a data-phase
                        // submission found its cluster dark and defers
                        // the membership mutation to the barrier.
  kDigestRefresh,       // Periodic routing-digest re-announcement round
                        // (content-aware routing; legacy engine only —
                        // Validate() rejects routing + sharding).
  // Index-consistency kinds (DESIGN.md §14; legacy engine only —
  // Validate() rejects consistency + sharding). Appended so every
  // pre-consistency value, and therefore every legacy checkpoint
  // payload, is unchanged.
  kMetadataChange,      // Per-client Poisson metadata-change clock.
  kInvalidateArrive,    // InvalidateMessage delivery (push scheme).
  kRefreshPollTick,     // Per-cluster TTR poll round (pull scheme).
  kRefreshReplyArrive,  // Batched RefreshReply delivery (pull scheme).
  // Capacity kind (DESIGN.md §15; legacy engine only — Validate()
  // rejects capacity + sharding). Appended last for the same
  // checkpoint-compatibility reason as the consistency kinds.
  kCapacityWindow,  // Periodic utilization-window close (capacity plan).
};

// Wire message classes for the observability counters. Every
// accounted send/receive names its class so the per-type counters
// reconcile with the byte accounting by construction.
enum class Msg : std::size_t {
  kQuery = 0,
  kResponse,
  kJoin,
  kUpdate,
  kProbe,    // Adaptation: LoadProbe control message.
  kReport,   // Adaptation: LoadReport control message.
  kControl,  // Adaptation: TtlUpdate control message.
  kDigest,   // Routing: DigestAnnounce control message.
  kInvalidate,  // Consistency: InvalidateMessage (push scheme).
  kPoll,        // Consistency: RefreshPollMessage (pull scheme).
  kRefresh,     // Consistency: RefreshReplyMessage (pull scheme).
  kReplica,     // Consistency: ReplicaPushMessage (replication).
};
/// Message classes of the base protocol; their counters are always
/// published. The adaptation, routing and consistency classes above
/// are published only for active plans, keeping the inactive registry
/// surface unchanged.
inline constexpr std::size_t kNumBaseMsgTypes = 4;
inline constexpr std::size_t kNumAdaptMsgTypes = 7;
inline constexpr std::size_t kNumMsgTypes = 12;
inline constexpr const char* kMsgNames[kNumMsgTypes] = {
    "query",  "response", "join",    "update",
    "probe",  "report",   "control", "digest",
    "invalidate", "poll", "refresh", "replica"};

// Sentinel "upstream" marking a query submitted by the super-peer's own
// user: results are consumed locally and no submission hop exists.
constexpr std::uint32_t kSelfUpstream = 0xffffffffu;

// The routing-index layer is active when a routed strategy demands it
// or when the options enable it explicitly (digest pruning on top of
// flood / expanding-ring refinement).
bool RoutingActive(const SimOptions& options) {
  return options.routing.enabled() ||
         options.strategy == SearchStrategy::kRoutedFlood ||
         options.strategy == SearchStrategy::kWalker;
}

// Query payload packing: b = upstream(32) | class(24) | ttl(8).
std::uint64_t PackQuery(std::uint32_t upstream, std::uint32_t query_class,
                        std::uint32_t ttl) {
  return (static_cast<std::uint64_t>(upstream) << 32) |
         (static_cast<std::uint64_t>(query_class & 0xffffffu) << 8) |
         static_cast<std::uint64_t>(ttl & 0xffu);
}

// Response payload packing: b = results(32) | addrs(16) | hops(16).
std::uint64_t PackResponse(std::uint32_t results, std::uint32_t addrs,
                           std::uint32_t hops) {
  return (static_cast<std::uint64_t>(results) << 32) |
         (static_cast<std::uint64_t>(addrs & 0xffffu) << 16) |
         static_cast<std::uint64_t>(hops & 0xffffu);
}

std::uint32_t SampleBinomialApprox(double n, double p, Rng& rng) {
  const double lambda = n * p;
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth's Poisson sampler; an accurate stand-in for Binomial(n, p)
    // when p is tiny (selection powers are ~1e-4).
    const double limit = std::exp(-lambda);
    double prod = 1.0;
    std::uint32_t k = 0;
    do {
      ++k;
      prod *= rng.NextDouble();
    } while (prod > limit);
    return k - 1;
  }
  const double sigma = std::sqrt(lambda * (1.0 - p));
  const double x = std::llround(lambda + sigma * rng.NextGaussian());
  return x <= 0.0 ? 0u : static_cast<std::uint32_t>(x);
}

// Buckets of the per-response overlay-hop histogram: one bucket per
// hop count 0..15 plus overflow (TTLs in every experiment are <= 8).
std::vector<double> HopHistogramBounds() {
  std::vector<double> bounds(16);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    bounds[i] = static_cast<double>(i);
  }
  return bounds;
}

// Buckets for the client recovery-latency histogram (seconds from an
// orphaning outage to re-connection): roughly geometric, spanning
// sub-recovery-time episodes up to long multi-outage waits.
std::vector<double> RecoveryLatencyBounds() {
  return {1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0};
}

// Buckets for the orphaned-clients-per-outage histogram (cluster sizes
// in the experiments range from a handful to a few hundred clients).
std::vector<double> OrphanCountBounds() {
  return {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0};
}

// Buckets for the consistency freshness-latency histogram (seconds from
// a metadata change to the refresh clearing it): push refreshes within
// one hop latency, pull within up to a TTR period, so the buckets span
// sub-hop delays through multi-minute TTRs.
std::vector<double> FreshnessLatencyBounds() {
  return {0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0};
}

// Buckets for the super-peer utilization histogram (dimensionless
// fraction of the node's tightest capacity axis): geometric around the
// default overload point of 1.0, spanning idle modems through nodes
// driven an order of magnitude past their budget. The report's p99 is
// read off these bucket upper bounds.
std::vector<double> CapacityUtilizationBounds() {
  return {0.0625, 0.125, 0.25, 0.5, 0.75, 1.0,  1.25, 1.5,
          2.0,    3.0,   4.0,  6.0, 8.0,  12.0, 16.0};
}

// Event payloads are integers (SimEvent::a); the consistency events
// carry the change / poll-tick timestamp through its bit pattern.
std::uint64_t TimeBits(double t) { return std::bit_cast<std::uint64_t>(t); }
double BitsTime(std::uint64_t bits) { return std::bit_cast<double>(bits); }

// --- Checkpoint helpers (streaming mode; DESIGN.md §11) ---------------------

// Section tag of the simulator's own checkpoint section ("simu").
constexpr std::uint32_t kSimTag = 0x756d6973u;

// Pending events travel with their original (time, seq) keys, in the
// order the engine core hands them over.
void PutEvents(CheckpointWriter& w, const std::vector<SimEvent>& events) {
  w.PutU64(events.size());
  for (const SimEvent& e : events) {
    w.PutDouble(e.time);
    w.PutU64(e.seq);
    w.PutU32(e.kind);
    w.PutU32(e.node);
    w.PutU64(e.a);
    w.PutU64(e.b);
    w.PutDouble(e.x);
  }
}

std::vector<SimEvent> GetEvents(CheckpointReader& r) {
  const std::uint64_t count = r.GetU64();
  std::vector<SimEvent> events;
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    SimEvent e;
    e.time = r.GetDouble();
    e.seq = r.GetU64();
    e.kind = r.GetU32();
    e.node = r.GetU32();
    e.a = r.GetU64();
    e.b = r.GetU64();
    e.x = r.GetDouble();
    events.push_back(e);
  }
  return events;
}

// A sharded query container, written sorted by key: FlatMap64 iteration
// order is layout-dependent and must not leak into the payload.
template <typename V, typename PutValue>
void PutEntries(CheckpointWriter& w, const FlatMap64<V>& map,
                PutValue put_value) {
  std::vector<std::pair<std::uint64_t, V>> entries;
  entries.reserve(map.size());
  map.ForEach([&](std::uint64_t key, const V& value) {
    entries.emplace_back(key, value);
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.PutU64(entries.size());
  for (const auto& [key, value] : entries) {
    w.PutU64(key);
    put_value(value);
  }
}

template <typename V, typename GetValue>
void GetEntries(CheckpointReader& r, FlatMap64<V>& map, GetValue get_value) {
  const std::uint64_t count = r.GetU64();
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    const std::uint64_t key = r.GetU64();
    *map.FindOrInsert(key).first = get_value();
  }
}

void PutHistogram(CheckpointWriter& w, const Histogram& h) {
  w.PutU64Vector(h.bucket_counts());
  w.PutDouble(h.sum());
}

// False when the serialized bucket shape does not match `h` (the
// caller rejects the payload; RestoreContents aborts on shape drift).
bool GetHistogram(CheckpointReader& r, Histogram& h) {
  const std::vector<std::uint64_t> counts = r.GetU64Vector();
  const double sum = r.GetDouble();
  if (!r.ok() || counts.size() != h.bucket_counts().size()) return false;
  h.RestoreContents(counts, sum);
  return true;
}

}  // namespace

class Simulator::Impl {
 public:
  Impl(const NetworkInstance& instance, const Configuration& config,
       const ModelInputs& inputs, const SimOptions& options)
      : inst_(instance),
        config_(config),
        inputs_(inputs),
        options_(options),
        rng_(options.seed),
        n_(instance.NumClusters()),
        k_(static_cast<std::size_t>(instance.redundancy_k)),
        num_partners_(instance.TotalPartners()),
        num_clients_(instance.TotalClients()),
        state_(instance.NumClusters()),
        injector_(options.faults, options.seed),
        fault_active_(options.faults.enabled()),
        recovery_enabled_(fault_active_ && options.faults.TimeoutsEnabled()),
        adaptive_(options.adaptive.enabled()),
        ttl_(config.ttl),
        routing_active_(RoutingActive(options)),
        consistency_active_(options.consistency.enabled()),
        capacity_active_(options.capacity.enabled()) {
    options_.Validate();
    const auto init_start = std::chrono::steady_clock::now();
    qbytes_ = inputs.costs.QueryBytes(inputs.stats.query_length_bytes);
    sendq_ = inputs.costs.SendQueryUnits(inputs.stats.query_length_bytes);
    recvq_ = inputs.costs.RecvQueryUnits(inputs.stats.query_length_bytes);

    in_bytes_.assign(num_partners_ + num_clients_, 0.0);
    out_bytes_.assign(num_partners_ + num_clients_, 0.0);
    units_.assign(num_partners_ + num_clients_, 0.0);

    client_cluster_.resize(num_clients_);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t c = inst_.client_offset[i];
           c < inst_.client_offset[i + 1]; ++c) {
        client_cluster_[c] = static_cast<std::uint32_t>(i);
      }
    }
    conn_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) conn_[i] = inst_.PartnerConnections(i);
    client_conn_ = inst_.ClientConnections();

    partner_alive_.assign(num_partners_, true);
    alive_partners_.assign(n_, static_cast<std::uint32_t>(k_));
    outage_start_.assign(n_, -1.0);
    rr_.assign(n_, 0);

    if (options_.shards.enabled()) {
      disc_ = true;
      num_shards_ = std::min(options_.shards.num_shards, n_);
      num_threads_ = options_.shards.num_threads;
      cell_width_ = options_.hop_latency_seconds;
      lanes_ = std::vector<Lane>(num_shards_);
      retire_logs_.resize(num_shards_);
      shard_queues_.resize(num_shards_);
      // Per-domain protocol and fault streams plus one control stream,
      // all salted from the run seed. The salt spaces are disjoint by
      // construction (tag in the high 32 bits).
      proto_rngs_.reserve(n_);
      fault_rngs_.reserve(n_);
      for (std::size_t d = 0; d < n_; ++d) {
        proto_rngs_.push_back(
            Rng::Salted(options_.seed, ShardPlan::kProtoStreamSalt | d));
        fault_rngs_.push_back(
            Rng::Salted(options_.seed, ShardPlan::kFaultStreamSalt | d));
      }
      ctl_rng_ = Rng::Salted(options_.seed, ShardPlan::kCtlStreamSalt);
      ctr_dom_.assign(n_, 0);
      user_qid_ctr_.assign(num_partners_ + num_clients_, 0);
      disc_dup_.resize(n_);
      disc_state_.resize(n_);
      disc_root_.resize(n_);
      latency_by_dom_.assign(n_, 0.0);
      pool_ = std::make_unique<ShardPool>(num_shards_, num_threads_);
    }

    if (fault_active_) {
      // Mutable membership: clients can re-join other clusters via
      // discovery, so cluster composition diverges from the instance
      // layout. Member lists keep insertion order — iteration (and
      // therefore the event stream) is deterministic.
      client_current_cluster_ = client_cluster_;
      cluster_members_.resize(n_);
      for (std::size_t i = 0; i < n_; ++i) {
        cluster_members_[i].reserve(inst_.client_offset[i + 1] -
                                    inst_.client_offset[i]);
        for (std::size_t c = inst_.client_offset[i];
             c < inst_.client_offset[i + 1]; ++c) {
          cluster_members_[i].push_back(static_cast<std::uint32_t>(c));
        }
      }
      orphaned_since_.assign(num_clients_, -1.0);
    }

    if (adaptive_) {
      SPPNET_CHECK_MSG(k_ == 1,
                       "in-sim adaptation requires redundancy_k == 1");
      adaptive_ctrl_ = std::make_unique<AdaptiveController>(
          inst_, options_.adaptive.policy, options_.seed);
      adapt_in_bytes_.assign(num_partners_ + num_clients_, 0.0);
      adapt_out_bytes_.assign(num_partners_ + num_clients_, 0.0);
      adapt_units_.assign(num_partners_ + num_clients_, 0.0);
      probe_bytes_ = inputs.costs.LoadProbeBytes();
      report_bytes_ = inputs.costs.LoadReportBytes();
      ttl_update_bytes_ = inputs.costs.TtlUpdateBytes();
      send_ctl_ = inputs.costs.SendControlUnits();
      recv_ctl_ = inputs.costs.RecvControlUnits();
    }

    if (routing_active_) {
      // The realized digest table is a pure function of (instance,
      // seed, routing options): the restoring constructor rebuilds it
      // identically, so it never enters a checkpoint, and the
      // analytical routing model builds the same table.
      routing_ = std::make_unique<RoutingTable>(BuildRoutingTable(
          inst_.topology, inst_.indexed_files, inputs_.query_model,
          options_.routing, options_.seed));
      digest_bytes_ = inputs.costs.DigestAnnounceBytes(
          static_cast<double>(options_.routing.DigestPayloadBytes()));
      send_ctl_ = inputs.costs.SendControlUnits();
      recv_ctl_ = inputs.costs.RecvControlUnits();
    }

    if (consistency_active_) {
      // The plan itself was validated by options_.Validate(); the
      // replication factor bound depends on the instance, so it is
      // checked here (a factor above the cluster count cannot name
      // enough distinct replica targets).
      SPPNET_CHECK_MSG(
          options_.consistency.replication.replication_factor <= n_,
          "replication_factor must not exceed the cluster count");
      cons_rng_ = Rng::Salted(options_.seed, ConsistencyPlan::kStreamSalt);
      invalidate_bytes_ = inputs.costs.InvalidateBytes();
      refresh_poll_bytes_ = inputs.costs.RefreshPollBytes();
      refresh_reply_bytes_ = inputs.costs.RefreshReplyBytes();
      send_ctl_ = inputs.costs.SendControlUnits();
      recv_ctl_ = inputs.costs.RecvControlUnits();
      cons_stale_.assign(n_, 0.0);
      cons_replicas_.assign(n_, 0.0);
      if (options_.consistency.scheme == ConsistencyScheme::kPullTtr) {
        cons_pending_.resize(n_);
        cons_head_.assign(n_, 0);
      }
    }

    if (capacity_active_) {
      // Per-node capacities come from a dedicated salted stream, so an
      // inactive plan never perturbs the protocol draws and an active
      // one samples the same peers for every shard plan.
      Rng cap_rng = Rng::Salted(options_.seed, CapacityPlan::kStreamSalt);
      node_capacity_ = SampleNodeCapacities(options_.capacity.distribution,
                                            cap_rng, TotalNodes());
      cap_in_bytes_.assign(TotalNodes(), 0.0);
      cap_out_bytes_.assign(TotalNodes(), 0.0);
      cap_units_.assign(TotalNodes(), 0.0);
      cap_overloaded_.assign(TotalNodes(), 0);
      if (adaptive_) {
        adaptive_ctrl_->SetCapacityView(
            node_capacity_, options_.capacity.overload_utilization,
            options_.capacity.capacity_aware_election,
            options_.capacity.demote_overloaded);
      }
    }

    init_seconds_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - init_start)
                        .count();
  }

  SimReport Run() {
    Start();
    const double end_time =
        options_.warmup_seconds + options_.duration_seconds;
    RunUntil(end_time);
    return FinalizeAt(end_time);
  }

  /// Streaming mode, step 1 of 3: seeds the recurring activity clocks.
  /// `Run()` is exactly `Start(); RunUntil(warmup + duration);
  /// FinalizeAt(warmup + duration);` — the split introduces no
  /// behavioural change (the engine-equivalence goldens pin this).
  void Start() {
    SPPNET_CHECK_MSG(!started_, "Start()/Run() called twice");
    started_ = true;
    tls_lane_ = &lanes_[0];
    // Seed per-user recurring activity. Under the sharded discipline
    // each node's clocks are drawn from its home domain's stream, in
    // fixed node order, so the draws are shard-count-invariant.
    for (std::uint32_t u = 0; u < TotalNodes(); ++u) {
      if (disc_) lanes_[0].cur_domain = HomeDomainOf(u);
      ScheduleIn(ExpDelay(config_.query_rate), kQuerySubmit, u);
      ScheduleIn(ExpDelay(config_.update_rate), kUpdateSubmit, u);
      ScheduleIn(ExpDelay(1.0 / LifespanOf(u)), kJoinSubmit, u);
    }
    if (disc_) lanes_[0].cur_domain = kShardCtlDomain;
    if (options_.churn.enable) {
      for (std::uint32_t p = 0; p < num_partners_; ++p) {
        ScheduleIn(ExpDelay(1.0 / inst_.partner_lifespan[p]), kPartnerFail, p);
      }
    }
    if (fault_active_ && injector_.plan().crash_rate_per_partner > 0.0) {
      // Independent Poisson crash clock per partner slot; crashes on a
      // dead partner are no-ops, so up-times stay memoryless (the
      // analytical availability model relies on this — DESIGN.md §8).
      for (std::uint32_t p = 0; p < num_partners_; ++p) {
        ScheduleIn(injector_.NextCrashDelay(), kPartnerCrash, p);
      }
    }
    if (adaptive_) {
      window_start_ = 0.0;
      ScheduleIn(options_.adaptive.probe_interval_seconds, kAdaptProbeTick, 0);
      ScheduleIn(options_.adaptive.decision_interval_seconds, kAdaptRound, 0);
    }
    if (routing_active_) {
      // The initial dissemination ships with construction (before the
      // clock starts); the first re-announcement round fires one
      // refresh interval in.
      ScheduleIn(options_.routing.refresh_interval_seconds, kDigestRefresh, 0);
    }
    if (consistency_active_) {
      // Per-client metadata-change clocks, drawn from the dedicated
      // consistency stream in fixed client order; an inactive plan
      // never touches the stream (pay-for-what-you-use determinism).
      for (std::uint32_t c = 0; c < num_clients_; ++c) {
        ScheduleIn(ConsExpDelay(), kMetadataChange,
                   static_cast<std::uint32_t>(num_partners_) + c);
      }
      if (options_.consistency.scheme == ConsistencyScheme::kPullTtr) {
        for (std::size_t i = 0; i < n_; ++i) {
          ScheduleIn(options_.consistency.ttr_seconds, kRefreshPollTick,
                     static_cast<std::uint32_t>(i));
        }
      }
    }
    if (capacity_active_) {
      cap_window_start_ = 0.0;
      ScheduleIn(options_.capacity.window_seconds, kCapacityWindow, 0);
    }
  }

  /// Streaming mode, step 2 of 3: dispatches every pending event with
  /// time <= `sim_time`. Idempotent for a quiet horizon; callable any
  /// number of times with nondecreasing horizons. Does NOT advance
  /// `lane().now` to `sim_time` — only FinalizeAt does, so a checkpoint cut
  /// between windows lands on the last dispatched event's timestamp
  /// regardless of the window grid.
  void RunUntil(double sim_time) {
    SPPNET_CHECK_MSG(started_, "RunUntil() before Start()");
    SPPNET_CHECK(!finalized_);
    const auto run_start = std::chrono::steady_clock::now();
    tls_lane_ = &lanes_[0];
    if (disc_) {
      DiscRunUntil(sim_time);
    } else {
      while (!queue_.empty() && queue_.NextTime() <= sim_time) {
        const SimEvent e = queue_.Pop();
        ++lane().events_dispatched;
        lane().now = e.time;
        lane().measuring = lane().now >= options_.warmup_seconds;
        Dispatch(e);
        // Exact retirement, right after the dispatch: the event's qid
        // gives back its count, and a qid minted by this dispatch that
        // nothing carries (a submission that reached no one) retires
        // now rather than never.
        if (CarriesQid(e.kind)) state_.Release(e.a, e.time);
        for (const std::uint64_t qid : minted_) {
          state_.RetireIfIdle(qid, e.time);
        }
        minted_.clear();
      }
    }
    run_seconds_ += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - run_start)
                        .count();
  }

  /// Streaming mode, step 3 of 3: advances the clock to `end_time` and
  /// builds the report. When `end_time` equals warmup + duration (the
  /// batch horizon, compared as the identical FP expression) the
  /// measured window is exactly `duration_seconds`, keeping Run()
  /// bit-identical to the pre-split code; any other horizon measures
  /// max(0, end_time - warmup) seconds.
  SimReport FinalizeAt(double end_time) {
    SPPNET_CHECK_MSG(started_, "FinalizeAt() before Start()");
    SPPNET_CHECK_MSG(!finalized_, "FinalizeAt() called twice");
    tls_lane_ = &lanes_[0];
    SPPNET_CHECK(std::isfinite(end_time) && end_time >= lane().now);
    finalized_ = true;
    lane().now = end_time;
    if (disc_) {
      // The finalization sweeps (outage closing, orphan accrual) run in
      // control context; pin the lane flags to the horizon's own values
      // rather than whatever shard 0's last data event left behind, so
      // the sweeps are shard- and thread-count-invariant.
      lane().measuring = end_time >= options_.warmup_seconds;
      lane().cur_domain = kShardCtlDomain;
    }
    const double batch_horizon =
        options_.warmup_seconds + options_.duration_seconds;
    const double measured =
        end_time == batch_horizon
            ? options_.duration_seconds
            : std::max(0.0, end_time - options_.warmup_seconds);
    return Finalize(measured);
  }

  double Now() const { return lanes_[0].now; }
  /// Total dispatched events, folded over the lanes in index order (the
  /// streaming layer reads this between windows; the fold keeps the
  /// value shard-count-invariant).
  std::uint64_t events_dispatched() const {
    std::uint64_t total = 0;
    ForEachShardLane(lanes_, [&](const Lane& ln, std::size_t) {
      total += ln.events_dispatched;
    });
    return total;
  }

  /// Schedules one externally fed query submission at absolute sim time
  /// `time` (>= the current clock). Trace-replay entry point: the event
  /// runs the normal submission path without touching the Poisson
  /// clocks, so a trace can be layered over (or replace) the generated
  /// workload deterministically.
  void InjectQueryAt(double time, std::uint32_t user) {
    tls_lane_ = &lanes_[0];
    SPPNET_CHECK_MSG(user < TotalNodes(), "trace user out of range");
    SPPNET_CHECK_MSG(std::isfinite(time) && time >= lane().now,
                     "trace events must not be scheduled in the past");
    if (disc_) lanes_[0].cur_domain = HomeDomainOf(user);
    ScheduleIn(time - lane().now, kTraceQuerySubmit, user);
    if (disc_) lanes_[0].cur_domain = kShardCtlDomain;
  }

  /// Publishes the CUMULATIVE run-so-far tallies into `m` — the same
  /// instrument surface as the end-of-run publish. The streaming layer
  /// diffs successive publishes into per-window deltas, which therefore
  /// reconcile with the final totals by construction.
  void PublishCumulativeMetrics(MetricsRegistry& m) const {
    PublishMetrics(m);
  }

  std::uint64_t live_query_roots() const {
    if (!disc_) return state_.live_roots();
    std::uint64_t live = 0;
    for (const FlatMap64<QueryState>& states : disc_state_) {
      live += states.size();
    }
    return live;
  }

  double longest_query_lifetime_seconds() const {
    return disc_ ? disc_longest_lifetime_ : state_.longest_lifetime_seconds();
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> InFlightCounts() const {
    if (!disc_) return state_.InFlightCounts();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    disc_live_.ForEach([&](std::uint64_t qid, const std::int64_t& inflight) {
      if (inflight != 0) {
        counts.emplace_back(qid, static_cast<std::uint64_t>(inflight));
      }
    });
    std::sort(counts.begin(), counts.end());
    return counts;
  }

  /// Serializes the complete mutable simulator state (DESIGN.md §11) as
  /// one payload: the engine-discipline marker and canonical clock, the
  /// pending events, the engine core (legacy: RNG, sequence and qid
  /// counters, SimState; sharded: DiscSaveState), then the sections
  /// every engine shares — load and churn vectors, the folded lane
  /// tallies, the control globals and one section per layer. Static and
  /// derived members (the instance, cost caches, the connection layout,
  /// routing digests, sampled capacities) are rebuilt identically by the
  /// restoring constructor and are not written. Events carry their
  /// original keys and every container is written in a canonical order,
  /// so a payload restores into any simulator built from the same
  /// options (and, for the sharded core, into any shard/thread plan).
  void SaveState(CheckpointWriter& w) const {
    SPPNET_CHECK_MSG(started_ && !finalized_,
                     "checkpoint requires a started, unfinalized run");
    for (const Lane& ln : lanes_) {
      SPPNET_CHECK_MSG(ln.outbox.empty() && ln.ctl_outbox.empty(),
                       "checkpoint cut inside a parallel phase");
    }
    tls_lane_ = &lanes_[0];
    w.BeginSection(kSimTag);
    // Engine-discipline marker: a legacy payload restores only into a
    // legacy simulator and a sharded one only into a sharded one (the
    // stream fingerprint rejects the mismatch before this is compared).
    w.PutBool(disc_);
    const Lane agg = FoldedLanes();
    w.PutDouble(agg.now);  // Canonical clock: the last executed event.
    if (disc_) {
      DiscSaveState(w);
    } else {
      PutEvents(w, queue_.SnapshotEvents());
      w.PutU64(queue_.next_seq());
      PutRng(w, rng_);
      w.PutDouble(latency_sum_);
      state_.SaveTo(w);
    }
    // Load accounting and churn state.
    w.PutDoubleVector(in_bytes_);
    w.PutDoubleVector(out_bytes_);
    w.PutDoubleVector(units_);
    w.PutU8Vector(partner_alive_);
    w.PutU32Vector(alive_partners_);
    w.PutDoubleVector(outage_start_);
    w.PutU32Vector(rr_);
    // Lane tallies, folded in lane order (a legacy run has one lane).
    w.PutU64(agg.queries_submitted);
    w.PutU64(agg.responses_delivered);
    w.PutU64(agg.duplicate_queries);
    w.PutU64(agg.first_responses);
    w.PutU64(agg.ring_queries_finished);
    w.PutU64(agg.messages_dropped);
    w.PutU64(agg.failover_episodes);
    w.PutU64(agg.queries_failed);
    w.PutU64(agg.events_scheduled);
    w.PutU64(agg.events_dispatched);
    w.PutDouble(agg.results_sum);
    w.PutDouble(agg.hops_sum);
    w.PutDouble(agg.rings_sum);
    for (std::size_t t = 0; t < kNumMsgTypes; ++t) w.PutU64(agg.msg_sent[t]);
    for (std::size_t t = 0; t < kNumMsgTypes; ++t) w.PutU64(agg.msg_recv[t]);
    PutHistogram(w, agg.hop_histogram);
    // Control globals.
    w.PutU64(partner_failures_);
    w.PutU64(partner_recoveries_);
    w.PutU64(cluster_outages_);
    w.PutDouble(disconnected_client_seconds_);
    w.PutU64(static_cast<std::uint64_t>(queue_depth_hwm_));
    // Fault layer. The stream, tallies and histograms are written
    // unconditionally (outage time accrues under plain churn too); the
    // membership vectors exist only for active plans.
    PutRng(w, injector_.stream());
    w.PutDouble(outage_seconds_);
    w.PutU64(crashes_);
    w.PutU64(request_timeouts_);
    w.PutU64(retries_);
    w.PutU64(client_rejoins_);
    w.PutU64(queries_succeeded_);
    PutHistogram(w, recovery_latency_hist_);
    PutHistogram(w, orphaned_clients_hist_);
    w.PutBool(fault_active_);
    if (fault_active_) {
      w.PutU32Vector(client_current_cluster_);
      w.PutU64(cluster_members_.size());
      for (const std::vector<std::uint32_t>& members : cluster_members_) {
        w.PutU32Vector(members);
      }
      w.PutDoubleVector(orphaned_since_);
    }
    // Adaptation layer.
    w.PutU32(static_cast<std::uint32_t>(ttl_));
    w.PutBool(adaptive_);
    if (adaptive_) {
      adaptive_ctrl_->SaveTo(w);
      w.PutDoubleVector(adapt_in_bytes_);
      w.PutDoubleVector(adapt_out_bytes_);
      w.PutDoubleVector(adapt_units_);
      w.PutDouble(window_start_);
      w.PutU64(adapt_rounds_);
      w.PutU64(adapt_splits_);
      w.PutU64(adapt_coalesces_);
      w.PutU64(adapt_edges_added_);
      w.PutU64(adapt_ttl_decreases_);
      w.PutU64(adapt_probes_sent_);
      w.PutU64(adapt_reports_received_);
      w.PutU64(adapt_client_moves_);
      w.PutU64(adapt_demotions_);
      w.PutBool(adapt_converged_);
      w.PutU64(adapt_converged_round_);
    }
    // Routing layer: only the tallies are run state.
    w.PutBool(routing_active_);
    if (routing_active_) {
      w.PutU64(routing_digest_refreshes_);
      w.PutU64(routing_suppressed_forwards_);
      w.PutU64(routing_biased_hops_);
    }
    // Consistency layer. The pull FIFOs are serialized as their
    // unpopped suffix — the canonical form — so a compacted and an
    // uncompacted simulator write identical payloads.
    w.PutBool(consistency_active_);
    if (consistency_active_) {
      PutRng(w, cons_rng_);
      w.PutDoubleVector(cons_stale_);
      w.PutDoubleVector(cons_replicas_);
      if (options_.consistency.scheme == ConsistencyScheme::kPullTtr) {
        for (std::size_t i = 0; i < n_; ++i) {
          const std::vector<double> suffix(
              cons_pending_[i].begin() +
                  static_cast<std::ptrdiff_t>(cons_head_[i]),
              cons_pending_[i].end());
          w.PutDoubleVector(suffix);
        }
      }
      w.PutU64(consistency_changes_);
      w.PutU64(consistency_stale_results_);
      w.PutU64(consistency_fresh_results_);
      w.PutU64(consistency_replica_records_);
      w.PutU64(consistency_replica_served_);
      w.PutDouble(consistency_replication_bytes_);
      PutHistogram(w, freshness_hist_);
    }
    // Capacity layer: window accumulators, per-node overload flags and
    // folded tallies.
    w.PutBool(capacity_active_);
    if (capacity_active_) {
      w.PutDoubleVector(cap_in_bytes_);
      w.PutDoubleVector(cap_out_bytes_);
      w.PutDoubleVector(cap_units_);
      w.PutDouble(cap_window_start_);
      w.PutU8Vector(cap_overloaded_);
      w.PutU64(cap_windows_);
      w.PutU64(cap_node_samples_);
      w.PutU64(cap_over_samples_);
      w.PutU64(cap_overload_episodes_);
      w.PutU64(cap_sp_samples_);
      w.PutU64(cap_sp_over_samples_);
      w.PutDouble(cap_util_sum_);
      w.PutDouble(cap_sp_util_sum_);
      PutHistogram(w, cap_sp_util_hist_);
    }
  }

  /// Counterpart of SaveState on a freshly constructed simulator with
  /// the same instance, configuration and protocol options (the shard
  /// plan may differ). Replaces Start(). Returns false — leaving the
  /// simulator unusable — on any malformed payload: a layer section
  /// that does not match this simulator's layers, a vector whose shape
  /// does not match the reconstructed layout, an id out of range (see
  /// FaultMembershipValid and AdaptiveController::LoadFrom), or a
  /// pending event RestoredEventValid refuses. The envelope checksum in
  /// CheckpointReader::Open has already rejected truncation and
  /// corruption.
  bool LoadState(CheckpointReader& r) {
    SPPNET_CHECK_MSG(!started_, "LoadState() requires a fresh simulator");
    tls_lane_ = &lanes_[0];
    if (!r.BeginSection(kSimTag)) return false;
    started_ = true;
    if (r.GetBool() != disc_) return false;  // Engine-discipline marker.
    const double clock = r.GetDouble();
    const std::vector<SimEvent> events = GetEvents(r);
    std::uint64_t next_seq = 0;
    if (disc_) {
      if (!DiscLoadState(r)) return false;
    } else {
      next_seq = r.GetU64();
      GetRng(r, rng_);
      latency_sum_ = r.GetDouble();
      if (!state_.LoadFrom(r)) return false;
    }
    if (!r.ok()) return false;
    // Validate before handing to the queues: the queues abort on
    // violated invariants and the sharded routing indexes by address,
    // but a foreign payload must fail cleanly.
    for (const SimEvent& e : events) {
      if (!RestoredEventValid(e, next_seq)) return false;
    }
    if (disc_) {
      // Events re-enter the queue owning their domain under THIS
      // simulator's shard map (the payload carries content keys).
      for (const SimEvent& e : events) {
        if (IsCtlKind(e.kind)) {
          ctl_queue_.SchedulePreKeyed(e);
        } else {
          shard_queues_[DomainOfEvent(e) % num_shards_].SchedulePreKeyed(e);
        }
      }
    } else {
      queue_.RestorePending(events, next_seq);
    }
    RebuildInFlightCounts(events, clock);
    in_bytes_ = r.GetDoubleVector();
    out_bytes_ = r.GetDoubleVector();
    units_ = r.GetDoubleVector();
    partner_alive_ = r.GetU8Vector();
    alive_partners_ = r.GetU32Vector();
    outage_start_ = r.GetDoubleVector();
    rr_ = r.GetU32Vector();
    // Every lane resumes from the canonical clock (a sharded drain
    // stamps per-event times before any handler reads them); the folded
    // tallies restore into lane 0.
    for (Lane& ln : lanes_) {
      ln.now = clock;
      ln.measuring = clock >= options_.warmup_seconds;
      ln.cur_domain = kShardCtlDomain;
    }
    Lane& ln0 = lanes_[0];
    ln0.queries_submitted = r.GetU64();
    ln0.responses_delivered = r.GetU64();
    ln0.duplicate_queries = r.GetU64();
    ln0.first_responses = r.GetU64();
    ln0.ring_queries_finished = r.GetU64();
    ln0.messages_dropped = r.GetU64();
    ln0.failover_episodes = r.GetU64();
    ln0.queries_failed = r.GetU64();
    ln0.events_scheduled = r.GetU64();
    ln0.events_dispatched = r.GetU64();
    ln0.results_sum = r.GetDouble();
    ln0.hops_sum = r.GetDouble();
    ln0.rings_sum = r.GetDouble();
    for (std::size_t t = 0; t < kNumMsgTypes; ++t) ln0.msg_sent[t] = r.GetU64();
    for (std::size_t t = 0; t < kNumMsgTypes; ++t) ln0.msg_recv[t] = r.GetU64();
    if (!GetHistogram(r, ln0.hop_histogram)) return false;
    partner_failures_ = r.GetU64();
    partner_recoveries_ = r.GetU64();
    cluster_outages_ = r.GetU64();
    disconnected_client_seconds_ = r.GetDouble();
    queue_depth_hwm_ = static_cast<std::size_t>(r.GetU64());
    GetRng(r, injector_.stream());
    outage_seconds_ = r.GetDouble();
    crashes_ = r.GetU64();
    request_timeouts_ = r.GetU64();
    retries_ = r.GetU64();
    client_rejoins_ = r.GetU64();
    queries_succeeded_ = r.GetU64();
    if (!GetHistogram(r, recovery_latency_hist_)) return false;
    if (!GetHistogram(r, orphaned_clients_hist_)) return false;
    if (r.GetBool() != fault_active_) return false;
    if (fault_active_) {
      client_current_cluster_ = r.GetU32Vector();
      const std::uint64_t num_lists = r.GetU64();
      std::vector<std::vector<std::uint32_t>> members;
      for (std::uint64_t i = 0; i < num_lists && r.ok(); ++i) {
        members.push_back(r.GetU32Vector());
      }
      cluster_members_ = std::move(members);
      orphaned_since_ = r.GetDoubleVector();
    }
    ttl_ = static_cast<int>(r.GetU32());
    if (r.GetBool() != adaptive_) return false;
    if (adaptive_) {
      if (!adaptive_ctrl_->LoadFrom(r)) return false;
      adapt_in_bytes_ = r.GetDoubleVector();
      adapt_out_bytes_ = r.GetDoubleVector();
      adapt_units_ = r.GetDoubleVector();
      window_start_ = r.GetDouble();
      adapt_rounds_ = r.GetU64();
      adapt_splits_ = r.GetU64();
      adapt_coalesces_ = r.GetU64();
      adapt_edges_added_ = r.GetU64();
      adapt_ttl_decreases_ = r.GetU64();
      adapt_probes_sent_ = r.GetU64();
      adapt_reports_received_ = r.GetU64();
      adapt_client_moves_ = r.GetU64();
      adapt_demotions_ = r.GetU64();
      adapt_converged_ = r.GetBool();
      adapt_converged_round_ = r.GetU64();
    }
    if (r.GetBool() != routing_active_) return false;
    if (routing_active_) {
      routing_digest_refreshes_ = r.GetU64();
      routing_suppressed_forwards_ = r.GetU64();
      routing_biased_hops_ = r.GetU64();
    }
    if (r.GetBool() != consistency_active_) return false;
    if (consistency_active_) {
      GetRng(r, cons_rng_);
      cons_stale_ = r.GetDoubleVector();
      cons_replicas_ = r.GetDoubleVector();
      if (options_.consistency.scheme == ConsistencyScheme::kPullTtr) {
        for (std::size_t i = 0; i < n_ && r.ok(); ++i) {
          cons_pending_[i] = r.GetDoubleVector();
          cons_head_[i] = 0;
        }
      }
      consistency_changes_ = r.GetU64();
      consistency_stale_results_ = r.GetU64();
      consistency_fresh_results_ = r.GetU64();
      consistency_replica_records_ = r.GetU64();
      consistency_replica_served_ = r.GetU64();
      consistency_replication_bytes_ = r.GetDouble();
      if (!GetHistogram(r, freshness_hist_)) return false;
    }
    if (r.GetBool() != capacity_active_) return false;
    if (capacity_active_) {
      cap_in_bytes_ = r.GetDoubleVector();
      cap_out_bytes_ = r.GetDoubleVector();
      cap_units_ = r.GetDoubleVector();
      cap_window_start_ = r.GetDouble();
      cap_overloaded_ = r.GetU8Vector();
      cap_windows_ = r.GetU64();
      cap_node_samples_ = r.GetU64();
      cap_over_samples_ = r.GetU64();
      cap_overload_episodes_ = r.GetU64();
      cap_sp_samples_ = r.GetU64();
      cap_sp_over_samples_ = r.GetU64();
      cap_util_sum_ = r.GetDouble();
      cap_sp_util_sum_ = r.GetDouble();
      if (!GetHistogram(r, cap_sp_util_hist_)) return false;
    }
    // The post-load check: every restored vector has the shape the
    // reconstructed layout needs, so no handler indexes past its end.
    const std::size_t total = TotalNodes();
    bool consistent = std::isfinite(clock) && clock >= 0.0 && ttl_ >= 0 &&
                      in_bytes_.size() == total &&
                      out_bytes_.size() == total && units_.size() == total &&
                      partner_alive_.size() == num_partners_ &&
                      alive_partners_.size() >= n_ && rr_.size() >= n_ &&
                      outage_start_.size() >= n_ &&
                      // A cluster has k partner slots, so no more live
                      // partners than that.
                      std::all_of(alive_partners_.begin(),
                                  alive_partners_.end(),
                                  [this](std::uint32_t alive) {
                                    return alive <= k_;
                                  });
    if (disc_) {
      consistent = consistent && ctr_dom_.size() == n_ &&
                   user_qid_ctr_.size() == total &&
                   latency_by_dom_.size() == n_;
    }
    if (fault_active_) {
      consistent = consistent &&
                   client_current_cluster_.size() == num_clients_ &&
                   orphaned_since_.size() == num_clients_ &&
                   cluster_members_.size() >= n_ && FaultMembershipValid();
    }
    if (adaptive_) {
      consistent = consistent && adapt_in_bytes_.size() == total &&
                   adapt_out_bytes_.size() == total &&
                   adapt_units_.size() == total;
    }
    if (consistency_active_) {
      consistent = consistent && cons_stale_.size() == n_ &&
                   cons_replicas_.size() == n_;
    }
    if (capacity_active_) {
      consistent = consistent && cap_in_bytes_.size() == total &&
                   cap_out_bytes_.size() == total &&
                   cap_units_.size() == total &&
                   cap_overloaded_.size() == total &&
                   std::isfinite(cap_window_start_) && cap_window_start_ >= 0.0;
    }
    return r.ok() && consistent;
  }

 private:
  /// The restored fault-layer membership is a partition of the clients:
  /// each member id names a client, each client sits in exactly one
  /// list, and that list is the one its current-cluster id names. The
  /// rejoin handler indexes cluster_members_ by that id and erases the
  /// client from the list, so anything else is a malformed payload.
  /// Requires client_current_cluster_.size() == num_clients_.
  bool FaultMembershipValid() const {
    std::vector<bool> listed(num_clients_, false);
    std::size_t num_listed = 0;
    for (std::size_t i = 0; i < cluster_members_.size(); ++i) {
      for (const std::uint32_t c : cluster_members_[i]) {
        if (c >= num_clients_ || listed[c] ||
            client_current_cluster_[c] != i) {
          return false;
        }
        listed[c] = true;
        ++num_listed;
      }
    }
    return num_listed == num_clients_;
  }

  /// The restored-event rule shared by both engines: a finite,
  /// non-negative time; a kind some active layer schedules; an address
  /// in range for that kind (a partner slot, a cluster or a node); a
  /// carried qid that the restored state could have minted; and, for
  /// the legacy engine, a sequence number below the restored counter.
  bool RestoredEventValid(const SimEvent& e, std::uint64_t next_seq) const {
    if (!std::isfinite(e.time) || e.time < 0.0) return false;
    if (!disc_ && e.seq >= next_seq) return false;
    if (CarriesQid(e.kind) && !RestoredQidValid(e.a)) return false;
    bool scheduled = true;
    std::size_t bound = TotalNodes();
    switch (e.kind) {
      case kQuerySubmit:
      case kQueryArrive:
      case kResponseArrive:
      case kJoinSubmit:
      case kJoinArrive:
      case kUpdateSubmit:
      case kUpdateArrive:
      case kWalkArrive:
      case kRingCheck:
      case kTraceQuerySubmit:
        break;
      case kPartnerFail:
        scheduled = options_.churn.enabled();
        bound = num_partners_;
        break;
      case kPartnerRecover:
        scheduled = options_.churn.enabled() || fault_active_;
        bound = num_partners_;
        break;
      case kPartnerCrash:
        scheduled = fault_active_;
        bound = num_partners_;
        break;
      case kRequestCheck:
      case kRetrySubmit:
        scheduled = recovery_enabled_;
        break;
      case kAdaptProbeTick:
      case kAdaptProbeArrive:
      case kAdaptReportArrive:
      case kAdaptRound:
      case kAdaptTtlArrive:
        scheduled = adaptive_;
        break;
      case kClusterQueryArrive:
      case kClusterWalkLaunch:
      case kClusterWalkArrive:
        scheduled = disc_ && !adaptive_;
        bound = n_;
        break;
      case kRejoinRequest:
        scheduled = disc_ && fault_active_;
        break;
      case kDigestRefresh:
        scheduled = routing_active_;
        break;
      case kMetadataChange:
      case kInvalidateArrive:
        scheduled = consistency_active_;
        break;
      case kRefreshPollTick:
      case kRefreshReplyArrive:
        scheduled = consistency_active_ && options_.consistency.scheme ==
                                               ConsistencyScheme::kPullTtr;
        bound = n_;
        break;
      case kCapacityWindow:
        scheduled = capacity_active_;
        break;
      default:
        return false;
    }
    return scheduled && e.node < bound;
  }

  // --- Small helpers -------------------------------------------------------
  std::uint32_t TotalNodes() const {
    return static_cast<std::uint32_t>(num_partners_ + num_clients_);
  }
  bool IsPartner(std::uint32_t node) const { return node < num_partners_; }
  /// Role check under adaptation: a split promotes a client-range node
  /// to head and a coalesce resigns an original partner to an ordinary
  /// member, so role and node-id range diverge. Without adaptation the
  /// head role coincides with the partner range (bit-identical path).
  bool IsHeadRole(std::uint32_t node) const {
    return adaptive_ ? adaptive_ctrl_->IsHead(node) : IsPartner(node);
  }
  /// Liveness of a head node. Only original partner slots carry
  /// churn/crash state; promoted heads (client-range node ids) never
  /// fail — the fault clocks only tick for partner slots.
  bool HeadAlive(std::uint32_t node) const {
    return node < num_partners_ ? partner_alive_[node] != 0 : true;
  }
  std::size_t ClusterOf(std::uint32_t node) const {
    if (adaptive_) return adaptive_ctrl_->ClusterOfNode(node);
    if (IsPartner(node)) return node / k_;
    const std::uint32_t c = node - num_partners_;
    return fault_active_ ? client_current_cluster_[c] : client_cluster_[c];
  }
  /// The live head of `cluster` under adaptation; kSelfUpstream when
  /// the cluster is dead, headless, or its head is down.
  std::uint32_t LiveHeadOf(std::size_t cluster) const {
    const std::uint32_t head = adaptive_ctrl_->HeadOf(cluster);
    if (head == AdaptiveController::kNoHead || !HeadAlive(head)) {
      return kSelfUpstream;
    }
    return head;
  }
  /// True when a client of `cluster` has no live head to submit
  /// through (the discovery re-join trigger in SubmitWithFailover).
  bool ClusterUnreachable(std::size_t cluster) const {
    if (adaptive_) return LiveHeadOf(cluster) == kSelfUpstream;
    return alive_partners_[cluster] == 0;
  }
  double LifespanOf(std::uint32_t node) const {
    return IsPartner(node) ? inst_.partner_lifespan[node]
                           : inst_.client_lifespan[node - num_partners_];
  }
  double FilesOf(std::uint32_t node) const {
    return IsPartner(node)
               ? static_cast<double>(inst_.partner_files[node])
               : static_cast<double>(inst_.client_files[node - num_partners_]);
  }
  double MuxOf(std::uint32_t node) const {
    if (adaptive_) {
      // Open connections follow the live topology: a head multiplexes
      // its members plus its overlay neighbors; everyone else keeps
      // the single upstream connection.
      if (adaptive_ctrl_->IsHead(node)) {
        const std::size_t cluster = adaptive_ctrl_->ClusterOfNode(node);
        return inputs_.costs.MultiplexUnits(static_cast<double>(
            adaptive_ctrl_->MembersOf(cluster).size() +
            adaptive_ctrl_->NeighborsOf(cluster).size()));
      }
      return inputs_.costs.MultiplexUnits(client_conn_);
    }
    return inputs_.costs.MultiplexUnits(
        IsPartner(node) ? conn_[ClusterOf(node)] : client_conn_);
  }
  double ExpDelay(double rate) const {
    SPPNET_CHECK(rate > 0.0);
    // Inverse-CDF exponential; NextDouble() < 1 so log is finite.
    return -std::log(1.0 - ProtoRng().NextDouble()) / rate;
  }
  void ScheduleIn(double delay, std::uint32_t kind, std::uint32_t node,
                  std::uint64_t a = 0, std::uint64_t b = 0) {
    SimEvent e;
    e.time = lane().now + delay;
    e.kind = kind;
    e.node = node;
    e.a = a;
    e.b = b;
    if (disc_) {
      if (CarriesQid(kind)) *retire_log().qid_delta.FindOrInsert(a).first += 1;
      DiscSchedule(e);
      return;
    }
    if (CarriesQid(kind)) state_.AddRef(a);
    queue_.Schedule(e);
    ++lane().events_scheduled;
    if (queue_.size() > queue_depth_hwm_) queue_depth_hwm_ = queue_.size();
  }

  /// Control kinds execute single-threaded at window barriers; data
  /// kinds run in the parallel phase on the shard owning their domain.
  static bool IsCtlKind(std::uint32_t kind) {
    switch (kind) {
      case kPartnerFail:
      case kPartnerRecover:
      case kPartnerCrash:
      case kRequestCheck:
      case kRetrySubmit:
      case kRejoinRequest:
      case kAdaptProbeTick:
      case kAdaptProbeArrive:
      case kAdaptReportArrive:
      case kAdaptRound:
      case kAdaptTtlArrive:
        return true;
      default:
        return false;
    }
  }

  /// Domain an event executes in: the addressed cluster for
  /// cluster-addressed kinds, the node's home domain otherwise.
  std::uint32_t DomainOfEvent(const SimEvent& e) const {
    switch (e.kind) {
      case kClusterQueryArrive:
      case kClusterWalkLaunch:
      case kClusterWalkArrive:
        return e.node;
      default:
        return HomeDomainOf(e.node);
    }
  }

  std::uint64_t NextCtr(std::uint32_t domain) {
    return domain == kShardCtlDomain ? ctl_ctr_++ : ctr_dom_[domain]++;
  }

  /// Sharded-discipline scheduling. The event key is derived from
  /// content (class, emitting domain, that domain's emission counter),
  /// never from global dispatch order, so the (time, key) total order
  /// is identical for every shard/thread count. Routing is
  /// domain-uniform: during the parallel phase a cross-DOMAIN data send
  /// always goes through the emitter's outbox and the barrier merge —
  /// even when both domains happen to live on the same shard — because
  /// `send_time + hop` can round an ulp below the multiplication-
  /// derived cell close, and whether that ulp is observable must not
  /// depend on the shard map. Same-domain sends insert directly into
  /// the emitter's own queue (the same shard in every configuration).
  void DiscSchedule(SimEvent e) {
    ++lane().events_scheduled;
    const std::uint32_t src = lane().cur_domain;
    if (IsCtlKind(e.kind)) {
      // Control executes at barriers: quantize UP to the grid so the
      // handler sees every data event before its cell close. Emission
      // counters keep barrier-mates in a deterministic order.
      e.time = GridCeil(e.time, cell_width_);
      e.seq = MakeShardEventKey(false, src, NextCtr(src));
      if (in_parallel_) {
        lane().ctl_outbox.push_back(e);
      } else {
        ctl_queue_.SchedulePreKeyed(e);
      }
      return;
    }
    e.seq = MakeShardEventKey(true, src, NextCtr(src));
    const std::uint32_t dom = DomainOfEvent(e);
    if (in_parallel_ && dom != src) {
      lane().outbox.push_back(e);
      return;
    }
    shard_queues_[dom % num_shards_].SchedulePreKeyed(e);
  }
  /// Delivery of an overlay message, through the fault layer: the
  /// message may be silently dropped or arrive late by a jittered
  /// amount. The sender's cost was already accounted — the bytes left
  /// its link either way. Control events (timers, checks) bypass this
  /// and use ScheduleIn directly; they are local, not messages.
  void Deliver(double delay, std::uint32_t kind, std::uint32_t node,
               std::uint64_t a = 0, std::uint64_t b = 0) {
    if (fault_active_) {
      if (injector_.ShouldDropDelivery(FaultRng())) {
        if (lane().measuring) ++lane().messages_dropped;
        return;
      }
      delay += injector_.DeliveryJitter(FaultRng());
    }
    ScheduleIn(delay, kind, node, a, b);
  }
  // The adapt_* window accumulators feed the next decision round's
  // measured loads; they accrue during warmup too — the adaptation
  // protocol observes all traffic, unlike the report accounting. The
  // cap_* accumulators behave the same way (utilization windows are
  // folded into the report only once fully past warmup).
  void AcctSend(std::uint32_t node, Msg msg, double bytes, double units) {
    if (adaptive_) {
      adapt_out_bytes_[node] += bytes;
      adapt_units_[node] += units;
    }
    if (capacity_active_) {
      cap_out_bytes_[node] += bytes;
      cap_units_[node] += units;
    }
    if (!lane().measuring) return;
    out_bytes_[node] += bytes;
    units_[node] += units;
    ++lane().msg_sent[static_cast<std::size_t>(msg)];
  }
  void AcctRecv(std::uint32_t node, Msg msg, double bytes, double units) {
    if (adaptive_) {
      adapt_in_bytes_[node] += bytes;
      adapt_units_[node] += units;
    }
    if (capacity_active_) {
      cap_in_bytes_[node] += bytes;
      cap_units_[node] += units;
    }
    if (!lane().measuring) return;
    in_bytes_[node] += bytes;
    units_[node] += units;
    ++lane().msg_recv[static_cast<std::size_t>(msg)];
  }
  void AcctProc(std::uint32_t node, double units) {
    if (adaptive_) adapt_units_[node] += units;
    if (capacity_active_) cap_units_[node] += units;
    if (!lane().measuring) return;
    units_[node] += units;
  }

  /// Round-robin choice of a live partner of `cluster`; returns
  /// kSelfUpstream if none is alive (message lost). Skipping a dead
  /// preferred slot is the k-redundancy failover in action; the fault
  /// layer counts those episodes.
  std::uint32_t PickPartner(std::size_t cluster) {
    if (adaptive_) return LiveHeadOf(cluster);  // Non-redundant clusters.
    bool preferred_dead = false;
    for (std::size_t attempt = 0; attempt < k_; ++attempt) {
      const std::size_t slot = (rr_[cluster]++) % k_;
      const auto node = static_cast<std::uint32_t>(cluster * k_ + slot);
      if (partner_alive_[node]) {
        if (preferred_dead && fault_active_ && lane().measuring) {
          ++lane().failover_episodes;
        }
        return node;
      }
      preferred_dead = true;
    }
    return kSelfUpstream;
  }

  // --- Query-state access, discipline-aware ---------------------------------
  // A sharded run cannot use SimState: it is keyed by globally
  // sequential qids (its retirement floor and slot growth assume them)
  // while disc qids are per-user. The wrappers below
  // route to per-domain FlatMap64 containers instead, each touched
  // only by the shard owning the domain (or by the single-threaded
  // control phase).

  /// The event kinds that carry a qid (always in SimEvent::a): the
  /// in-flight counts behind exact retirement (DESIGN.md §11) go up
  /// when one is scheduled and down when it is dispatched.
  static bool CarriesQid(std::uint32_t kind) {
    switch (kind) {
      case kQueryArrive:
      case kResponseArrive:
      case kWalkArrive:
      case kRingCheck:
      case kRequestCheck:
      case kRetrySubmit:
      case kClusterQueryArrive:
      case kClusterWalkLaunch:
      case kClusterWalkArrive:
        return true;
      default:
        return false;
    }
  }

  /// Mints a query id: globally sequential in legacy runs, per-user
  /// (user << 32 | counter) under the discipline so every shard mints
  /// ids without coordination and ids are shard-count-invariant. The
  /// new id is retirement-checked once the minting dispatch ends
  /// (legacy) or at the next fold (sharded), so a submission that
  /// reached no one leaves nothing behind.
  std::uint64_t MakeQid(std::uint32_t user) {
    if (!disc_) {
      const std::uint64_t qid = state_.Mint();
      minted_.push_back(qid);
      return qid;
    }
    const std::uint64_t qid =
        (static_cast<std::uint64_t>(user) << 32) |
        static_cast<std::uint64_t>(user_qid_ctr_[user]++);
    retire_log().qid_delta.FindOrInsert(qid);
    return qid;
  }
  /// Home domain of a disc qid's owner (disc qids embed the user).
  std::uint32_t DomainOfQid(std::uint64_t qid) const {
    return HomeDomainOf(static_cast<std::uint32_t>(qid >> 32));
  }
  /// True when the restored state could have minted `qid`: inside the
  /// legacy state's [floor, next qid) window, or below its owner's
  /// restored per-user counter under the discipline.
  bool RestoredQidValid(std::uint64_t qid) const {
    if (!disc_) {
      return qid >= state_.retire_floor() && qid < state_.next_qid();
    }
    const std::uint64_t user = qid >> 32;
    return user_qid_ctr_.size() == TotalNodes() && user < TotalNodes() &&
           (qid & 0xffffffffu) < user_qid_ctr_[user];
  }

  bool MarkSeenW(std::size_t cluster, std::uint64_t qid,
                 std::uint32_t upstream) {
    if (!disc_) return state_.MarkSeen(cluster, qid, upstream);
    const auto [slot, inserted] = disc_dup_[cluster].FindOrInsert(qid);
    if (inserted) {
      *slot = upstream;
      retire_log().seen_clusters.FindOrInsert(qid).first->push_back(
          static_cast<std::uint32_t>(cluster));
    }
    return inserted;
  }
  const std::uint32_t* UpstreamW(std::size_t cluster,
                                 std::uint64_t qid) const {
    if (!disc_) return state_.Upstream(cluster, qid);
    return disc_dup_[cluster].Find(qid);
  }
  QueryState& ClaimW(std::uint64_t qid) {
    if (!disc_) return state_.Claim(qid);
    const auto [slot, inserted] = disc_state_[DomainOfQid(qid)].FindOrInsert(qid);
    SPPNET_CHECK_MSG(inserted, "duplicate disc qid claim");
    *slot = QueryState{};
    return *slot;
  }
  QueryState* FindW(std::uint64_t qid) {
    if (!disc_) return state_.Find(qid);
    return disc_state_[DomainOfQid(qid)].Find(qid);
  }
  void SetRootW(std::uint64_t qid, std::uint64_t root) {
    if (!disc_) {
      state_.SetRoot(qid, root);
      return;
    }
    if (qid == root) return;  // RootOfW defaults to identity.
    const auto [slot, inserted] =
        disc_root_[DomainOfQid(qid)].FindOrInsert(qid);
    if (!inserted) return;  // The first binding wins, as in SimState.
    *slot = root;
    // The binding holds one count on the root until `qid` retires.
    *retire_log().qid_delta.FindOrInsert(root).first += 1;
  }
  std::uint64_t RootOfW(std::uint64_t qid) const {
    if (!disc_) return state_.RootOf(qid);
    const std::uint64_t* root = disc_root_[DomainOfQid(qid)].Find(qid);
    return root == nullptr ? qid : *root;
  }

  // --- Dispatch -------------------------------------------------------------
  void Dispatch(const SimEvent& e) {
    switch (e.kind) {
      case kQuerySubmit:
        OnQuerySubmit(e.node);
        break;
      case kQueryArrive:
        OnQueryArrive(e.node, e.a, static_cast<std::uint32_t>(e.b >> 32),
                      static_cast<std::uint32_t>((e.b >> 8) & 0xffffffu),
                      static_cast<std::uint32_t>(e.b & 0xffu));
        break;
      case kResponseArrive:
        OnResponseArrive(e.node, e.a, static_cast<std::uint32_t>(e.b >> 32),
                         static_cast<std::uint32_t>((e.b >> 16) & 0xffffu),
                         static_cast<std::uint32_t>(e.b & 0xffffu));
        break;
      case kJoinSubmit:
        OnJoinSubmit(e.node);
        break;
      case kJoinArrive:
        OnJoinArrive(e.node, e.x);
        break;
      case kUpdateSubmit:
        OnUpdateSubmit(e.node);
        break;
      case kUpdateArrive:
        OnUpdateArrive(e.node);
        break;
      case kPartnerFail:
        OnPartnerFail(e.node);
        break;
      case kPartnerRecover:
        OnPartnerRecover(e.node, /*churn_origin=*/e.a != 0);
        break;
      case kPartnerCrash:
        OnPartnerCrash(e.node);
        break;
      case kRequestCheck:
        OnRequestCheck(e.node, e.a, static_cast<std::uint32_t>(e.b));
        break;
      case kRetrySubmit:
        OnRetrySubmit(e.node, e.a, static_cast<std::uint32_t>(e.b));
        break;
      case kWalkArrive:
        OnWalkArrive(e.node, e.a, static_cast<std::uint32_t>(e.b >> 32),
                     static_cast<std::uint32_t>((e.b >> 8) & 0xffffffu),
                     static_cast<std::uint32_t>(e.b & 0xffu));
        break;
      case kRingCheck:
        OnRingCheck(e.a);
        break;
      case kAdaptProbeTick:
        OnAdaptProbeTick();
        break;
      case kAdaptProbeArrive:
        OnAdaptProbeArrive(e.node, static_cast<std::uint32_t>(e.a));
        break;
      case kAdaptReportArrive:
        OnAdaptReportArrive(e.node, static_cast<std::uint32_t>(e.a), e.b);
        break;
      case kAdaptRound:
        OnAdaptRound();
        break;
      case kAdaptTtlArrive:
        OnAdaptTtlArrive(e.node);
        break;
      case kTraceQuerySubmit:
        SubmitQueryNow(e.node);
        break;
      case kClusterQueryArrive:
        OnClusterQueryArrive(e.node, e.a,
                             static_cast<std::uint32_t>(e.b >> 32),
                             static_cast<std::uint32_t>((e.b >> 8) & 0xffffffu),
                             static_cast<std::uint32_t>(e.b & 0xffu));
        break;
      case kClusterWalkLaunch:
        OnClusterWalkLaunch(e.node, e.a,
                            static_cast<std::uint32_t>(e.b >> 32),
                            static_cast<std::uint32_t>((e.b >> 8) & 0xffffffu));
        break;
      case kClusterWalkArrive:
        OnClusterWalkArrive(e.node, e.a,
                            static_cast<std::uint32_t>(e.b >> 32),
                            static_cast<std::uint32_t>((e.b >> 8) & 0xffffffu),
                            static_cast<std::uint32_t>(e.b & 0xffu));
        break;
      case kRejoinRequest:
        OnRejoinRequest(e.node);
        break;
      case kDigestRefresh:
        OnDigestRefresh();
        break;
      case kMetadataChange:
        OnMetadataChange(e.node);
        break;
      case kInvalidateArrive:
        OnInvalidateArrive(e.node, BitsTime(e.a));
        break;
      case kRefreshPollTick:
        OnRefreshPollTick(e.node);
        break;
      case kRefreshReplyArrive:
        OnRefreshReplyArrive(e.node, BitsTime(e.a));
        break;
      case kCapacityWindow:
        OnCapacityWindow();
        break;
      default:
        SPPNET_CHECK_MSG(false, "unknown event kind");
    }
  }

  // --- Queries ---------------------------------------------------------------
  // Per-user-query bookkeeping (QueryState, keyed by root qid) lives in
  // SimState (sim/sim_state.h); expanding-ring / retry qids map back to
  // their root through it.

  void OnQuerySubmit(std::uint32_t user) {
    ScheduleIn(ExpDelay(config_.query_rate), kQuerySubmit, user);
    SubmitQueryNow(user);
  }

  /// The submission body shared by the Poisson clock (kQuerySubmit) and
  /// trace replay (kTraceQuerySubmit): everything OnQuerySubmit did
  /// except rescheduling the clock.
  void SubmitQueryNow(std::uint32_t user) {
    if (IsHeadRole(user) && !HeadAlive(user)) return;
    const auto query_class =
        static_cast<std::uint32_t>(inputs_.query_model.SampleQueryClass(ProtoRng()));

    switch (options_.strategy) {
      // Routed flood shares the flood submission path: the digest
      // pruning lives entirely in the forward loop (OnQueryArrive).
      case SearchStrategy::kFlood:
      case SearchStrategy::kRoutedFlood: {
        const std::uint64_t qid = MakeQid(user);
        if (!SubmitWithFailover(user, qid, query_class,
                                static_cast<std::uint32_t>(ttl_ + 1))) {
          // No live partner anywhere: the query cannot be routed.
          if (recovery_enabled_ && lane().measuring) ++lane().queries_failed;
          return;
        }
        RecordSubmission(qid, user, query_class, 0);
        if (recovery_enabled_) {
          ScheduleIn(injector_.plan().request_timeout_seconds, kRequestCheck,
                     user, qid, /*retries_used=*/0);
        }
        break;
      }
      case SearchStrategy::kExpandingRing: {
        const std::uint64_t qid = MakeQid(user);
        if (!SubmitToOwnCluster(user, qid, query_class, 2)) return;  // Ring 1.
        RecordSubmission(qid, user, query_class, 1);
        ScheduleRingCheck(qid, 1, user);
        break;
      }
      // The digest-biased walker shares the walk submission path: the
      // bias lives entirely in the next-hop choice (NextWalkPartner).
      case SearchStrategy::kRandomWalk:
      case SearchStrategy::kWalker: {
        const std::uint64_t qid = MakeQid(user);
        if (!LaunchWalks(user, qid, query_class)) return;
        RecordSubmission(qid, user, query_class, 0);
        break;
      }
    }
  }

  void RecordSubmission(std::uint64_t qid, std::uint32_t user,
                        std::uint32_t query_class, std::uint32_t ring_ttl) {
    if (lane().measuring) ++lane().queries_submitted;
    QueryState& state = ClaimW(qid);
    state.user = user;
    state.query_class = query_class;
    state.ring_ttl = ring_ttl;
    state.submit_time = lane().now;
    SetRootW(qid, qid);
  }

  /// Routes a query (with the given hop budget) into the submitting
  /// user's own cluster: directly for a partner-user, via the
  /// round-robin submission hop for a client. Returns false if the
  /// cluster is unreachable (churn).
  bool SubmitToOwnCluster(std::uint32_t user, std::uint64_t qid,
                          std::uint32_t query_class, std::uint32_t ttl) {
    // The source super-peer floods with the full TTL, so the submission
    // hop carries TTL+1: every OnQueryArrive forwards with ttl-1, and a
    // node at depth d therefore holds TTL+1-d, forwarding while d < TTL —
    // exactly the paper's semantics (nodes at depth == TTL do not
    // forward).
    if (IsHeadRole(user)) {
      OnQueryArrive(user, qid, kSelfUpstream, query_class, ttl);
      return true;
    }
    if (disc_ && !adaptive_) {
      // The round-robin pick mutates the target cluster's rr_ slot, so
      // it must run on the shard owning that cluster: address the
      // message to the cluster and resolve the partner at the receiver.
      // (Adaptive stays node-addressed: its pick is LiveHeadOf, a pure
      // read of controller state frozen for the window.)
      const std::size_t cluster = ClusterOf(user);
      if (ClusterUnreachable(cluster)) return false;  // Disconnected.
      AcctSend(user, Msg::kQuery, qbytes_, sendq_ + MuxOf(user));
      Deliver(options_.hop_latency_seconds, kClusterQueryArrive,
              static_cast<std::uint32_t>(cluster), qid,
              PackQuery(user, query_class, ttl));
      return true;
    }
    const std::uint32_t target = PickPartner(ClusterOf(user));
    if (target == kSelfUpstream) return false;  // Disconnected.
    AcctSend(user, Msg::kQuery, qbytes_, sendq_ + MuxOf(user));
    Deliver(options_.hop_latency_seconds, kQueryArrive, target, qid,
            PackQuery(user, query_class, ttl));
    return true;
  }

  /// SubmitToOwnCluster with fault-mode recovery: a client whose whole
  /// cluster is down first re-joins a surviving cluster via the
  /// bootstrap discovery service; only when no cluster in the network
  /// has a live partner does the submission fail.
  bool SubmitWithFailover(std::uint32_t user, std::uint64_t qid,
                          std::uint32_t query_class, std::uint32_t ttl) {
    if (fault_active_ && !IsHeadRole(user) &&
        ClusterUnreachable(ClusterOf(user))) {
      if (disc_ && in_parallel_) {
        // The re-join mutates global membership (current-cluster map,
        // discovery stream) — control work. Defer it to the barrier;
        // this query is lost, as in any all-partners-down episode.
        ScheduleIn(options_.hop_latency_seconds, kRejoinRequest, user);
        return false;
      }
      if (!RejoinViaDiscovery(user)) return false;
    }
    return SubmitToOwnCluster(user, qid, query_class, ttl);
  }

  // --- Expanding ring ---------------------------------------------------------
  void ScheduleRingCheck(std::uint64_t root, std::uint32_t ring_ttl,
                         std::uint32_t user) {
    // Allow one round trip across the ring plus slack before judging.
    const double wait =
        (2.0 * static_cast<double>(ring_ttl) + 3.0) *
        options_.hop_latency_seconds;
    // kRingCheck is a data event: under the discipline it carries the
    // submitting user so it executes on the shard owning the query
    // state. Legacy keeps node 0 for checkpoint byte-identity.
    ScheduleIn(wait, kRingCheck, disc_ ? user : 0, root);
  }

  void OnRingCheck(std::uint64_t root) {
    QueryState* found = FindW(root);
    if (found == nullptr) return;
    QueryState& state = *found;
    const bool satisfied =
        state.ring_results >=
        static_cast<double>(options_.ring_satisfaction_results);
    const bool exhausted =
        state.ring_ttl >= static_cast<std::uint32_t>(config_.ttl);
    if (satisfied || exhausted) {
      FinishRingQuery(state);
      return;
    }
    // Grow the ring: a fresh flood with a larger TTL (naive iterative
    // deepening re-queries the inner rings; that cost is intrinsic to
    // the technique and shows up in the measurements).
    if (IsPartner(state.user) && !partner_alive_[state.user]) {
      FinishRingQuery(state);
      return;
    }
    const std::uint64_t retry_qid = MakeQid(state.user);
    state.ring_ttl += 1;
    state.ring_results = 0.0;
    SetRootW(retry_qid, root);
    if (!SubmitToOwnCluster(state.user, retry_qid, state.query_class,
                            state.ring_ttl + 1)) {
      FinishRingQuery(state);
      return;
    }
    ScheduleRingCheck(root, state.ring_ttl, state.user);
  }

  void FinishRingQuery(const QueryState& state) {
    if (lane().measuring) {
      lane().results_sum += state.ring_results;
      lane().rings_sum += static_cast<double>(state.ring_ttl);
      ++lane().ring_queries_finished;
    }
  }

  // --- Random walks -------------------------------------------------------------
  bool LaunchWalks(std::uint32_t user, std::uint64_t qid,
                   std::uint32_t query_class) {
    const std::size_t cluster = ClusterOf(user);
    if (disc_ && !adaptive_) {
      if (IsPartner(user)) {
        OnQueryArrive(user, qid, kSelfUpstream, query_class, 1);
        LaunchWalkersFrom(user, cluster, qid, query_class);
        return true;
      }
      if (ClusterUnreachable(cluster)) return false;
      AcctSend(user, Msg::kQuery, qbytes_, sendq_ + MuxOf(user));
      // The walkers launch at the receiving cluster once the submission
      // hop resolves a live source partner there (kClusterWalkLaunch).
      Deliver(options_.hop_latency_seconds, kClusterWalkLaunch,
              static_cast<std::uint32_t>(cluster), qid,
              PackQuery(user, query_class, 1));
      return true;
    }
    // The source cluster always processes the query itself.
    std::uint32_t source_partner;
    if (IsPartner(user)) {
      source_partner = user;
      OnQueryArrive(user, qid, kSelfUpstream, query_class, 1);
    } else {
      source_partner = PickPartner(cluster);
      if (source_partner == kSelfUpstream) return false;
      AcctSend(user, Msg::kQuery, qbytes_, sendq_ + MuxOf(user));
      Deliver(options_.hop_latency_seconds, kQueryArrive, source_partner,
              qid, PackQuery(user, query_class, 1));
    }
    // Launch the walkers from the source partner.
    for (std::uint32_t w = 0; w < options_.num_walkers; ++w) {
      const std::uint32_t target = NextWalkPartner(cluster, query_class);
      if (target == kSelfUpstream) break;
      AcctSend(source_partner, Msg::kQuery, qbytes_,
               sendq_ + MuxOf(source_partner));
      Deliver(options_.hop_latency_seconds, kWalkArrive, target, qid,
              PackQuery(source_partner, query_class,
                        options_.walk_ttl & 0xffu));
    }
    return true;
  }

  /// Disc walk forwarding: the neighbor-cluster draw happens in the
  /// emitting domain's stream; the partner pick inside the neighbor is
  /// resolved on the neighbor's own shard (kClusterWalkArrive).
  /// kNoCluster when `cluster` has no neighbors.
  static constexpr std::size_t kNoCluster = static_cast<std::size_t>(-1);
  std::size_t RandomNeighborCluster(std::size_t cluster) {
    if (inst_.topology.is_complete()) {
      if (n_ <= 1) return kNoCluster;
      std::size_t neighbor;
      do {
        neighbor = ProtoRng().NextBounded(n_);
      } while (neighbor == cluster);
      return neighbor;
    }
    const auto nbrs =
        inst_.topology.graph().Neighbors(static_cast<NodeId>(cluster));
    if (nbrs.empty()) return kNoCluster;
    return nbrs[ProtoRng().NextBounded(nbrs.size())];
  }

  void LaunchWalkersFrom(std::uint32_t source_partner, std::size_t cluster,
                         std::uint64_t qid, std::uint32_t query_class) {
    for (std::uint32_t w = 0; w < options_.num_walkers; ++w) {
      const std::size_t target = RandomNeighborCluster(cluster);
      if (target == kNoCluster) break;
      AcctSend(source_partner, Msg::kQuery, qbytes_,
               sendq_ + MuxOf(source_partner));
      Deliver(options_.hop_latency_seconds, kClusterWalkArrive,
              static_cast<std::uint32_t>(target), qid,
              PackQuery(source_partner, query_class,
                        options_.walk_ttl & 0xffu));
    }
  }

  /// A uniformly random live partner of a random neighbor of `cluster`;
  /// kSelfUpstream if the cluster has no neighbors.
  std::uint32_t RandomNeighborPartner(std::size_t cluster) {
    std::size_t neighbor;
    if (inst_.topology.is_complete()) {
      if (n_ <= 1) return kSelfUpstream;
      do {
        neighbor = ProtoRng().NextBounded(n_);
      } while (neighbor == cluster);
    } else {
      const auto nbrs =
          inst_.topology.graph().Neighbors(static_cast<NodeId>(cluster));
      if (nbrs.empty()) return kSelfUpstream;
      neighbor = nbrs[ProtoRng().NextBounded(nbrs.size())];
    }
    return PickPartner(neighbor);
  }

  void OnWalkArrive(std::uint32_t partner, std::uint64_t qid,
                    std::uint32_t source_partner, std::uint32_t query_class,
                    std::uint32_t ttl) {
    if (!partner_alive_[partner]) return;
    AcctRecv(partner, Msg::kQuery, qbytes_, recvq_ + MuxOf(partner));
    const std::size_t cluster = ClusterOf(partner);
    // Process only on the cluster's first visit; revisit hops keep
    // walking but do not re-query the index.
    const bool fresh = MarkSeenW(cluster, qid, source_partner);
    if (fresh) {
      const auto [results, addrs] = MatchQuery(cluster, query_class);
      AcctProc(partner,
               inputs_.costs.ProcessQueryUnits(static_cast<double>(results)));
      if (results > 0) {
        // Walk responses return directly to the source partner (as in
        // Lv et al.'s random-walk systems) rather than retracing the
        // whole walk; hops=1 reflects the direct connection.
        const double bytes = inputs_.costs.ResponseBytes(
            static_cast<double>(addrs), static_cast<double>(results));
        AcctSend(partner, Msg::kResponse, bytes,
                 inputs_.costs.SendResponseUnits(
                     static_cast<double>(addrs),
                     static_cast<double>(results)) +
                     MuxOf(partner));
        Deliver(options_.hop_latency_seconds, kResponseArrive,
                source_partner, qid, PackResponse(results, addrs, 1));
      }
    } else if (lane().measuring) {
      ++lane().duplicate_queries;
    }
    if (ttl <= 1) return;
    if (disc_ && !adaptive_) {
      const std::size_t next = RandomNeighborCluster(cluster);
      if (next == kNoCluster) return;
      AcctSend(partner, Msg::kQuery, qbytes_, sendq_ + MuxOf(partner));
      Deliver(options_.hop_latency_seconds, kClusterWalkArrive,
              static_cast<std::uint32_t>(next), qid,
              PackQuery(source_partner, query_class, ttl - 1));
      return;
    }
    const std::uint32_t next = NextWalkPartner(cluster, query_class);
    if (next == kSelfUpstream) return;
    AcctSend(partner, Msg::kQuery, qbytes_, sendq_ + MuxOf(partner));
    Deliver(options_.hop_latency_seconds, kWalkArrive, next, qid,
            PackQuery(source_partner, query_class, ttl - 1));
  }

  /// Next-hop partner for a walk leaving `cluster`: uniform over the
  /// neighbors (kRandomWalk), or — under kWalker — uniform over the
  /// digest-positive neighbors, falling back to the uniform choice when
  /// no neighbor's digest reports the class (the walk keeps exploring
  /// rather than dying on a content-free horizon).
  std::uint32_t NextWalkPartner(std::size_t cluster,
                                std::uint32_t query_class) {
    if (options_.strategy != SearchStrategy::kWalker) {
      return RandomNeighborPartner(cluster);
    }
    walk_scratch_.clear();
    if (inst_.topology.is_complete()) {
      for (std::size_t w = 0; w < n_; ++w) {
        if (w != cluster && routing_->DestMayLead(
                                static_cast<std::uint32_t>(w), query_class)) {
          walk_scratch_.push_back(static_cast<std::uint32_t>(w));
        }
      }
    } else {
      const auto nbrs =
          inst_.topology.graph().Neighbors(static_cast<NodeId>(cluster));
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (routing_->EdgeMayLead(static_cast<std::uint32_t>(cluster), i,
                                  query_class)) {
          walk_scratch_.push_back(nbrs[i]);
        }
      }
    }
    if (walk_scratch_.empty()) return RandomNeighborPartner(cluster);
    if (lane().measuring) ++routing_biased_hops_;
    const std::uint32_t next = walk_scratch_[ProtoRng().NextBounded(
        walk_scratch_.size())];
    return PickPartner(next);
  }

  void OnQueryArrive(std::uint32_t partner, std::uint64_t qid,
                     std::uint32_t upstream, std::uint32_t query_class,
                     std::uint32_t ttl) {
    // Messages in flight across a role change (the target resigned) or
    // to a dead head are lost.
    if (!IsHeadRole(partner) || !HeadAlive(partner)) return;
    if (upstream != kSelfUpstream) {
      AcctRecv(partner, Msg::kQuery, qbytes_, recvq_ + MuxOf(partner));
    }
    const std::size_t cluster = ClusterOf(partner);
    const bool fresh = MarkSeenW(cluster, qid, upstream);
    if (!fresh) {
      if (lane().measuring) ++lane().duplicate_queries;
      return;  // Duplicate: received, then dropped.
    }

    // Process over the cluster index.
    const auto [results, addrs] = MatchQuery(cluster, query_class);
    AcctProc(partner, inputs_.costs.ProcessQueryUnits(
                          static_cast<double>(results)));
    std::uint32_t total_results = results;
    if (consistency_active_) {
      // Stale/fresh classification of the index-matched results, plus
      // extra fresh results served from the replica store. Both draw
      // from the consistency stream only, so the flood itself is
      // untouched.
      if (results > 0) ClassifyStale(cluster, results);
      total_results += ReplicaServe(cluster, query_class);
    }
    if (total_results > 0) {
      SendResponse(partner, upstream, qid, total_results, addrs, /*hops=*/0);
    }
    if (consistency_active_ && results > 0 &&
        options_.consistency.replication.enabled()) {
      ReplicatePush(cluster, partner, qid, results);
    }

    // Forward with decremented TTL on every connection except the one
    // the query arrived on.
    if (ttl <= 1) return;
    const std::size_t exclude =
        (upstream != kSelfUpstream && IsHeadRole(upstream))
            ? ClusterOf(upstream)
            : static_cast<std::size_t>(-1);
    const auto forward = [&](std::size_t neighbor) {
      if (neighbor == exclude) return;
      if (disc_ && !adaptive_) {
        // An all-dead neighbor is skipped sender-side (legacy learns
        // the same from PickPartner); a live one gets the message with
        // the partner pick resolved on the neighbor's shard.
        if (alive_partners_[neighbor] == 0) return;
        AcctSend(partner, Msg::kQuery, qbytes_, sendq_ + MuxOf(partner));
        Deliver(options_.hop_latency_seconds, kClusterQueryArrive,
                static_cast<std::uint32_t>(neighbor), qid,
                PackQuery(partner, query_class, ttl - 1));
        return;
      }
      const std::uint32_t target = PickPartner(neighbor);
      if (target == kSelfUpstream) return;
      AcctSend(partner, Msg::kQuery, qbytes_, sendq_ + MuxOf(partner));
      Deliver(options_.hop_latency_seconds, kQueryArrive, target, qid,
              PackQuery(partner, query_class, ttl - 1));
    };
    if (adaptive_) {
      // The live overlay: rule II edges come and go, so neighbors are
      // the controller's, not the instance topology's.
      for (const std::uint32_t w : adaptive_ctrl_->NeighborsOf(cluster)) {
        forward(w);
      }
    } else if (inst_.topology.is_complete()) {
      for (std::size_t w = 0; w < n_; ++w) {
        if (w == cluster) continue;
        // Content-aware pruning: skip edges whose digest reports the
        // class unreachable. The suppressed tally excludes the arrival
        // edge — flood would not have forwarded there either.
        if (routing_active_ &&
            !routing_->DestMayLead(static_cast<std::uint32_t>(w),
                                   query_class)) {
          if (w != exclude && lane().measuring) {
            ++routing_suppressed_forwards_;
          }
          continue;
        }
        forward(w);
      }
    } else {
      const auto nbrs =
          inst_.topology.graph().Neighbors(static_cast<NodeId>(cluster));
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (routing_active_ &&
            !routing_->EdgeMayLead(static_cast<std::uint32_t>(cluster), i,
                                   query_class)) {
          if (nbrs[i] != exclude && lane().measuring) {
            ++routing_suppressed_forwards_;
          }
          continue;
        }
        forward(nbrs[i]);
      }
    }
  }

  // --- Cluster-addressed deliveries (sharded discipline) ---------------------
  // A cluster-addressed message carries the cluster id and resolves the
  // round-robin partner pick on the shard owning that cluster, so every
  // rr_ slot stays single-writer. A cluster whose partners all died
  // while the message was in flight drops it, exactly as a
  // node-addressed message to a dead partner is dropped.

  void OnClusterQueryArrive(std::size_t cluster, std::uint64_t qid,
                            std::uint32_t upstream, std::uint32_t query_class,
                            std::uint32_t ttl) {
    const std::uint32_t target = PickPartner(cluster);
    if (target == kSelfUpstream) return;
    OnQueryArrive(target, qid, upstream, query_class, ttl);
  }

  void OnClusterWalkLaunch(std::size_t cluster, std::uint64_t qid,
                           std::uint32_t user, std::uint32_t query_class) {
    const std::uint32_t source = PickPartner(cluster);
    if (source == kSelfUpstream) return;
    OnQueryArrive(source, qid, user, query_class, 1);
    LaunchWalkersFrom(source, cluster, qid, query_class);
  }

  void OnClusterWalkArrive(std::size_t cluster, std::uint64_t qid,
                           std::uint32_t source_partner,
                           std::uint32_t query_class, std::uint32_t ttl) {
    const std::uint32_t target = PickPartner(cluster);
    if (target == kSelfUpstream) return;
    OnWalkArrive(target, qid, source_partner, query_class, ttl);
  }

  /// Control-phase completion of a parallel-phase failover: the re-join
  /// mutates global membership, so SubmitWithFailover deferred it to
  /// the barrier. Re-checks the trigger — the cluster may have
  /// recovered, or the client may already have been moved.
  void OnRejoinRequest(std::uint32_t user) {
    if (IsHeadRole(user)) return;
    if (!fault_active_ || !ClusterUnreachable(ClusterOf(user))) return;
    RejoinViaDiscovery(user);
  }

  /// Determines (results, addresses) for a query over a cluster's
  /// index by sampling from the Appendix-B query model.
  std::pair<std::uint32_t, std::uint32_t> MatchQuery(
      std::size_t cluster, std::uint32_t query_class) {
    const double f = inputs_.query_model.SelectionPower(query_class);
    const double indexed = adaptive_ ? adaptive_ctrl_->FilesSum(cluster)
                                     : inst_.indexed_files[cluster];
    // Routed runs match against the persistent content realization —
    // the same pure function the digests were built from — so a pruned
    // edge provably led to zero results (modulo the digest's radius
    // horizon and Bloom false positives). Non-routed runs keep the
    // per-query resampling semantics.
    const std::uint32_t results =
        routing_active_
            ? RoutedMatchCount(inputs_.query_model, indexed, options_.seed,
                               static_cast<std::uint32_t>(cluster),
                               query_class)
            : SampleBinomialApprox(indexed, f, ProtoRng());
    if (results == 0) return {0, 0};
    return {results, SampleAddrs(cluster, f)};
  }

  // --- Content-aware routing (index/routing_index.h) -------------------------

  /// First live partner slot of `cluster`, without touching the
  /// round-robin cursor (digest announcements must not perturb query
  /// routing); kSelfUpstream when the cluster is dark.
  std::uint32_t FirstLivePartner(std::size_t cluster) const {
    for (std::size_t slot = 0; slot < k_; ++slot) {
      const auto node = static_cast<std::uint32_t>(cluster * k_ + slot);
      if (partner_alive_[node]) return node;
    }
    return kSelfUpstream;
  }

  /// Periodic digest re-announcement round: every super-peer re-sends
  /// its current digest to each overlay neighbor. The realized table is
  /// static (the content realization does not drift), so the round is
  /// pure control-plane cost — one DigestAnnounce per directed edge,
  /// priced through CostTable::DigestAnnounceBytes like the adaptation
  /// control messages.
  void OnDigestRefresh() {
    ScheduleIn(options_.routing.refresh_interval_seconds, kDigestRefresh, 0);
    if (lane().measuring) ++routing_digest_refreshes_;
    const auto announce = [&](std::size_t u, std::size_t w) {
      const std::uint32_t from = FirstLivePartner(u);
      const std::uint32_t to = FirstLivePartner(w);
      if (from == kSelfUpstream || to == kSelfUpstream) return;
      AcctSend(from, Msg::kDigest, digest_bytes_, send_ctl_ + MuxOf(from));
      AcctRecv(to, Msg::kDigest, digest_bytes_, recv_ctl_ + MuxOf(to));
    };
    if (inst_.topology.is_complete()) {
      for (std::size_t u = 0; u < n_; ++u) {
        for (std::size_t w = 0; w < n_; ++w) {
          if (w != u) announce(u, w);
        }
      }
      return;
    }
    for (std::size_t u = 0; u < n_; ++u) {
      for (const NodeId w :
           inst_.topology.graph().Neighbors(static_cast<NodeId>(u))) {
        announce(u, w);
      }
    }
  }

  // --- Index consistency & replication (model/consistency.h) -----------------
  // Only clients mutate metadata; the per-cluster stale tallies and the
  // pull-scheme pending-change FIFOs are the entire protocol state.
  // Every random decision (change clocks, stale classification, replica
  // serving) draws from the dedicated cons_rng_ stream, so the protocol
  // event stream of a consistency run with replication disabled is
  // identical to the plain flood run plus the maintenance plane.

  double ConsExpDelay() {
    return -std::log(1.0 - cons_rng_.NextDouble()) /
           options_.consistency.change_rate_per_client;
  }

  /// Current stale records of `cluster`: the pull FIFO's unpopped
  /// suffix, or the push/none counter.
  double StaleCount(std::size_t cluster) const {
    if (options_.consistency.scheme == ConsistencyScheme::kPullTtr) {
      return static_cast<double>(cons_pending_[cluster].size() -
                                 cons_head_[cluster]);
    }
    return cons_stale_[cluster];
  }

  /// Probability a result delivered from `cluster` is stale: the stale
  /// fraction of its index, capped at 1 (the kNone scheme accumulates
  /// staleness without bound).
  double StaleFraction(std::size_t cluster) const {
    const double files = inst_.indexed_files[cluster];
    if (files <= 0.0) return 0.0;
    return std::min(StaleCount(cluster), files) / files;
  }

  void OnMetadataChange(std::uint32_t client_node) {
    ScheduleIn(ConsExpDelay(), kMetadataChange, client_node);
    if (lane().measuring) ++consistency_changes_;
    const std::size_t cluster = ClusterOf(client_node);
    switch (options_.consistency.scheme) {
      case ConsistencyScheme::kPushInvalidate: {
        cons_stale_[cluster] += 1.0;
        const std::uint32_t target = FirstLivePartner(cluster);
        if (target == kSelfUpstream) break;  // Membership is static.
        AcctSend(client_node, Msg::kInvalidate, invalidate_bytes_,
                 send_ctl_ + MuxOf(client_node));
        Deliver(options_.hop_latency_seconds, kInvalidateArrive, target,
                TimeBits(lane().now));
        break;
      }
      case ConsistencyScheme::kPullTtr:
        cons_pending_[cluster].push_back(lane().now);
        break;
      case ConsistencyScheme::kNone:
        cons_stale_[cluster] += 1.0;
        break;
    }
  }

  void OnInvalidateArrive(std::uint32_t partner, double change_time) {
    AcctRecv(partner, Msg::kInvalidate, invalidate_bytes_,
             recv_ctl_ + MuxOf(partner));
    const std::size_t cluster = ClusterOf(partner);
    if (cons_stale_[cluster] > 0.0) cons_stale_[cluster] -= 1.0;
    if (lane().measuring) {
      freshness_hist_.Observe(lane().now - change_time);
    }
  }

  /// One pull poll round: the super-peer polls every client of its
  /// cluster; the batched replies arrive a poll + reply hop later and
  /// clear every change made strictly before this tick.
  void OnRefreshPollTick(std::size_t cluster) {
    ScheduleIn(options_.consistency.ttr_seconds, kRefreshPollTick,
               static_cast<std::uint32_t>(cluster));
    const std::uint32_t partner = FirstLivePartner(cluster);
    if (partner == kSelfUpstream) return;  // Membership is static.
    const std::size_t num = inst_.NumClients(cluster);
    for (std::size_t i = 0; i < num; ++i) {
      AcctSend(partner, Msg::kPoll, refresh_poll_bytes_,
               send_ctl_ + MuxOf(partner));
    }
    ScheduleIn(2.0 * options_.hop_latency_seconds, kRefreshReplyArrive,
               static_cast<std::uint32_t>(cluster), TimeBits(lane().now));
  }

  void OnRefreshReplyArrive(std::size_t cluster, double tick_time) {
    const std::uint32_t partner = FirstLivePartner(cluster);
    if (partner == kSelfUpstream) return;
    for (std::size_t c = inst_.client_offset[cluster];
         c < inst_.client_offset[cluster + 1]; ++c) {
      const auto client =
          static_cast<std::uint32_t>(num_partners_ + c);
      AcctRecv(client, Msg::kPoll, refresh_poll_bytes_,
               recv_ctl_ + MuxOf(client));
      AcctSend(client, Msg::kRefresh, refresh_reply_bytes_,
               send_ctl_ + MuxOf(client));
      AcctRecv(partner, Msg::kRefresh, refresh_reply_bytes_,
               recv_ctl_ + MuxOf(partner));
    }
    // Changes made before the poll tick are now refreshed from the
    // authoritative client copies; later ones wait for the next round.
    std::vector<double>& pending = cons_pending_[cluster];
    std::size_t& head = cons_head_[cluster];
    while (head < pending.size() && pending[head] < tick_time) {
      if (lane().measuring) {
        freshness_hist_.Observe(lane().now - pending[head]);
      }
      ++head;
    }
    if (head > 64 && head * 2 > pending.size()) {
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }

  /// Classifies `results` delivered from `cluster` as stale/fresh by
  /// independent Bernoulli draws at the cluster's stale index fraction.
  /// Classification is pure observation — it changes no message.
  void ClassifyStale(std::size_t cluster, std::uint32_t results) {
    const double p = StaleFraction(cluster);
    std::uint32_t stale = 0;
    for (std::uint32_t i = 0; i < results; ++i) {
      if (cons_rng_.NextBernoulli(p)) ++stale;
    }
    if (lane().measuring) {
      consistency_stale_results_ += stale;
      consistency_fresh_results_ += results - stale;
    }
  }

  /// Extra results served from `cluster`'s replica store (always
  /// fresh: replicas are shipped from just-matched records).
  std::uint32_t ReplicaServe(std::size_t cluster, std::uint32_t query_class) {
    const double replicas = cons_replicas_[cluster];
    if (replicas <= 0.0) return 0;
    const std::uint32_t extra = SampleBinomialApprox(
        replicas, inputs_.query_model.SelectionPower(query_class), cons_rng_);
    if (extra > 0 && lane().measuring) consistency_replica_served_ += extra;
    return extra;
  }

  /// Ships min(results, max_records_per_push) fresh records to the
  /// query owner's cluster (owner replication) and/or the clusters the
  /// response retraces (path replication), up to replication_factor
  /// distinct targets. Replicas piggyback on the response path, so each
  /// push is priced as one endpoint send + one receive.
  void ReplicatePush(std::size_t cluster, std::uint32_t partner,
                     std::uint64_t qid, std::uint32_t results) {
    const ReplicationPlan& rp = options_.consistency.replication;
    const auto records = static_cast<double>(
        std::min(results, rp.max_records_per_push));
    replica_targets_.clear();
    const auto add_target = [&](std::size_t target) {
      if (target == cluster) return;
      for (const std::size_t t : replica_targets_) {
        if (t == target) return;
      }
      if (replica_targets_.size() <
          static_cast<std::size_t>(rp.replication_factor)) {
        replica_targets_.push_back(target);
      }
    };
    if (rp.path_replication) {
      // Walk the stored upstream chain toward the query owner.
      std::size_t at = cluster;
      const std::uint32_t* up = UpstreamW(at, qid);
      while (up != nullptr && *up != kSelfUpstream && IsPartner(*up)) {
        at = ClusterOf(*up);
        add_target(at);
        up = UpstreamW(at, qid);
      }
    }
    if (rp.owner_replication) {
      const QueryState* state = FindW(RootOfW(qid));
      if (state != nullptr) add_target(ClusterOf(state->user));
    }
    const double bytes = inputs_.costs.ReplicaPushBytes(records);
    for (const std::size_t target : replica_targets_) {
      const std::uint32_t to = FirstLivePartner(target);
      if (to == kSelfUpstream) continue;
      AcctSend(partner, Msg::kReplica, bytes, send_ctl_ + MuxOf(partner));
      AcctRecv(to, Msg::kReplica, bytes, recv_ctl_ + MuxOf(to));
      cons_replicas_[target] += records;
      if (lane().measuring) {
        consistency_replica_records_ +=
            static_cast<std::uint64_t>(records);
        consistency_replication_bytes_ += bytes;
      }
    }
  }

  /// Expected-value-faithful sampling of the number of distinct cluster
  /// members whose collections match (the addresses in a Response).
  std::uint32_t SampleAddrs(std::size_t cluster, double f) {
    std::uint32_t addrs = 0;
    if (adaptive_) {
      const auto try_owner = [&](double x) {
        if (x <= 0.0) return;
        const double p = 1.0 - std::pow(1.0 - f, x);
        if (ProtoRng().NextBernoulli(p)) ++addrs;
      };
      for (const std::uint32_t node : adaptive_ctrl_->MembersOf(cluster)) {
        try_owner(adaptive_ctrl_->FilesOfNode(node));
      }
      const std::uint32_t head = adaptive_ctrl_->HeadOf(cluster);
      if (head != AdaptiveController::kNoHead) {
        try_owner(adaptive_ctrl_->FilesOfNode(head));
      }
      return addrs == 0 ? 1 : addrs;  // Results imply at least one owner.
    }
    for (const std::uint32_t x : inst_.ClientFiles(cluster)) {
      if (x == 0) continue;
      const double p = 1.0 - std::pow(1.0 - f, static_cast<double>(x));
      if (ProtoRng().NextBernoulli(p)) ++addrs;
    }
    for (std::size_t p = 0; p < k_; ++p) {
      const std::uint32_t x = inst_.partner_files[cluster * k_ + p];
      if (x == 0) continue;
      const double q = 1.0 - std::pow(1.0 - f, static_cast<double>(x));
      if (ProtoRng().NextBernoulli(q)) ++addrs;
    }
    return addrs == 0 ? 1 : addrs;  // Results imply at least one owner.
  }

  void SendResponse(std::uint32_t from, std::uint32_t to, std::uint64_t qid,
                    std::uint32_t results, std::uint32_t addrs,
                    std::uint32_t hops) {
    const double bytes = inputs_.costs.ResponseBytes(
        static_cast<double>(addrs), static_cast<double>(results));
    if (to == kSelfUpstream) {
      // The super-peer's own user consumes the results locally.
      DeliverResults(qid, results, hops);
      return;
    }
    AcctSend(from, Msg::kResponse, bytes,
             inputs_.costs.SendResponseUnits(static_cast<double>(addrs),
                                             static_cast<double>(results)) +
                 MuxOf(from));
    // The hop counter mirrors the paper's EPL (hops across the super-peer
    // overlay); the final super-peer -> client delivery is not an overlay
    // hop and is excluded so the metric is comparable with the model.
    const std::uint32_t hop_delta = IsHeadRole(to) ? 1u : 0u;
    Deliver(options_.hop_latency_seconds, kResponseArrive, to, qid,
            PackResponse(results, addrs, hops + hop_delta));
  }

  void OnResponseArrive(std::uint32_t node, std::uint64_t qid,
                        std::uint32_t results, std::uint32_t addrs,
                        std::uint32_t hops) {
    const double bytes = inputs_.costs.ResponseBytes(
        static_cast<double>(addrs), static_cast<double>(results));
    AcctRecv(node, Msg::kResponse, bytes,
             inputs_.costs.RecvResponseUnits(static_cast<double>(addrs),
                                             static_cast<double>(results)) +
                 MuxOf(node));
    if (!IsHeadRole(node)) {
      DeliverResults(qid, results, hops);
      return;
    }
    if (!HeadAlive(node)) return;
    const std::size_t cluster = ClusterOf(node);
    const std::uint32_t* upstream = UpstreamW(cluster, qid);
    if (upstream == nullptr) return;  // State lost to churn.
    SendResponse(node, *upstream, qid, results, addrs, hops);
  }

  void DeliverResults(std::uint64_t qid, std::uint32_t results,
                      std::uint32_t hops) {
    // Map expanding-ring retry qids back to the original query.
    const std::uint64_t root = RootOfW(qid);
    QueryState* found = FindW(root);
    if (found != nullptr) {
      QueryState& state = *found;
      if (!state.first_response_seen) {
        state.first_response_seen = true;
        if (lane().measuring) {
          if (disc_) {
            // Per-domain accumulation keeps the FP addition order a
            // function of (time, key) within one domain; the fold in
            // domain order at Finalize is then shard-count-invariant.
            latency_by_dom_[HomeDomainOf(state.user)] +=
                lane().now - state.submit_time;
          } else {
            latency_sum_ += lane().now - state.submit_time;
          }
          ++lane().first_responses;
        }
      }
      if (options_.strategy == SearchStrategy::kExpandingRing) {
        state.ring_results += static_cast<double>(results);
      }
    }
    if (!lane().measuring) return;
    ++lane().responses_delivered;
    lane().hops_sum += static_cast<double>(hops);
    lane().hop_histogram.Observe(static_cast<double>(hops));
    if (options_.strategy != SearchStrategy::kExpandingRing) {
      // Ring queries account their results when the ring settles
      // (FinishRingQuery), so inner rings are not double counted.
      lane().results_sum += static_cast<double>(results);
    }
  }

  // --- Joins and updates ------------------------------------------------------
  void ScheduleJoinArrive(std::uint32_t target, std::uint32_t owner,
                          double files) {
    // Joins carry a float payload (e.x), so the fault layer is applied
    // inline instead of through Deliver.
    double delay = options_.hop_latency_seconds;
    if (fault_active_) {
      if (injector_.ShouldDropDelivery(FaultRng())) {
        if (lane().measuring) ++lane().messages_dropped;
        return;
      }
      delay += injector_.DeliveryJitter(FaultRng());
    }
    SimEvent e;
    e.time = lane().now + delay;
    e.kind = kJoinArrive;
    e.node = target;
    e.a = owner;
    e.x = files;
    if (disc_) {
      DiscSchedule(e);
      return;
    }
    queue_.Schedule(e);
    ++lane().events_scheduled;
    if (queue_.size() > queue_depth_hwm_) queue_depth_hwm_ = queue_.size();
  }

  void OnJoinSubmit(std::uint32_t user) {
    ScheduleIn(ExpDelay(1.0 / LifespanOf(user)), kJoinSubmit, user);
    const double files = FilesOf(user);
    const std::size_t cluster = ClusterOf(user);
    if (IsHeadRole(user)) {
      if (!HeadAlive(user)) return;
      // Rebuild the index over its own collection; mirror to every
      // live co-partner.
      AcctProc(user, inputs_.costs.ProcessJoinUnits(files));
      // Under adaptation clusters are non-redundant (k == 1): there is
      // no co-partner to mirror to.
      if (adaptive_) return;
      for (std::size_t p = 0; p < k_; ++p) {
        const auto other = static_cast<std::uint32_t>(cluster * k_ + p);
        if (other == user || !partner_alive_[other]) continue;
        AcctSend(user, Msg::kJoin, inputs_.costs.JoinBytes(files),
                 inputs_.costs.SendJoinUnits(files) + MuxOf(user));
        ScheduleJoinArrive(other, user, files);
      }
      return;
    }
    if (adaptive_) {
      const std::uint32_t head = LiveHeadOf(cluster);
      if (head == kSelfUpstream) return;
      AcctSend(user, Msg::kJoin, inputs_.costs.JoinBytes(files),
               inputs_.costs.SendJoinUnits(files) + MuxOf(user));
      ScheduleJoinArrive(head, user, files);
      return;
    }
    for (std::size_t p = 0; p < k_; ++p) {
      const auto partner = static_cast<std::uint32_t>(cluster * k_ + p);
      if (!partner_alive_[partner]) continue;
      AcctSend(user, Msg::kJoin, inputs_.costs.JoinBytes(files),
               inputs_.costs.SendJoinUnits(files) + MuxOf(user));
      ScheduleJoinArrive(partner, user, files);
    }
  }

  void OnJoinArrive(std::uint32_t partner, double files) {
    if (!IsHeadRole(partner) || !HeadAlive(partner)) return;
    AcctRecv(partner, Msg::kJoin, inputs_.costs.JoinBytes(files),
             inputs_.costs.RecvJoinUnits(files) +
                 inputs_.costs.ProcessJoinUnits(files) + MuxOf(partner));
  }

  void OnUpdateSubmit(std::uint32_t user) {
    ScheduleIn(ExpDelay(config_.update_rate), kUpdateSubmit, user);
    const std::size_t cluster = ClusterOf(user);
    if (IsHeadRole(user)) {
      if (!HeadAlive(user)) return;
      AcctProc(user, inputs_.costs.process_update_units);
      // Non-redundant clusters under adaptation: nothing to mirror.
      if (adaptive_) return;
      // Mirror the update to every live co-partner.
      for (std::size_t p = 0; p < k_; ++p) {
        const auto other = static_cast<std::uint32_t>(cluster * k_ + p);
        if (other == user || !partner_alive_[other]) continue;
        AcctSend(user, Msg::kUpdate, inputs_.costs.UpdateBytes(),
                 inputs_.costs.send_update_units + MuxOf(user));
        Deliver(options_.hop_latency_seconds, kUpdateArrive, other, user);
      }
      return;
    }
    if (adaptive_) {
      const std::uint32_t head = LiveHeadOf(cluster);
      if (head == kSelfUpstream) return;
      AcctSend(user, Msg::kUpdate, inputs_.costs.UpdateBytes(),
               inputs_.costs.send_update_units + MuxOf(user));
      Deliver(options_.hop_latency_seconds, kUpdateArrive, head, user);
      return;
    }
    for (std::size_t p = 0; p < k_; ++p) {
      const auto partner = static_cast<std::uint32_t>(cluster * k_ + p);
      if (!partner_alive_[partner]) continue;
      AcctSend(user, Msg::kUpdate, inputs_.costs.UpdateBytes(),
               inputs_.costs.send_update_units + MuxOf(user));
      Deliver(options_.hop_latency_seconds, kUpdateArrive, partner, user);
    }
  }

  void OnUpdateArrive(std::uint32_t partner) {
    if (!IsHeadRole(partner) || !HeadAlive(partner)) return;
    AcctRecv(partner, Msg::kUpdate, inputs_.costs.UpdateBytes(),
             inputs_.costs.recv_update_units +
                 inputs_.costs.process_update_units + MuxOf(partner));
  }

  // --- Churn / reliability -----------------------------------------------------

  /// Takes a live partner down for `recovery_seconds` and schedules the
  /// recovery. `churn_origin` tags end-of-lifespan failures: only those
  /// restart the lifespan clock on recovery (injected crashes have
  /// their own Poisson clock, which keeps ticking independently).
  void FailPartner(std::uint32_t partner, double recovery_seconds,
                   bool churn_origin) {
    partner_alive_[partner] = false;
    if (lane().measuring) ++partner_failures_;
    const std::size_t cluster = ClusterOf(partner);
    if (--alive_partners_[cluster] == 0) {
      outage_start_[cluster] = lane().now;
      if (lane().measuring) ++cluster_outages_;
      if (fault_active_) OrphanClusterClients(cluster);
    }
    ScheduleIn(recovery_seconds, kPartnerRecover, partner,
               churn_origin ? 1 : 0);
  }

  void OnPartnerFail(std::uint32_t partner) {
    // A head that resigned through a coalesce keeps its node id as an
    // ordinary member; its churn clock dies with the role (the member's
    // availability is the new head's problem).
    if (adaptive_ && !adaptive_ctrl_->IsHead(partner)) return;
    if (!partner_alive_[partner]) return;
    FailPartner(partner, options_.churn.partner_recovery_seconds,
                /*churn_origin=*/true);
  }

  void OnPartnerCrash(std::uint32_t partner) {
    // The crash clock keeps ticking whether or not the partner is up;
    // a crash hitting a dead partner is a no-op, which keeps up-times
    // memoryless (the analytical availability model in DESIGN.md §8
    // relies on exactly this renewal structure).
    ScheduleIn(injector_.NextCrashDelay(), kPartnerCrash, partner);
    // Crashes only hit nodes still holding the head role (see
    // OnPartnerFail); the clock keeps ticking either way.
    if (adaptive_ && !adaptive_ctrl_->IsHead(partner)) return;
    if (!partner_alive_[partner]) return;
    if (lane().measuring) ++crashes_;
    FailPartner(partner, injector_.plan().crash_recovery_seconds,
                /*churn_origin=*/false);
  }

  void OnPartnerRecover(std::uint32_t partner, bool churn_origin) {
    partner_alive_[partner] = true;
    if (lane().measuring) ++partner_recoveries_;
    const std::size_t cluster = ClusterOf(partner);
    if (alive_partners_[cluster]++ == 0 && outage_start_[cluster] >= 0.0) {
      AccumulateOutage(cluster, lane().now);
      outage_start_[cluster] = -1.0;
      if (fault_active_) ReconnectOrphans(cluster);
    }
    // The replacement partner starts with an empty index: every client
    // re-uploads its metadata (the join storm after a failure). With an
    // active fault plan membership is mutable, so the storm covers the
    // cluster's current members rather than the instance layout.
    if (adaptive_) {
      for (const std::uint32_t node : adaptive_ctrl_->MembersOf(cluster)) {
        SendMemberUpload(partner, node);
      }
    } else if (fault_active_) {
      for (const std::uint32_t c : cluster_members_[cluster]) {
        SendJoinStormUpload(partner, c);
      }
    } else {
      for (std::size_t c = inst_.client_offset[cluster];
           c < inst_.client_offset[cluster + 1]; ++c) {
        SendJoinStormUpload(partner, static_cast<std::uint32_t>(c));
      }
    }
    if (churn_origin && options_.churn.enable) {
      ScheduleIn(ExpDelay(1.0 / inst_.partner_lifespan[partner]), kPartnerFail,
                 partner);
    }
  }

  /// One client's metadata re-upload to a recovering partner (`c` is a
  /// client index, not a node id).
  void SendJoinStormUpload(std::uint32_t partner, std::uint32_t c) {
    SendMemberUpload(partner, static_cast<std::uint32_t>(num_partners_ + c));
  }

  /// One member's metadata re-upload to a (new or recovered) head.
  /// Takes a node id: under adaptation a cluster's members may include
  /// resigned heads from the partner range.
  void SendMemberUpload(std::uint32_t head, std::uint32_t member) {
    const double files = FilesOf(member);
    AcctSend(member, Msg::kJoin, inputs_.costs.JoinBytes(files),
             inputs_.costs.SendJoinUnits(files) + MuxOf(member));
    ScheduleJoinArrive(head, member, files);
  }

  void AccumulateOutage(std::size_t cluster, double end) {
    const double start = std::max(outage_start_[cluster],
                                  options_.warmup_seconds);
    if (end <= start) return;
    outage_seconds_ += end - start;
    // Whole-cluster client accounting only applies while membership is
    // static; with an active fault plan clients accrue individually
    // (AccrueOrphanTime), since re-joins end their episodes early.
    if (!fault_active_) {
      const double clients = static_cast<double>(
          adaptive_ ? adaptive_ctrl_->MembersOf(cluster).size()
                    : inst_.NumClients(cluster));
      disconnected_client_seconds_ += (end - start) * clients;
    }
  }

  // --- Fault recovery: orphans, re-join, timeouts & retries --------------------

  /// Marks every current member of `cluster` orphaned (its last live
  /// partner just went down).
  void OrphanClusterClients(std::size_t cluster) {
    if (adaptive_) {
      if (lane().measuring) {
        orphaned_clients_hist_.Observe(static_cast<double>(
            adaptive_ctrl_->MembersOf(cluster).size()));
      }
      // Resigned heads (partner-range node ids) carry no orphan slot;
      // their disconnection shows up in the outage accounting instead.
      for (const std::uint32_t node : adaptive_ctrl_->MembersOf(cluster)) {
        if (node < num_partners_) continue;
        const std::uint32_t c = node - num_partners_;
        if (orphaned_since_[c] < 0.0) orphaned_since_[c] = lane().now;
      }
      return;
    }
    if (lane().measuring) {
      orphaned_clients_hist_.Observe(
          static_cast<double>(cluster_members_[cluster].size()));
    }
    for (const std::uint32_t c : cluster_members_[cluster]) {
      if (orphaned_since_[c] < 0.0) orphaned_since_[c] = lane().now;
    }
  }

  /// Ends the orphan episodes of `cluster`'s members: a partner came
  /// back, so they are connected again.
  void ReconnectOrphans(std::size_t cluster) {
    if (adaptive_) {
      for (const std::uint32_t node : adaptive_ctrl_->MembersOf(cluster)) {
        if (node < num_partners_) continue;
        AccrueOrphanTime(node - num_partners_, /*observe_latency=*/true);
      }
      return;
    }
    for (const std::uint32_t c : cluster_members_[cluster]) {
      AccrueOrphanTime(c, /*observe_latency=*/true);
    }
  }

  /// Closes client `c`'s orphan episode at `lane().now`: adds its
  /// disconnected time (clipped to the measurement window) and, for
  /// real recoveries, observes the recovery-latency histogram.
  void AccrueOrphanTime(std::uint32_t c, bool observe_latency) {
    if (orphaned_since_[c] < 0.0) return;
    const double start = std::max(orphaned_since_[c], options_.warmup_seconds);
    if (lane().now > start) disconnected_client_seconds_ += lane().now - start;
    if (observe_latency && lane().measuring) {
      recovery_latency_hist_.Observe(lane().now - orphaned_since_[c]);
    }
    orphaned_since_[c] = -1.0;
  }

  /// Moves an orphaned client to a surviving cluster via the bootstrap
  /// discovery service (Section 4.1's pong-server role). Returns false
  /// when no cluster in the network has a live partner.
  bool RejoinViaDiscovery(std::uint32_t user) {
    if (adaptive_) return RejoinViaDiscoveryAdaptive(user);
    const std::uint32_t c = user - num_partners_;
    std::vector<std::uint32_t> eligible;
    std::vector<std::uint32_t> sizes;
    for (std::size_t i = 0; i < n_; ++i) {
      if (alive_partners_[i] > 0) {
        eligible.push_back(static_cast<std::uint32_t>(i));
        sizes.push_back(
            static_cast<std::uint32_t>(cluster_members_[i].size()));
      }
    }
    if (eligible.empty()) return false;
    const std::size_t pick =
        PickRejoinCluster(eligible, sizes, AssignmentPolicy::kUniformRandom,
                          injector_.stream());
    const std::uint32_t new_cluster = eligible[pick];
    auto& members = cluster_members_[client_current_cluster_[c]];
    members.erase(std::find(members.begin(), members.end(), c));
    cluster_members_[new_cluster].push_back(c);
    client_current_cluster_[c] = new_cluster;
    if (lane().measuring) ++client_rejoins_;
    AccrueOrphanTime(c, /*observe_latency=*/true);
    // The client uploads its metadata to the new cluster's live
    // partners — a fresh join.
    const auto files = static_cast<double>(inst_.client_files[c]);
    for (std::size_t p = 0; p < k_; ++p) {
      const auto partner = static_cast<std::uint32_t>(new_cluster * k_ + p);
      if (!partner_alive_[partner]) continue;
      AcctSend(user, Msg::kJoin, inputs_.costs.JoinBytes(files),
               inputs_.costs.SendJoinUnits(files) + MuxOf(user));
      ScheduleJoinArrive(partner, user, files);
    }
    return true;
  }

  /// RejoinViaDiscovery with the adaptation layer owning membership:
  /// eligible clusters are live slots with a live head, and the move
  /// flows through the controller so rule decisions see it.
  bool RejoinViaDiscoveryAdaptive(std::uint32_t user) {
    std::vector<std::uint32_t> eligible;
    std::vector<std::uint32_t> sizes;
    for (std::size_t i = 0; i < adaptive_ctrl_->NumClusterSlots(); ++i) {
      if (adaptive_ctrl_->Dead(i) || LiveHeadOf(i) == kSelfUpstream) continue;
      eligible.push_back(static_cast<std::uint32_t>(i));
      sizes.push_back(
          static_cast<std::uint32_t>(adaptive_ctrl_->MembersOf(i).size()));
    }
    if (eligible.empty()) return false;
    const std::size_t pick =
        PickRejoinCluster(eligible, sizes, AssignmentPolicy::kUniformRandom,
                          injector_.stream());
    const auto new_cluster = static_cast<std::size_t>(eligible[pick]);
    adaptive_ctrl_->MoveClient(user, new_cluster);
    if (lane().measuring) ++client_rejoins_;
    if (user >= num_partners_) {
      AccrueOrphanTime(user - num_partners_, /*observe_latency=*/true);
    }
    SendMemberUpload(LiveHeadOf(new_cluster), user);
    return true;
  }

  /// Per-request timeout probe for a flood query. Success means at
  /// least one response arrived — graceful degradation: partial results
  /// from a degraded flood still count. Tallies cover queries submitted
  /// inside the measurement window whose checks fire before the run
  /// ends.
  void OnRequestCheck(std::uint32_t user, std::uint64_t root,
                      std::uint32_t retries_used) {
    const QueryState* found = FindW(root);
    if (found == nullptr) return;
    const QueryState& state = *found;
    const bool counted = state.submit_time >= options_.warmup_seconds;
    if (state.first_response_seen) {
      if (counted) ++queries_succeeded_;
      return;
    }
    if (counted) ++request_timeouts_;
    if (retries_used >=
        static_cast<std::uint32_t>(injector_.plan().max_retries)) {
      if (counted) ++lane().queries_failed;
      return;
    }
    ScheduleIn(injector_.RetryBackoff(static_cast<int>(retries_used) + 1),
               kRetrySubmit, user, root, retries_used + 1);
  }

  /// Backed-off retry of a timed-out flood query: a fresh qid re-floods
  /// the network (duplicate tables have marked the root qid), mapped
  /// back to the root via ring_root_ exactly like expanding-ring
  /// retries.
  void OnRetrySubmit(std::uint32_t user, std::uint64_t root,
                     std::uint32_t retry_number) {
    QueryState* found = FindW(root);
    if (found == nullptr) return;
    QueryState& state = *found;
    const bool counted = state.submit_time >= options_.warmup_seconds;
    if (state.first_response_seen) {
      // A response raced the backoff: the query succeeded after all.
      if (counted) ++queries_succeeded_;
      return;
    }
    if (IsHeadRole(user) && !HeadAlive(user)) {
      // The submitting partner-user died with its state.
      if (counted) ++lane().queries_failed;
      return;
    }
    const std::uint64_t retry_qid = MakeQid(user);
    SetRootW(retry_qid, root);
    if (counted) ++retries_;
    if (!SubmitWithFailover(user, retry_qid, state.query_class,
                            static_cast<std::uint32_t>(ttl_ + 1))) {
      if (counted) ++lane().queries_failed;
      return;
    }
    ScheduleIn(injector_.plan().request_timeout_seconds, kRequestCheck, user,
               root, retry_number);
  }

  // --- In-simulation adaptation (rules I-III as protocol events) ---------------

  /// The node's measured load over the current window, in the physical
  /// units the rule predicates use (bps / Hz). Invalid until any time
  /// has elapsed in the window.
  AdaptiveController::LoadSample WindowLoad(std::uint32_t node) const {
    AdaptiveController::LoadSample s;
    const double elapsed = lane().now - window_start_;
    if (elapsed <= 0.0) return s;
    const double inv = 1.0 / elapsed;
    s.valid = true;
    // total_bps keeps its historical single-rounding expression — the
    // directional fields are new and must not perturb it bitwise.
    s.total_bps = BytesPerSecToBps(
        (adapt_in_bytes_[node] + adapt_out_bytes_[node]) * inv);
    s.in_bps = BytesPerSecToBps(adapt_in_bytes_[node] * inv);
    s.out_bps = BytesPerSecToBps(adapt_out_bytes_[node] * inv);
    s.proc_hz = inputs_.costs.UnitsToHz(adapt_units_[node] * inv);
    return s;
  }

  /// Packs a LoadReport payload (two float32 fields, matching the wire
  /// message in proto/messages.h) into an event argument.
  static std::uint64_t PackLoad(const AdaptiveController::LoadSample& s) {
    const auto hi =
        std::bit_cast<std::uint32_t>(static_cast<float>(s.total_bps));
    const auto lo =
        std::bit_cast<std::uint32_t>(static_cast<float>(s.proc_hz));
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
  }

  /// Every live head probes every overlay neighbor for its load.
  void OnAdaptProbeTick() {
    ScheduleIn(options_.adaptive.probe_interval_seconds, kAdaptProbeTick, 0);
    for (std::size_t c = 0; c < adaptive_ctrl_->NumClusterSlots(); ++c) {
      if (adaptive_ctrl_->Dead(c)) continue;
      const std::uint32_t prober = LiveHeadOf(c);
      if (prober == kSelfUpstream) continue;
      for (const std::uint32_t nb : adaptive_ctrl_->NeighborsOf(c)) {
        const std::uint32_t target = adaptive_ctrl_->HeadOf(nb);
        if (target == AdaptiveController::kNoHead) continue;
        AcctSend(prober, Msg::kProbe, probe_bytes_, send_ctl_ + MuxOf(prober));
        ++adapt_probes_sent_;
        Deliver(options_.hop_latency_seconds, kAdaptProbeArrive, target,
                /*a=*/c);
      }
    }
  }

  void OnAdaptProbeArrive(std::uint32_t node, std::uint32_t prober_cluster) {
    if (!IsHeadRole(node) || !HeadAlive(node)) return;
    AcctRecv(node, Msg::kProbe, probe_bytes_, recv_ctl_ + MuxOf(node));
    const std::uint32_t target = LiveHeadOf(prober_cluster);
    if (target == kSelfUpstream) return;  // The prober vanished meanwhile.
    AcctSend(node, Msg::kReport, report_bytes_, send_ctl_ + MuxOf(node));
    Deliver(options_.hop_latency_seconds, kAdaptReportArrive, target,
            /*a=*/adaptive_ctrl_->ClusterOfNode(node),
            /*b=*/PackLoad(WindowLoad(node)));
  }

  void OnAdaptReportArrive(std::uint32_t node, std::uint32_t reporter_cluster,
                           std::uint64_t packed) {
    if (!IsHeadRole(node) || !HeadAlive(node)) return;
    AcctRecv(node, Msg::kReport, report_bytes_, recv_ctl_ + MuxOf(node));
    ++adapt_reports_received_;
    const auto total =
        std::bit_cast<float>(static_cast<std::uint32_t>(packed >> 32));
    const auto proc =
        std::bit_cast<float>(static_cast<std::uint32_t>(packed & 0xffffffffu));
    adaptive_ctrl_->RecordReport(adaptive_ctrl_->ClusterOfNode(node),
                                 reporter_cluster, static_cast<double>(total),
                                 static_cast<double>(proc));
  }

  /// One decision round: feeds each live head's window load to the
  /// controller, then turns the returned actions into protocol traffic
  /// (re-upload joins, the peering handshake, the TTL broadcast).
  void OnAdaptRound() {
    ScheduleIn(options_.adaptive.decision_interval_seconds, kAdaptRound, 0);
    ++adapt_rounds_;
    std::vector<AdaptiveController::LoadSample> own_loads(
        adaptive_ctrl_->NumClusterSlots());
    for (std::size_t c = 0; c < own_loads.size(); ++c) {
      if (adaptive_ctrl_->Dead(c)) continue;
      const std::uint32_t head = LiveHeadOf(c);
      if (head == kSelfUpstream) continue;  // Down: no sample this round.
      own_loads[c] = WindowLoad(head);
    }
    const AdaptiveController::RoundActions actions =
        adaptive_ctrl_->RunRound(own_loads, ttl_);
    // Slots appended by splits need per-cluster state storage — and
    // per-cluster fault bookkeeping: a resigned partner-range head can
    // later be re-promoted into a fresh slot, where its still-ticking
    // crash clock indexes these vectors by the new cluster id.
    state_.EnsureClusters(adaptive_ctrl_->NumClusterSlots());
    if (disc_ && disc_dup_.size() < adaptive_ctrl_->NumClusterSlots()) {
      disc_dup_.resize(adaptive_ctrl_->NumClusterSlots());
    }
    alive_partners_.resize(adaptive_ctrl_->NumClusterSlots(), 1u);
    outage_start_.resize(adaptive_ctrl_->NumClusterSlots(), -1.0);

    for (const auto& split : actions.splits) {
      ++adapt_splits_;
      // The promoted head indexes its own collection, and every moved
      // member re-uploads its metadata to it (the split's join storm).
      AcctProc(split.promoted,
               inputs_.costs.ProcessJoinUnits(
                   adaptive_ctrl_->FilesOfNode(split.promoted)));
      for (const std::uint32_t member : split.moved) {
        ++adapt_client_moves_;
        SendMemberUpload(split.promoted, member);
      }
    }
    for (const auto& coalesce : actions.coalesces) {
      ++adapt_coalesces_;
      const std::uint32_t target = LiveHeadOf(coalesce.into);
      if (target == kSelfUpstream) continue;  // Uploads lost.
      ++adapt_client_moves_;  // The resigned head moves too.
      SendMemberUpload(target, coalesce.resigned_head);
      for (const std::uint32_t member : coalesce.moved) {
        ++adapt_client_moves_;
        SendMemberUpload(target, member);
      }
    }
    for (const auto& demote : actions.demotes) {
      ++adapt_demotions_;
      // Leadership handover: the elected head indexes its own
      // collection, and the whole remaining membership (including the
      // demoted head, now an ordinary client) re-uploads to it. These
      // uploads are part of the handover storm, not client migrations,
      // so adapt_client_moves_ stays untouched.
      AcctProc(demote.new_head,
               inputs_.costs.ProcessJoinUnits(
                   adaptive_ctrl_->FilesOfNode(demote.new_head)));
      for (const std::uint32_t member :
           adaptive_ctrl_->MembersOf(demote.cluster)) {
        SendMemberUpload(demote.new_head, member);
      }
    }
    for (const auto& edge : actions.edges) {
      ++adapt_edges_added_;
      // Peering handshake: one probe across the new edge primes the
      // neighbor-report exchange.
      const std::uint32_t a_head = LiveHeadOf(edge.a);
      const std::uint32_t b_head = adaptive_ctrl_->HeadOf(edge.b);
      if (a_head == kSelfUpstream || b_head == AdaptiveController::kNoHead) {
        continue;
      }
      AcctSend(a_head, Msg::kProbe, probe_bytes_, send_ctl_ + MuxOf(a_head));
      ++adapt_probes_sent_;
      Deliver(options_.hop_latency_seconds, kAdaptProbeArrive, b_head,
              /*a=*/edge.a);
    }
    if (actions.ttl_decreased) {
      ++adapt_ttl_decreases_;
      ttl_ = actions.new_ttl;
      // Broadcast the new TTL across the overlay: every live head
      // tells every neighbor.
      for (std::size_t c = 0; c < adaptive_ctrl_->NumClusterSlots(); ++c) {
        if (adaptive_ctrl_->Dead(c)) continue;
        const std::uint32_t head = LiveHeadOf(c);
        if (head == kSelfUpstream) continue;
        for (const std::uint32_t nb : adaptive_ctrl_->NeighborsOf(c)) {
          const std::uint32_t target = adaptive_ctrl_->HeadOf(nb);
          if (target == AdaptiveController::kNoHead) continue;
          AcctSend(head, Msg::kControl, ttl_update_bytes_,
                   send_ctl_ + MuxOf(head));
          Deliver(options_.hop_latency_seconds, kAdaptTtlArrive, target);
        }
      }
    }
    // Convergence = the trailing streak of quiescent rounds reaching
    // the end of the run; converged_round is the streak's first round.
    if (actions.quiescent) {
      if (!adapt_converged_) {
        adapt_converged_ = true;
        adapt_converged_round_ = adapt_rounds_;
      }
    } else {
      adapt_converged_ = false;
      adapt_converged_round_ = 0;
    }
    // Start the next measurement window.
    std::fill(adapt_in_bytes_.begin(), adapt_in_bytes_.end(), 0.0);
    std::fill(adapt_out_bytes_.begin(), adapt_out_bytes_.end(), 0.0);
    std::fill(adapt_units_.begin(), adapt_units_.end(), 0.0);
    window_start_ = lane().now;
  }

  void OnAdaptTtlArrive(std::uint32_t node) {
    if (!IsHeadRole(node) || !HeadAlive(node)) return;
    AcctRecv(node, Msg::kControl, ttl_update_bytes_, recv_ctl_ + MuxOf(node));
  }

  // --- Capacity observation windows (DESIGN.md §15) ----------------------------

  /// Closes one utilization window: every node's windowed load is
  /// mapped onto its sampled capacity via UtilizationOf. A window is
  /// folded into the report only when it lies entirely inside
  /// measurement (it opened at or after warmup); the per-node overload
  /// flag is tracked across every window regardless, so episode
  /// counting at the measurement boundary sees the true prior state.
  void OnCapacityWindow() {
    const double elapsed = lane().now - cap_window_start_;
    ScheduleIn(options_.capacity.window_seconds, kCapacityWindow, 0);
    if (elapsed > 0.0) {
      const bool fold = cap_window_start_ >= options_.warmup_seconds;
      const double inv = 1.0 / elapsed;
      for (std::uint32_t node = 0; node < TotalNodes(); ++node) {
        const double util = UtilizationOf(
            node_capacity_[node], BytesPerSecToBps(cap_in_bytes_[node] * inv),
            BytesPerSecToBps(cap_out_bytes_[node] * inv),
            inputs_.costs.UnitsToHz(cap_units_[node] * inv));
        const bool over = util > options_.capacity.overload_utilization;
        if (fold) {
          ++cap_node_samples_;
          cap_util_sum_ += util;
          if (over) {
            ++cap_over_samples_;
            if (cap_overloaded_[node] == 0) ++cap_overload_episodes_;
          }
          // Super-peer cut: the nodes currently carrying the head role
          // (live partners; under adaptation, the controller's heads).
          if (IsHeadRole(node) && HeadAlive(node)) {
            ++cap_sp_samples_;
            cap_sp_util_sum_ += util;
            if (over) ++cap_sp_over_samples_;
            cap_sp_util_hist_.Observe(util);
          }
        }
        cap_overloaded_[node] = over ? 1 : 0;
      }
      if (fold) ++cap_windows_;
    }
    std::fill(cap_in_bytes_.begin(), cap_in_bytes_.end(), 0.0);
    std::fill(cap_out_bytes_.begin(), cap_out_bytes_.end(), 0.0);
    std::fill(cap_units_.begin(), cap_units_.end(), 0.0);
    cap_window_start_ = lane().now;
  }

  /// p99 super-peer utilization, read conservatively off the histogram
  /// bucket upper bounds (the overflow bucket reports the last bound).
  double CapacitySpUtilP99() const {
    const std::uint64_t total = cap_sp_util_hist_.count();
    if (total == 0) return 0.0;
    const auto want = static_cast<std::uint64_t>(
        std::ceil(0.99 * static_cast<double>(total)));
    const std::vector<double>& bounds = cap_sp_util_hist_.upper_bounds();
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < bounds.size(); ++b) {
      seen += cap_sp_util_hist_.bucket_counts()[b];
      if (seen >= want) return bounds[b];
    }
    return bounds.back();
  }

  /// Mean overlay degree of the static topology (the "final" network
  /// of a non-adaptive run).
  double StaticAvgOutdegree() const {
    if (inst_.topology.is_complete()) return static_cast<double>(n_ - 1);
    double sum = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      sum += static_cast<double>(
          inst_.topology.graph().Neighbors(static_cast<NodeId>(i)).size());
    }
    return sum / static_cast<double>(n_);
  }

  // --- Finalization --------------------------------------------------------------
  SimReport Finalize(double measured_seconds) {
    // Every user-visible tally reads the canonical index-order fold of
    // the lanes: a legacy run folds its single lane unchanged, and a
    // sharded run's fold is shard/thread-count-invariant (DESIGN.md
    // §12, obs/shard_merge.h).
    const Lane agg = FoldedLanes();
    // Close outages still open at the end of the run (adaptation can
    // have grown the slot count past the instance's n clusters).
    for (std::size_t i = 0; i < outage_start_.size(); ++i) {
      if (outage_start_[i] >= 0.0) AccumulateOutage(i, agg.now);
    }
    if (fault_active_) {
      // Clients still orphaned at the end accrue their disconnected
      // time but never recovered — no latency observation.
      for (std::uint32_t c = 0; c < num_clients_; ++c) {
        AccrueOrphanTime(c, /*observe_latency=*/false);
      }
    }

    SimReport report;
    report.measured_seconds = measured_seconds;
    report.events_scheduled = agg.events_scheduled;
    report.events_dispatched = agg.events_dispatched;
    report.queue_depth_hwm = queue_depth_hwm_;
    const double inv_t =
        measured_seconds > 0.0 ? 1.0 / measured_seconds : 0.0;
    const auto to_load = [&](std::uint32_t node) {
      LoadVector lv;
      lv.in_bps = BytesPerSecToBps(in_bytes_[node] * inv_t);
      lv.out_bps = BytesPerSecToBps(out_bytes_[node] * inv_t);
      lv.proc_hz = inputs_.costs.UnitsToHz(units_[node] * inv_t);
      return lv;
    };
    report.partner_load.resize(num_partners_);
    for (std::uint32_t p = 0; p < num_partners_; ++p) {
      report.partner_load[p] = to_load(p);
      report.aggregate += report.partner_load[p];
    }
    report.client_load.resize(num_clients_);
    for (std::uint32_t c = 0; c < num_clients_; ++c) {
      report.client_load[c] =
          to_load(static_cast<std::uint32_t>(num_partners_ + c));
      report.aggregate += report.client_load[c];
    }
    report.queries_submitted = agg.queries_submitted;
    report.responses_delivered = agg.responses_delivered;
    report.duplicate_queries = agg.duplicate_queries;
    const std::uint64_t result_queries =
        options_.strategy == SearchStrategy::kExpandingRing
            ? agg.ring_queries_finished
            : agg.queries_submitted;
    if (result_queries > 0) {
      report.mean_results_per_query =
          agg.results_sum / static_cast<double>(result_queries);
    }
    if (agg.responses_delivered > 0) {
      report.mean_response_hops =
          agg.hops_sum / static_cast<double>(agg.responses_delivered);
    }
    if (agg.first_responses > 0) {
      // Latency is the one genuinely fractional sum: a sharded run
      // accumulates it per home domain and folds in domain order so the
      // FP addition order is canonical.
      const double latency_sum =
          disc_ ? FoldShardSums(latency_by_dom_) : latency_sum_;
      report.mean_first_response_latency =
          latency_sum / static_cast<double>(agg.first_responses);
    }
    if (agg.ring_queries_finished > 0) {
      report.mean_rings_per_query =
          agg.rings_sum / static_cast<double>(agg.ring_queries_finished);
    }
    report.partner_failures = partner_failures_;
    report.partner_recoveries = partner_recoveries_;
    report.cluster_outages = cluster_outages_;
    const double cluster_seconds =
        measured_seconds * static_cast<double>(n_);
    if (cluster_seconds > 0.0) {
      report.cluster_outage_fraction = outage_seconds_ / cluster_seconds;
    }
    const double client_seconds =
        measured_seconds * static_cast<double>(num_clients_);
    if (client_seconds > 0.0) {
      report.client_disconnected_fraction =
          disconnected_client_seconds_ / client_seconds;
    }
    report.faults_crashes = crashes_;
    report.faults_messages_dropped = agg.messages_dropped;
    report.faults_request_timeouts = request_timeouts_;
    report.faults_retries = retries_;
    report.faults_failover_episodes = agg.failover_episodes;
    report.faults_client_rejoins = client_rejoins_;
    report.queries_succeeded = queries_succeeded_;
    report.queries_failed = agg.queries_failed;
    const std::uint64_t completed = queries_succeeded_ + agg.queries_failed;
    if (completed > 0) {
      report.query_success_rate = static_cast<double>(queries_succeeded_) /
                                  static_cast<double>(completed);
    }
    report.mean_recovery_latency_seconds = recovery_latency_hist_.Mean();
    report.adapt_rounds = adapt_rounds_;
    report.adapt_splits = adapt_splits_;
    report.adapt_coalesces = adapt_coalesces_;
    report.adapt_edges_added = adapt_edges_added_;
    report.adapt_ttl_decreases = adapt_ttl_decreases_;
    report.adapt_probes_sent = adapt_probes_sent_;
    report.adapt_reports_received = adapt_reports_received_;
    report.adapt_client_moves = adapt_client_moves_;
    report.adapt_converged = adapt_converged_;
    report.adapt_converged_round = adapt_converged_round_;
    if (adaptive_) {
      report.final_clusters =
          static_cast<std::uint64_t>(adaptive_ctrl_->LiveClusters());
      report.final_ttl = ttl_;
      report.final_avg_outdegree = adaptive_ctrl_->AvgOutdegree();
    } else {
      report.final_clusters = static_cast<std::uint64_t>(n_);
      report.final_ttl = config_.ttl;
      report.final_avg_outdegree = StaticAvgOutdegree();
    }
    report.routing_digest_refreshes = routing_digest_refreshes_;
    report.routing_digest_announces =
        agg.msg_sent[static_cast<std::size_t>(Msg::kDigest)];
    report.routing_suppressed_forwards = routing_suppressed_forwards_;
    report.routing_biased_hops = routing_biased_hops_;
    if (consistency_active_) {
      report.consistency_changes = consistency_changes_;
      report.consistency_stale_results = consistency_stale_results_;
      report.consistency_fresh_results = consistency_fresh_results_;
      const std::uint64_t classified =
          consistency_stale_results_ + consistency_fresh_results_;
      if (classified > 0) {
        report.consistency_stale_hit_rate =
            static_cast<double>(consistency_stale_results_) /
            static_cast<double>(classified);
      }
      report.consistency_invalidations =
          agg.msg_sent[static_cast<std::size_t>(Msg::kInvalidate)];
      report.consistency_polls =
          agg.msg_sent[static_cast<std::size_t>(Msg::kPoll)];
      report.consistency_refresh_replies =
          agg.msg_sent[static_cast<std::size_t>(Msg::kRefresh)];
      // Maintenance bandwidth reconciles with the message counters by
      // construction: every consistency message has a fixed size.
      const double maintenance_bytes =
          static_cast<double>(report.consistency_invalidations) *
              invalidate_bytes_ +
          static_cast<double>(report.consistency_polls) *
              refresh_poll_bytes_ +
          static_cast<double>(report.consistency_refresh_replies) *
              refresh_reply_bytes_;
      report.consistency_maintenance_bytes_per_sec =
          maintenance_bytes * inv_t;
      report.consistency_mean_freshness_seconds = freshness_hist_.Mean();
      report.consistency_replica_pushes =
          agg.msg_sent[static_cast<std::size_t>(Msg::kReplica)];
      report.consistency_replica_records = consistency_replica_records_;
      report.consistency_replica_served = consistency_replica_served_;
      report.consistency_replication_bytes_per_sec =
          consistency_replication_bytes_ * inv_t;
    }
    report.adapt_demotions = adapt_demotions_;
    if (capacity_active_) {
      report.capacity_windows = cap_windows_;
      report.capacity_overload_episodes = cap_overload_episodes_;
      if (cap_node_samples_ > 0) {
        report.capacity_mean_utilization =
            cap_util_sum_ / static_cast<double>(cap_node_samples_);
        report.capacity_overloaded_fraction =
            static_cast<double>(cap_over_samples_) /
            static_cast<double>(cap_node_samples_);
      }
      if (cap_sp_samples_ > 0) {
        report.capacity_sp_mean_utilization =
            cap_sp_util_sum_ / static_cast<double>(cap_sp_samples_);
        report.capacity_sp_overloaded_fraction =
            static_cast<double>(cap_sp_over_samples_) /
            static_cast<double>(cap_sp_samples_);
      }
      report.capacity_sp_p99_utilization = CapacitySpUtilP99();
    }
    if (options_.metrics != nullptr) PublishMetrics(*options_.metrics);
    return report;
  }

  /// Publishes the run's tallies into the attached registry. Counters
  /// and the hop histogram cover the measurement window (warmup
  /// excluded), matching the SimReport fields they reconcile with;
  /// the event-queue high-water mark and the scheduled/dispatched
  /// counts cover the whole run. Values accumulate, so several runs
  /// may share a registry.
  ///
  /// Instrument contract (mirrors eval.bfs.* in model/evaluator.h):
  /// protocol-level instruments are bit-identical across parallelism;
  /// the sim.queue.* calendar internals and sim.state.* footprint
  /// gauges describe the implementation, so they are identical across
  /// parallelism but move with any change to the queue or the state
  /// containers. The sim.time.* timers are wall-clock (report-only nondeterminism,
  /// excluded from deterministic-section comparisons).
  void PublishMetrics(MetricsRegistry& m) const {
    const Lane agg = FoldedLanes();
    // The adaptation message classes (probe/report/control) exist in
    // the registry only for active plans, and the routing class
    // (digest) only for active routing layers.
    const std::size_t published =
        adaptive_ ? kNumAdaptMsgTypes : kNumBaseMsgTypes;
    for (std::size_t t = 0; t < published; ++t) {
      const std::string type = kMsgNames[t];
      m.GetCounter("sim.msg." + type + ".sent").Increment(agg.msg_sent[t]);
      m.GetCounter("sim.msg." + type + ".received").Increment(agg.msg_recv[t]);
    }
    if (routing_active_) {
      const auto t = static_cast<std::size_t>(Msg::kDigest);
      m.GetCounter("sim.msg.digest.sent").Increment(agg.msg_sent[t]);
      m.GetCounter("sim.msg.digest.received").Increment(agg.msg_recv[t]);
    }
    if (consistency_active_) {
      for (const Msg msg :
           {Msg::kInvalidate, Msg::kPoll, Msg::kRefresh, Msg::kReplica}) {
        const auto t = static_cast<std::size_t>(msg);
        const std::string type = kMsgNames[t];
        m.GetCounter("sim.msg." + type + ".sent").Increment(agg.msg_sent[t]);
        m.GetCounter("sim.msg." + type + ".received")
            .Increment(agg.msg_recv[t]);
      }
    }
    m.GetCounter("sim.queries.submitted").Increment(agg.queries_submitted);
    m.GetCounter("sim.queries.duplicate").Increment(agg.duplicate_queries);
    m.GetCounter("sim.responses.delivered").Increment(agg.responses_delivered);
    m.GetCounter("sim.churn.partner_failures").Increment(partner_failures_);
    m.GetCounter("sim.churn.partner_recoveries")
        .Increment(partner_recoveries_);
    m.GetCounter("sim.churn.cluster_outages").Increment(cluster_outages_);
    m.GetCounter("sim.events.dispatched").Increment(agg.events_dispatched);
    m.GetCounter("sim.queue.scheduled").Increment(agg.events_scheduled);
    m.GetGauge("sim.event_queue.depth_hwm")
        .SetMax(static_cast<double>(queue_depth_hwm_));
    m.GetCounter("sim.queue.resizes").Increment(queue_.resizes());
    m.GetCounter("sim.queue.day_steps").Increment(queue_.day_steps());
    m.GetCounter("sim.queue.slot_visits").Increment(queue_.slot_visits());
    m.GetCounter("sim.queue.global_scans").Increment(queue_.global_scans());
    m.GetGauge("sim.queue.buckets")
        .SetMax(static_cast<double>(queue_.num_buckets()));
    m.GetGauge("sim.queue.scratch_bytes")
        .SetMax(static_cast<double>(queue_.ApproxMemoryBytes()));
    m.GetCounter("sim.state.duplicate_entries")
        .Increment(state_.duplicate_entries());
    m.GetGauge("sim.state.scratch_bytes")
        .SetMax(static_cast<double>(state_.ApproxScratchBytes()));
    m.GetGauge("sim.state.live_roots")
        .SetMax(static_cast<double>(live_query_roots()));
    m.GetTimer("sim.time.init_seconds").Record(init_seconds_);
    m.GetTimer("sim.time.run_seconds").Record(run_seconds_);
    m.GetHistogram("sim.response.hops", HopHistogramBounds())
        .Merge(agg.hop_histogram);
    // Fault-layer instruments exist only for active plans, keeping the
    // inactive-plan registry surface bit-identical to a build without
    // the fault layer.
    if (fault_active_) {
      m.GetCounter("sim.faults.crashes").Increment(crashes_);
      m.GetCounter("sim.faults.messages_dropped").Increment(agg.messages_dropped);
      m.GetCounter("sim.faults.request_timeouts").Increment(request_timeouts_);
      m.GetCounter("sim.faults.retries").Increment(retries_);
      m.GetCounter("sim.faults.failover_episodes")
          .Increment(agg.failover_episodes);
      m.GetCounter("sim.faults.client_rejoins").Increment(client_rejoins_);
      m.GetCounter("sim.faults.queries.succeeded")
          .Increment(queries_succeeded_);
      m.GetCounter("sim.faults.queries.failed").Increment(agg.queries_failed);
      m.GetHistogram("sim.faults.recovery_latency_seconds",
                     RecoveryLatencyBounds())
          .Merge(recovery_latency_hist_);
      m.GetHistogram("sim.faults.orphaned_clients", OrphanCountBounds())
          .Merge(orphaned_clients_hist_);
    }
    // Adaptation instruments, reconciled 1:1 with the SimReport adapt_*
    // fields; like the fault layer they exist only for active plans.
    if (adaptive_) {
      m.GetCounter("sim.adaptive.rounds").Increment(adapt_rounds_);
      m.GetCounter("sim.adaptive.splits").Increment(adapt_splits_);
      m.GetCounter("sim.adaptive.coalesces").Increment(adapt_coalesces_);
      m.GetCounter("sim.adaptive.edges_added").Increment(adapt_edges_added_);
      m.GetCounter("sim.adaptive.ttl_decreases")
          .Increment(adapt_ttl_decreases_);
      m.GetCounter("sim.adaptive.probes_sent").Increment(adapt_probes_sent_);
      m.GetCounter("sim.adaptive.reports_received")
          .Increment(adapt_reports_received_);
      m.GetCounter("sim.adaptive.client_moves").Increment(adapt_client_moves_);
      m.GetGauge("sim.adaptive.converged")
          .SetMax(adapt_converged_ ? 1.0 : 0.0);
      m.GetGauge("sim.adaptive.converged_round")
          .SetMax(static_cast<double>(adapt_converged_round_));
      m.GetGauge("sim.adaptive.final_clusters")
          .SetMax(static_cast<double>(adaptive_ctrl_->LiveClusters()));
      m.GetGauge("sim.adaptive.final_ttl").SetMax(static_cast<double>(ttl_));
    }
    // Routing instruments, reconciled 1:1 with the SimReport routing_*
    // fields; like the fault and adaptation layers they exist only for
    // active routing layers.
    if (routing_active_) {
      m.GetCounter("sim.routing.digest_refreshes")
          .Increment(routing_digest_refreshes_);
      m.GetCounter("sim.routing.suppressed_forwards")
          .Increment(routing_suppressed_forwards_);
      m.GetCounter("sim.routing.biased_hops").Increment(routing_biased_hops_);
      m.GetGauge("sim.routing.digests")
          .SetMax(static_cast<double>(routing_->NumDigests()));
      m.GetGauge("sim.routing.mean_fill").Set(routing_->MeanFillFraction());
      m.GetGauge("sim.routing.est_fp_rate")
          .Set(routing_->MeanFalsePositiveRate());
    }
    // Consistency instruments, reconciled 1:1 with the SimReport
    // consistency_* fields; like the other layers they exist only for
    // active plans.
    if (consistency_active_) {
      m.GetCounter("sim.consistency.changes").Increment(consistency_changes_);
      m.GetCounter("sim.consistency.stale_results")
          .Increment(consistency_stale_results_);
      m.GetCounter("sim.consistency.fresh_results")
          .Increment(consistency_fresh_results_);
      m.GetCounter("sim.consistency.replica_records")
          .Increment(consistency_replica_records_);
      m.GetCounter("sim.consistency.replica_served")
          .Increment(consistency_replica_served_);
      m.GetHistogram("sim.consistency.freshness_latency_seconds",
                     FreshnessLatencyBounds())
          .Merge(freshness_hist_);
    }
    // Capacity instruments, reconciled 1:1 with the SimReport
    // capacity_* fields; like the other layers they exist only for
    // active plans. The demotion counter lives here (not in the
    // adaptation block) because demotions only fire under an active
    // capacity plan — an adaptation-only registry surface is unchanged.
    if (capacity_active_) {
      m.GetCounter("sim.capacity.windows").Increment(cap_windows_);
      m.GetCounter("sim.capacity.peer_samples").Increment(cap_node_samples_);
      m.GetCounter("sim.capacity.peer_overloaded_samples")
          .Increment(cap_over_samples_);
      m.GetCounter("sim.capacity.overload_episodes")
          .Increment(cap_overload_episodes_);
      m.GetCounter("sim.capacity.sp_samples").Increment(cap_sp_samples_);
      m.GetCounter("sim.capacity.sp_overloaded_samples")
          .Increment(cap_sp_over_samples_);
      m.GetGauge("sim.capacity.mean_utilization")
          .Set(cap_node_samples_ > 0
                   ? cap_util_sum_ / static_cast<double>(cap_node_samples_)
                   : 0.0);
      m.GetGauge("sim.capacity.sp_mean_utilization")
          .Set(cap_sp_samples_ > 0
                   ? cap_sp_util_sum_ / static_cast<double>(cap_sp_samples_)
                   : 0.0);
      m.GetGauge("sim.capacity.sp_p99_utilization").Set(CapacitySpUtilP99());
      m.GetHistogram("sim.capacity.sp_utilization",
                     CapacityUtilizationBounds())
          .Merge(cap_sp_util_hist_);
      if (adaptive_) {
        m.GetCounter("sim.adaptive.demotions").Increment(adapt_demotions_);
      }
    }
    // Sharded-discipline instruments (DESIGN.md §12). The configuration
    // gauges describe the chosen shard map — the one deliberately
    // configuration-dependent surface, excluded from the shard-
    // invariance digests; the cell count and the lookahead audit are
    // protocol-deterministic (tests/sim/sim_property_test.cc pins the
    // audit at zero violations).
    if (disc_) {
      m.GetGauge("sim.shard.count").SetMax(static_cast<double>(num_shards_));
      m.GetGauge("sim.shard.threads")
          .SetMax(static_cast<double>(pool_->num_threads()));
      m.GetCounter("sim.shard.cells").Increment(cell_index_);
      m.GetCounter("sim.shard.lookahead_violations")
          .Increment(lookahead_violations_);
      m.GetGauge("sim.shard.min_merge_margin")
          .Set(std::isfinite(min_merge_margin_) ? min_merge_margin_ : 0.0);
    }
  }

  // --- Sharded-discipline machinery (DESIGN.md §12) --------------------------

  /// Per-shard execution lane: the simulated clock, the measuring flag,
  /// every tally a data-phase handler may touch, and the cross-shard
  /// outboxes. The legacy engine runs entirely on lanes_[0]; a sharded
  /// run gives each shard its own lane, written only by the thread that
  /// owns the shard, and folds the lanes in index order
  /// (obs/shard_merge.h) for everything user-visible.
  struct Lane {
    double now = 0.0;
    bool measuring = false;
    /// Domain whose event is executing: a cluster id during the data
    /// phase, kShardCtlDomain in control or legacy context. Selects
    /// the protocol/fault RNG streams and the emission-counter domain
    /// for scheduled events.
    std::uint32_t cur_domain = kShardCtlDomain;

    std::uint64_t queries_submitted = 0;
    std::uint64_t responses_delivered = 0;
    std::uint64_t duplicate_queries = 0;
    std::uint64_t first_responses = 0;
    std::uint64_t ring_queries_finished = 0;
    std::uint64_t messages_dropped = 0;
    std::uint64_t failover_episodes = 0;
    std::uint64_t queries_failed = 0;
    std::uint64_t events_scheduled = 0;
    std::uint64_t events_dispatched = 0;
    // Integer-valued double sums: folding is commutative-exact, so the
    // folded value is shard-count-invariant (obs/shard_merge.h).
    double results_sum = 0.0;
    double hops_sum = 0.0;
    double rings_sum = 0.0;
    std::array<std::uint64_t, kNumMsgTypes> msg_sent = {};
    std::array<std::uint64_t, kNumMsgTypes> msg_recv = {};
    Histogram hop_histogram{HopHistogramBounds()};

    std::vector<SimEvent> outbox;      // Cross-domain data sends this cell.
    std::vector<SimEvent> ctl_outbox;  // Control emissions this cell.
  };

  /// One lane's share of sharded exact retirement (DESIGN.md §11),
  /// written only by the thread draining that lane and kept beside the
  /// lanes, so folding their tallies never copies it.
  struct RetireLog {
    /// Net in-flight count change per qid since the last barrier fold;
    /// a key touched with no net change is still retirement-checked.
    FlatMap64<std::int64_t> qid_delta;
    /// Clusters whose duplicate table this lane gave each live qid an
    /// entry in, until the qid retires.
    FlatMap64<std::vector<std::uint32_t>> seen_clusters;
  };
  RetireLog& retire_log() const {
    return retire_logs_[static_cast<std::size_t>(&lane() - lanes_.data())];
  }

  /// The lane of the currently executing context. Thread-local so the
  /// parallel phase resolves it without indirection through event
  /// plumbing; every public entry point pins it to lanes_[0] (the only
  /// lane of a legacy run) and the shard drains pin it per worker.
  Lane& lane() const { return *tls_lane_; }
  static thread_local Lane* tls_lane_;

  /// Protocol-decision stream: the single legacy stream, or the
  /// executing domain's stream under the sharded discipline (the
  /// control context draws from a dedicated control stream). Stream
  /// choice is a pure function of the executing event, never of shard
  /// or thread count.
  Rng& ProtoRng() const {
    if (!disc_) return rng_;
    const std::uint32_t d = lane().cur_domain;
    return d == kShardCtlDomain ? ctl_rng_ : proto_rngs_[d];
  }
  /// Fault-decision stream, split the same way (drop/jitter draws must
  /// happen on the emitting domain's stream to stay order-free).
  Rng& FaultRng() {
    if (!disc_) return injector_.stream();
    const std::uint32_t d = lane().cur_domain;
    return d == kShardCtlDomain ? injector_.stream() : fault_rngs_[d];
  }

  /// A node's home domain: its cluster in the static layout. Partners
  /// keep their slot's cluster; clients keep their configured home even
  /// when a fault-mode rejoin relocates them (domain ownership must
  /// never move between shards mid-run).
  std::uint32_t HomeDomainOf(std::uint32_t node) const {
    if (node < num_partners_) return static_cast<std::uint32_t>(node / k_);
    return client_cluster_[node - num_partners_];
  }

  void DiscRunUntil(double sim_time);
  void ParallelDrain(double bound);
  void DrainShardUntil(std::size_t shard, double bound);
  void DrainControlUntil(double bound);
  void MergeOutboxes(double cell_close);
  Lane FoldedLanes() const;
  void FoldRetirement();
  void DiscRetireIfIdle(std::uint64_t qid, double now);
  void EraseRetiredDuplicates();
  void RebuildInFlightCounts(const std::vector<SimEvent>& events, double now);
  void DiscSaveState(CheckpointWriter& w) const;
  bool DiscLoadState(CheckpointReader& r);

  // --- State -----------------------------------------------------------------
  NetworkInstance inst_;
  Configuration config_;
  ModelInputs inputs_;
  SimOptions options_;
  mutable Rng rng_;

  const std::size_t n_;
  const std::size_t k_;
  const std::size_t num_partners_;
  const std::size_t num_clients_;

  double qbytes_ = 0.0, sendq_ = 0.0, recvq_ = 0.0;
  std::vector<double> conn_;
  double client_conn_ = 1.0;

  CalendarQueue queue_;
  /// Duplicate tables, per-root query state and retry-root mapping.
  SimState state_;
  /// Execution lanes: exactly one for the legacy engine, one per shard
  /// under the sharded discipline. The clock, measuring flag and
  /// data-phase tallies live here (see struct Lane above). Mutable so
  /// const entry points (SaveState) can pin the thread-local lane.
  mutable std::vector<Lane> lanes_ = std::vector<Lane>(1);
  // Streaming-mode lifecycle (Start / RunUntil* / FinalizeAt).
  bool started_ = false;
  bool finalized_ = false;
  /// Qids minted by the executing legacy dispatch, retirement-checked
  /// once it returns.
  std::vector<std::uint64_t> minted_;

  std::vector<double> in_bytes_, out_bytes_, units_;
  std::vector<std::uint32_t> client_cluster_;
  std::vector<std::uint8_t> partner_alive_;
  std::vector<std::uint32_t> alive_partners_;
  std::vector<double> outage_start_;
  std::vector<std::uint32_t> rr_;

  std::uint64_t partner_failures_ = 0;
  std::uint64_t cluster_outages_ = 0;
  double disconnected_client_seconds_ = 0.0;

  // Per-query latency sum (legacy engine; a sharded run accumulates
  // per-domain into latency_by_dom_ so the fold order is canonical).
  double latency_sum_ = 0.0;

  // Observability tallies (see PublishMetrics). All of these are
  // derived purely from protocol actions, so they are bit-identical
  // across runs with the same seed. Data-phase tallies live in the
  // lanes; the globals below are only written single-threaded (legacy
  // runs, control phase, or barrier bookkeeping).
  std::uint64_t partner_recoveries_ = 0;
  std::size_t queue_depth_hwm_ = 0;
  // Wall-clock phase timers (report-only; never feed back into the
  // simulation — see the WallTimer contract in obs/metrics.h).
  double init_seconds_ = 0.0;
  double run_seconds_ = 0.0;

  // Fault-injection & recovery state. The injector owns its own salted
  // RNG stream; everything below it is consulted only when
  // fault_active_ (pay-for-what-you-use determinism).
  FaultInjector injector_;
  const bool fault_active_;
  const bool recovery_enabled_;
  std::vector<std::uint32_t> client_current_cluster_;  // Per client index.
  std::vector<std::vector<std::uint32_t>> cluster_members_;
  std::vector<double> orphaned_since_;  // -1 when connected.
  double outage_seconds_ = 0.0;
  std::uint64_t crashes_ = 0;
  std::uint64_t request_timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t client_rejoins_ = 0;
  std::uint64_t queries_succeeded_ = 0;
  Histogram recovery_latency_hist_{RecoveryLatencyBounds()};
  Histogram orphaned_clients_hist_{OrphanCountBounds()};

  // In-simulation adaptation state. When active, the controller is the
  // single source of truth for membership, head roles and the overlay;
  // everything below is consulted only when adaptive_ (the same
  // pay-for-what-you-use determinism contract as the fault block).
  const bool adaptive_;
  std::unique_ptr<AdaptiveController> adaptive_ctrl_;
  /// The live flood TTL: config_.ttl until a rule III broadcast lowers
  /// it.
  int ttl_;
  // Control-message costs, cached from the CostTable at construction.
  double probe_bytes_ = 0.0, report_bytes_ = 0.0, ttl_update_bytes_ = 0.0;
  double send_ctl_ = 0.0, recv_ctl_ = 0.0;
  /// Per-node traffic accumulated since the last decision round — the
  /// measured window loads rules I-III act on. Unlike the report
  /// accounting these accrue during warmup too.
  std::vector<double> adapt_in_bytes_, adapt_out_bytes_, adapt_units_;
  double window_start_ = 0.0;
  std::uint64_t adapt_rounds_ = 0;
  std::uint64_t adapt_splits_ = 0;
  std::uint64_t adapt_coalesces_ = 0;
  std::uint64_t adapt_edges_added_ = 0;
  std::uint64_t adapt_ttl_decreases_ = 0;
  std::uint64_t adapt_probes_sent_ = 0;
  std::uint64_t adapt_reports_received_ = 0;
  std::uint64_t adapt_client_moves_ = 0;
  std::uint64_t adapt_demotions_ = 0;
  bool adapt_converged_ = false;
  std::uint64_t adapt_converged_round_ = 0;

  // Content-aware routing state (index/routing_index.h). Consulted
  // only when routing_active_ (the same pay-for-what-you-use
  // determinism contract as the fault and adaptation blocks).
  // Validate() confines the layer to the legacy engine, so every tally
  // below is single-threaded.
  const bool routing_active_;
  std::unique_ptr<RoutingTable> routing_;
  double digest_bytes_ = 0.0;  ///< Wire bytes of one DigestAnnounce.
  std::uint64_t routing_digest_refreshes_ = 0;
  std::uint64_t routing_suppressed_forwards_ = 0;
  std::uint64_t routing_biased_hops_ = 0;
  /// Scratch for the kWalker digest-positive neighbor subset.
  std::vector<std::uint32_t> walk_scratch_;

  // Index-consistency & replication state (model/consistency.h,
  // DESIGN.md §14). Consulted only when consistency_active_ (the same
  // pay-for-what-you-use determinism contract as the fault, adaptation
  // and routing blocks). Validate() confines the layer to the legacy
  // engine with static membership, so every tally below is
  // single-threaded and clusters never change composition.
  const bool consistency_active_;
  /// Dedicated decision stream (change clocks, stale classification,
  /// replica serving), salted from the run seed.
  Rng cons_rng_{0};
  // Consistency message costs, cached from the CostTable.
  double invalidate_bytes_ = 0.0;
  double refresh_poll_bytes_ = 0.0;
  double refresh_reply_bytes_ = 0.0;
  /// Per-cluster stale-record counters (push / none schemes).
  std::vector<double> cons_stale_;
  /// Pull scheme: per-cluster FIFO of change timestamps plus the index
  /// of the first unrefreshed entry (a poll round pops the prefix of
  /// changes made before its tick).
  std::vector<std::vector<double>> cons_pending_;
  std::vector<std::size_t> cons_head_;
  /// Per-cluster replica-record stores (active ReplicationPlan only).
  std::vector<double> cons_replicas_;
  /// Scratch for one push's distinct replica targets.
  std::vector<std::size_t> replica_targets_;
  std::uint64_t consistency_changes_ = 0;
  std::uint64_t consistency_stale_results_ = 0;
  std::uint64_t consistency_fresh_results_ = 0;
  std::uint64_t consistency_replica_records_ = 0;
  std::uint64_t consistency_replica_served_ = 0;
  double consistency_replication_bytes_ = 0.0;
  Histogram freshness_hist_{FreshnessLatencyBounds()};

  // Heterogeneous-capacity state (CapacityPlan; DESIGN.md §15).
  // Consulted only when capacity_active_ — the same
  // pay-for-what-you-use determinism contract as the other layers.
  // Validate() confines the layer to the legacy engine, so the window
  // bookkeeping below is single-threaded.
  const bool capacity_active_;
  /// Per-node sampled capacities, drawn from the plan's dedicated
  /// salted stream at construction (never from the protocol streams).
  std::vector<PeerCapacity> node_capacity_;
  /// Current utilization-window accumulators (bytes / cost units);
  /// reset when each window closes. Like the adapt_* accumulators they
  /// accrue during warmup too.
  std::vector<double> cap_in_bytes_;
  std::vector<double> cap_out_bytes_;
  std::vector<double> cap_units_;
  double cap_window_start_ = 0.0;
  /// Per-node overload flag as of the last closed window (0/1); the
  /// rising edge counts an overload episode.
  std::vector<std::uint8_t> cap_overloaded_;
  // Folded measurement-phase tallies (windows fully past warmup).
  std::uint64_t cap_windows_ = 0;
  std::uint64_t cap_node_samples_ = 0;
  std::uint64_t cap_over_samples_ = 0;
  std::uint64_t cap_overload_episodes_ = 0;
  std::uint64_t cap_sp_samples_ = 0;
  std::uint64_t cap_sp_over_samples_ = 0;
  double cap_util_sum_ = 0.0;
  double cap_sp_util_sum_ = 0.0;
  Histogram cap_sp_util_hist_{CapacityUtilizationBounds()};

  // Sharded-discipline state (DESIGN.md §12). Consulted only when
  // disc_; a legacy run never reads past this comment.
  bool disc_ = false;
  std::size_t num_shards_ = 1;   // S: shard s owns domains {d : d % S == s}.
  std::size_t num_threads_ = 1;  // T: worker threads draining the shards.
  double cell_width_ = 0.0;      // Lookahead window W = hop latency.
  std::uint64_t cell_index_ = 0; /// Completed synchronization cells.
  /// True while worker threads are draining shards; flips the
  /// cross-domain data send path from direct insert to outbox+merge.
  bool in_parallel_ = false;
  std::unique_ptr<ShardPool> pool_;
  /// One event queue per shard plus a dedicated control queue, all
  /// (time, key)-ordered via content-derived keys (SchedulePreKeyed).
  std::vector<CalendarQueue> shard_queues_;
  CalendarQueue ctl_queue_;
  /// Per-domain RNG streams (Rng::Salted from the run seed) and
  /// per-domain emission counters for event keys.
  mutable std::vector<Rng> proto_rngs_;
  std::vector<Rng> fault_rngs_;
  mutable Rng ctl_rng_{0};
  std::vector<std::uint64_t> ctr_dom_;
  std::uint64_t ctl_ctr_ = 0;
  /// Per-node query-id counters: disc qids are (user << 32 | counter)
  /// so every id is minted by its owner's shard without coordination.
  std::vector<std::uint32_t> user_qid_ctr_;
  /// Discipline-owned query state, sharded by home domain (SimState is
  /// keyed by globally sequential qids and cannot host the per-user id
  /// space): duplicate tables per cluster slot, root-query state and
  /// retry-root mapping per home domain.
  std::vector<FlatMap64<std::uint32_t>> disc_dup_;
  std::vector<FlatMap64<QueryState>> disc_state_;
  std::vector<FlatMap64<std::uint64_t>> disc_root_;
  /// Per-lane retirement logs (see RetireLog), one per shard.
  mutable std::vector<RetireLog> retire_logs_;
  /// Folded in-flight count per live disc qid (written only at
  /// barriers): the pending events carrying it, plus one per live qid
  /// bound to it.
  FlatMap64<std::int64_t> disc_live_;
  /// Qids retired by the current fold, whose duplicate entries
  /// EraseRetiredDuplicates removes.
  std::vector<std::uint64_t> disc_retired_;
  double disc_longest_lifetime_ = 0.0;
  /// Per-home-domain first-response latency sums, folded in domain
  /// order (FP addition is not associative; a canonical order makes
  /// the fold shard-count-invariant).
  std::vector<double> latency_by_dom_;
  /// Lookahead audit: min (arrival - cell close) over merged
  /// cross-shard events, and how many landed before the close by more
  /// than 1e-9 (must stay 0; tests/sim/sim_property_test.cc).
  double min_merge_margin_ = std::numeric_limits<double>::infinity();
  std::uint64_t lookahead_violations_ = 0;
};

thread_local Simulator::Impl::Lane* Simulator::Impl::tls_lane_ = nullptr;

/// Sharded main loop (DESIGN.md §12): conservative synchronization
/// cells of width W = hop latency. Every full cell drains all shards in
/// parallel up to the cell close, merges the cross-shard outboxes, then
/// runs the control phase at the barrier. A horizon inside the open
/// cell (a streaming window cut) drains and merges without closing the
/// cell, so any partitioning of RunUntil calls executes the identical
/// event sequence as one batch call.
void Simulator::Impl::DiscRunUntil(double sim_time) {
  for (;;) {
    const double cell_close =
        static_cast<double>(cell_index_ + 1) * cell_width_;
    if (cell_close > sim_time) {
      ParallelDrain(sim_time);
      MergeOutboxes(cell_close);
      FoldRetirement();
      return;
    }
    ParallelDrain(cell_close);
    MergeOutboxes(cell_close);
    DrainControlUntil(cell_close);
    FoldRetirement();
    ++cell_index_;
    // The queue high-water mark samples once per completed cell — never
    // at a mid-cell window cut — so the sample sequence (and the gauge)
    // is invariant to the RunUntil partitioning.
    std::size_t depth = ctl_queue_.size();
    for (const CalendarQueue& q : shard_queues_) depth += q.size();
    if (depth > queue_depth_hwm_) queue_depth_hwm_ = depth;
  }
}

void Simulator::Impl::ParallelDrain(double bound) {
  in_parallel_ = true;
  pool_->RunOnShards(
      [this, bound](std::size_t shard) { DrainShardUntil(shard, bound); });
  in_parallel_ = false;
  tls_lane_ = &lanes_[0];
}

/// Drains one shard's data events with time strictly below `bound`.
/// The strict bound puts an event landing exactly on a grid point into
/// the FOLLOWING cell — the same side of the barrier in every
/// configuration, including the merged cross-shard arrivals whose
/// lookahead guarantees time >= the next cell's start.
void Simulator::Impl::DrainShardUntil(std::size_t shard, double bound) {
  Lane& ln = lanes_[shard];
  RetireLog& log = retire_logs_[shard];
  tls_lane_ = &ln;
  CalendarQueue& q = shard_queues_[shard];
  while (!q.empty() && q.NextTime() < bound) {
    const SimEvent e = q.Pop();
    ++ln.events_dispatched;
    ln.now = e.time;
    ln.measuring = e.time >= options_.warmup_seconds;
    ln.cur_domain = DomainOfEvent(e);
    Dispatch(e);
    if (CarriesQid(e.kind)) *log.qid_delta.FindOrInsert(e.a).first -= 1;
  }
}

/// Runs the barrier's control phase: every control event quantized onto
/// this cell close (inclusive bound — control executes AT the barrier),
/// single-threaded on lane 0, ordered by the content keys.
void Simulator::Impl::DrainControlUntil(double bound) {
  Lane& ln = lanes_[0];
  tls_lane_ = &ln;
  while (!ctl_queue_.empty() && ctl_queue_.NextTime() <= bound) {
    const SimEvent e = ctl_queue_.Pop();
    ++ln.events_dispatched;
    ln.now = e.time;
    ln.measuring = e.time >= options_.warmup_seconds;
    ln.cur_domain = kShardCtlDomain;
    Dispatch(e);
    if (CarriesQid(e.kind)) {
      *retire_logs_[0].qid_delta.FindOrInsert(e.a).first -= 1;
    }
  }
  ln.cur_domain = kShardCtlDomain;
}

/// Folds every lane outbox into the destination queues, in lane index
/// order (obs/shard_merge.h). Runs single-threaded between phases. The
/// lookahead audit measures each data event against the EMITTING cell's
/// close — also when the emission happened in a partial tail drain — so
/// streamed and batch runs audit identically.
void Simulator::Impl::MergeOutboxes(double cell_close) {
  for (Lane& ln : lanes_) {
    for (const SimEvent& e : ln.outbox) {
      const double margin = e.time - cell_close;
      if (margin < min_merge_margin_) min_merge_margin_ = margin;
      if (margin < -1e-9) ++lookahead_violations_;
      shard_queues_[DomainOfEvent(e) % num_shards_].SchedulePreKeyed(e);
    }
    ln.outbox.clear();
    for (const SimEvent& e : ln.ctl_outbox) ctl_queue_.SchedulePreKeyed(e);
    ln.ctl_outbox.clear();
  }
}

/// The canonical index-order fold of the lanes. Integer counters and
/// integer-valued double sums are commutative-exact, so the folded
/// value is shard/thread-count-invariant; `now` folds as the maximum
/// (the globally last executed event — the canonical clock).
auto Simulator::Impl::FoldedLanes() const -> Lane {
  Lane agg = lanes_[0];
  for (std::size_t s = 1; s < lanes_.size(); ++s) {
    const Lane& ln = lanes_[s];
    if (ln.now > agg.now) agg.now = ln.now;
    agg.queries_submitted += ln.queries_submitted;
    agg.responses_delivered += ln.responses_delivered;
    agg.duplicate_queries += ln.duplicate_queries;
    agg.first_responses += ln.first_responses;
    agg.ring_queries_finished += ln.ring_queries_finished;
    agg.messages_dropped += ln.messages_dropped;
    agg.failover_episodes += ln.failover_episodes;
    agg.queries_failed += ln.queries_failed;
    agg.events_scheduled += ln.events_scheduled;
    agg.events_dispatched += ln.events_dispatched;
    agg.results_sum += ln.results_sum;
    agg.hops_sum += ln.hops_sum;
    agg.rings_sum += ln.rings_sum;
    for (std::size_t t = 0; t < kNumMsgTypes; ++t) {
      agg.msg_sent[t] += ln.msg_sent[t];
      agg.msg_recv[t] += ln.msg_recv[t];
    }
    agg.hop_histogram.Merge(ln.hop_histogram);
  }
  return agg;
}

/// The barrier fold of sharded exact retirement (DESIGN.md §11). Runs
/// single-threaded after the cell's merge and control phase (and after
/// a mid-cell window cut): every lane's count deltas fold into
/// disc_live_, then every qid a lane touched is retirement-checked.
/// Counts are integers and retiring a qid is invisible to the protocol,
/// so the fold order cannot matter: the live set after each fold is the
/// same for every (S, T).
void Simulator::Impl::FoldRetirement() {
  std::vector<std::uint64_t> touched;
  for (RetireLog& log : retire_logs_) {
    log.qid_delta.ForEach([&](std::uint64_t qid, const std::int64_t& delta) {
      *disc_live_.FindOrInsert(qid).first += delta;
      touched.push_back(qid);
    });
    log.qid_delta.Clear();
  }
  if (touched.empty()) return;
  double now = lanes_[0].now;
  for (const Lane& ln : lanes_) now = std::max(now, ln.now);
  for (const std::uint64_t qid : touched) DiscRetireIfIdle(qid, now);
  EraseRetiredDuplicates();
}

/// Retires a disc qid whose folded count is zero: its query state (a
/// claimed root records its submit-to-`now` span) and its root binding,
/// whose count on the root it gives back. Its duplicate entries go in
/// the next EraseRetiredDuplicates.
void Simulator::Impl::DiscRetireIfIdle(std::uint64_t qid, double now) {
  const std::int64_t* inflight = disc_live_.Find(qid);
  if (inflight == nullptr || *inflight != 0) return;
  disc_live_.Erase(qid);
  disc_retired_.push_back(qid);
  const std::uint32_t domain = DomainOfQid(qid);
  if (const QueryState* qs = disc_state_[domain].Find(qid); qs != nullptr) {
    disc_longest_lifetime_ =
        std::max(disc_longest_lifetime_, now - qs->submit_time);
    disc_state_[domain].Erase(qid);
  }
  const std::uint64_t* bound = disc_root_[domain].Find(qid);
  if (bound == nullptr) return;
  const std::uint64_t root = *bound;
  disc_root_[domain].Erase(qid);
  if (std::int64_t* root_inflight = disc_live_.Find(root);
      root_inflight != nullptr) {
    --*root_inflight;
    DiscRetireIfIdle(root, now);
  }
}

/// Erases the duplicate entries of every qid retired since the last
/// call, in parallel on the shard pool: worker s erases only from the
/// tables of clusters c with c % S == s, so no two workers touch one
/// table, and each reads the lanes' cluster lists without writing them.
void Simulator::Impl::EraseRetiredDuplicates() {
  if (disc_retired_.empty()) return;
  pool_->RunOnShards([this](std::size_t shard) {
    for (const RetireLog& log : retire_logs_) {
      for (const std::uint64_t qid : disc_retired_) {
        const std::vector<std::uint32_t>* clusters =
            log.seen_clusters.Find(qid);
        if (clusters == nullptr) continue;
        for (const std::uint32_t cluster : *clusters) {
          if (cluster % num_shards_ == shard) disc_dup_[cluster].Erase(qid);
        }
      }
    }
  });
  for (RetireLog& log : retire_logs_) {
    for (const std::uint64_t qid : disc_retired_) log.seen_clusters.Erase(qid);
  }
  disc_retired_.clear();
}

/// Restore's last step: the in-flight counts are not in the payload, so
/// they are rebuilt from what it holds — one count per pending event
/// carrying a qid and one per root binding — and every qid left idle is
/// retired (a checkpoint cut between windows holds none).
void Simulator::Impl::RebuildInFlightCounts(const std::vector<SimEvent>& events,
                                            double now) {
  if (!disc_) {
    for (const SimEvent& e : events) {
      if (CarriesQid(e.kind)) state_.AddRef(e.a);
    }
    state_.RetireIdle(now);
    return;
  }
  std::vector<std::uint64_t> held;
  for (std::size_t c = 0; c < disc_dup_.size(); ++c) {
    RetireLog& log = retire_logs_[c % num_shards_];
    disc_dup_[c].ForEach([&](std::uint64_t qid, const std::uint32_t&) {
      log.seen_clusters.FindOrInsert(qid).first->push_back(
          static_cast<std::uint32_t>(c));
      disc_live_.FindOrInsert(qid);
      held.push_back(qid);
    });
  }
  for (const FlatMap64<QueryState>& states : disc_state_) {
    states.ForEach([&](std::uint64_t qid, const QueryState&) {
      disc_live_.FindOrInsert(qid);
      held.push_back(qid);
    });
  }
  for (const FlatMap64<std::uint64_t>& roots : disc_root_) {
    roots.ForEach([&](std::uint64_t qid, const std::uint64_t& root) {
      disc_live_.FindOrInsert(qid);
      *disc_live_.FindOrInsert(root).first += 1;
      held.push_back(qid);
    });
  }
  for (const SimEvent& e : events) {
    if (CarriesQid(e.kind)) *disc_live_.FindOrInsert(e.a).first += 1;
  }
  for (const std::uint64_t qid : held) DiscRetireIfIdle(qid, now);
  EraseRetiredDuplicates();
}

/// Sharded engine core of the checkpoint payload (SaveState writes the
/// rest): canonical and shard/thread-count-invariant by construction.
/// Pending events from every queue are merged into (time, key) order —
/// the one order independent of the domain-to-shard map — and the hash
/// containers are written sorted by key, so every (S, T) writes the
/// identical bytes, which restore into any (S, T).
void Simulator::Impl::DiscSaveState(CheckpointWriter& w) const {
  std::vector<SimEvent> events = ctl_queue_.SnapshotEvents();
  for (const CalendarQueue& q : shard_queues_) {
    const std::vector<SimEvent> shard_events = q.SnapshotEvents();
    events.insert(events.end(), shard_events.begin(), shard_events.end());
  }
  std::sort(events.begin(), events.end(),
            [](const SimEvent& a, const SimEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.seq < b.seq;
            });
  PutEvents(w, events);
  w.PutU64(cell_index_);
  w.PutU64(ctl_ctr_);
  w.PutU64Vector(ctr_dom_);
  w.PutU32Vector(user_qid_ctr_);
  for (const Rng& rng : proto_rngs_) PutRng(w, rng);
  for (const Rng& rng : fault_rngs_) PutRng(w, rng);
  PutRng(w, ctl_rng_);
  w.PutDoubleVector(latency_by_dom_);
  // Lookahead audit (a resumed run keeps reporting the whole run; the
  // no-merge-yet sentinel is +inf, encoded as a flag).
  w.PutBool(std::isfinite(min_merge_margin_));
  w.PutDouble(std::isfinite(min_merge_margin_) ? min_merge_margin_ : 0.0);
  w.PutU64(lookahead_violations_);
  // Per-domain query state. The duplicate-table count is written
  // explicitly because adaptation grows the cluster-slot space past n.
  w.PutU64(disc_dup_.size());
  for (const FlatMap64<std::uint32_t>& dup : disc_dup_) {
    PutEntries(w, dup, [&](std::uint32_t upstream) { w.PutU32(upstream); });
  }
  for (const FlatMap64<QueryState>& states : disc_state_) {
    PutEntries(w, states, [&](const QueryState& qs) { PutQueryState(w, qs); });
  }
  for (const FlatMap64<std::uint64_t>& roots : disc_root_) {
    PutEntries(w, roots, [&](std::uint64_t root) { w.PutU64(root); });
  }
}

/// Counterpart of DiscSaveState on a freshly constructed sharded
/// simulator with any shard/thread plan. The pending events were read
/// by LoadState, which validates and routes them once this returns.
bool Simulator::Impl::DiscLoadState(CheckpointReader& r) {
  cell_index_ = r.GetU64();
  ctl_ctr_ = r.GetU64();
  ctr_dom_ = r.GetU64Vector();
  user_qid_ctr_ = r.GetU32Vector();
  for (Rng& rng : proto_rngs_) GetRng(r, rng);
  for (Rng& rng : fault_rngs_) GetRng(r, rng);
  GetRng(r, ctl_rng_);
  latency_by_dom_ = r.GetDoubleVector();
  const bool margin_finite = r.GetBool();
  const double margin = r.GetDouble();
  min_merge_margin_ =
      margin_finite ? margin : std::numeric_limits<double>::infinity();
  lookahead_violations_ = r.GetU64();
  const std::uint64_t dup_count = r.GetU64();
  if (!r.ok() || dup_count < n_ || dup_count > SimState::kMaxClusters) {
    return false;
  }
  disc_dup_.clear();
  disc_dup_.resize(static_cast<std::size_t>(dup_count));
  for (FlatMap64<std::uint32_t>& dup : disc_dup_) {
    GetEntries(r, dup, [&] { return r.GetU32(); });
  }
  for (FlatMap64<QueryState>& states : disc_state_) {
    GetEntries(r, states, [&] { return GetQueryState(r); });
  }
  for (FlatMap64<std::uint64_t>& roots : disc_root_) {
    GetEntries(r, roots, [&] { return r.GetU64(); });
  }
  if (!r.ok()) return false;
  // Every restored qid must be one the restored counters could have
  // minted: the rebuilt in-flight counts and the owner-domain routing
  // both trust that.
  bool valid = true;
  const auto check = [&](std::uint64_t qid) {
    valid = valid && RestoredQidValid(qid);
  };
  for (const FlatMap64<std::uint32_t>& dup : disc_dup_) {
    dup.ForEach([&](std::uint64_t qid, const std::uint32_t&) { check(qid); });
  }
  for (const FlatMap64<QueryState>& states : disc_state_) {
    states.ForEach([&](std::uint64_t qid, const QueryState&) { check(qid); });
  }
  for (const FlatMap64<std::uint64_t>& roots : disc_root_) {
    roots.ForEach([&](std::uint64_t qid, const std::uint64_t& root) {
      check(qid);
      check(root);
    });
  }
  return valid;
}

void SimOptions::Validate() const {
  SPPNET_CHECK_MSG(std::isfinite(duration_seconds) && duration_seconds > 0.0,
                   "duration must be finite and > 0");
  SPPNET_CHECK_MSG(std::isfinite(warmup_seconds) && warmup_seconds >= 0.0,
                   "warmup must be finite and >= 0");
  SPPNET_CHECK_MSG(
      std::isfinite(hop_latency_seconds) && hop_latency_seconds >= 0.0,
      "hop latency must be finite and >= 0");
  // Every plan validates its own knobs unconditionally (the LayerPlan
  // contract, sim/plan.h).
  churn.Validate();
  faults.Validate();
  adaptive.Validate();
  shards.Validate();
  routing.Validate();
  consistency.Validate();
  capacity.Validate();
  // Per-layer requirements that are not pairwise layer conflicts.
  if (shards.enabled()) {
    // The sharded discipline's conservative windows are bounded by the
    // minimum cross-shard message delay; a zero hop latency means zero
    // lookahead and no legal window.
    SPPNET_CHECK_MSG(hop_latency_seconds > 0.0,
                     "a sharded run needs a positive lookahead "
                     "(hop_latency_seconds > 0)");
  }
  if (adaptive.enabled()) {
    SPPNET_CHECK_MSG(strategy == SearchStrategy::kFlood,
                     "in-sim adaptation requires the flood strategy");
  }
  if (RoutingActive(*this)) {
    SPPNET_CHECK_MSG(strategy != SearchStrategy::kRandomWalk,
                     "routing with random walks: use kWalker");
  }
  if (consistency.enabled()) {
    SPPNET_CHECK_MSG(strategy == SearchStrategy::kFlood,
                     "the consistency layer requires the flood strategy");
  }
  // Strategy knobs that would silently divide by zero or walk nowhere
  // if left unvalidated. Checked only for the strategies that read
  // them (pay-for-what-you-use, like the layer gates above).
  if (strategy == SearchStrategy::kExpandingRing) {
    SPPNET_CHECK_MSG(ring_satisfaction_results >= 1,
                     "expanding ring needs ring_satisfaction_results >= 1");
  }
  if (strategy == SearchStrategy::kRandomWalk ||
      strategy == SearchStrategy::kWalker) {
    SPPNET_CHECK_MSG(num_walkers >= 1, "walks need num_walkers >= 1");
    SPPNET_CHECK_MSG(walk_ttl >= 1, "walks need walk_ttl >= 1");
  }
  // Cross-layer compatibility: ONE matrix (sim/plan.cc), consulted with
  // the active-feature mask. Adding a layer means adding its conflicts
  // there, not another ad-hoc block here.
  std::uint32_t active = 0;
  if (shards.enabled()) active |= FeatureBit(SimFeature::kShards);
  if (churn.enabled()) active |= FeatureBit(SimFeature::kChurn);
  if (faults.enabled()) active |= FeatureBit(SimFeature::kFaults);
  if (adaptive.enabled()) active |= FeatureBit(SimFeature::kAdaptive);
  if (RoutingActive(*this)) active |= FeatureBit(SimFeature::kRouting);
  if (consistency.enabled()) active |= FeatureBit(SimFeature::kConsistency);
  if (capacity.enabled()) active |= FeatureBit(SimFeature::kCapacity);
  CheckFeatureCompatibility(active);
}

Simulator::Simulator(const NetworkInstance& instance,
                     const Configuration& config, const ModelInputs& inputs,
                     const SimOptions& options)
    : impl_(new Impl(instance, config, inputs, options)) {}

Simulator::~Simulator() { delete impl_; }

SimReport Simulator::Run() { return impl_->Run(); }

void Simulator::Start() { impl_->Start(); }

void Simulator::RunUntil(double sim_time) { impl_->RunUntil(sim_time); }

double Simulator::Now() const { return impl_->Now(); }

std::uint64_t Simulator::events_dispatched() const {
  return impl_->events_dispatched();
}

SimReport Simulator::Finalize(double end_time) {
  return impl_->FinalizeAt(end_time);
}

void Simulator::PublishCumulativeMetrics(MetricsRegistry& registry) const {
  impl_->PublishCumulativeMetrics(registry);
}

void Simulator::InjectQueryAt(double time, std::uint32_t user) {
  impl_->InjectQueryAt(time, user);
}

std::uint64_t Simulator::live_query_roots() const {
  return impl_->live_query_roots();
}

double Simulator::longest_query_lifetime_seconds() const {
  return impl_->longest_query_lifetime_seconds();
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
Simulator::InFlightCounts() const {
  return impl_->InFlightCounts();
}

void Simulator::SaveState(CheckpointWriter& w) const { impl_->SaveState(w); }

bool Simulator::LoadState(CheckpointReader& r) { return impl_->LoadState(r); }

}  // namespace sppnet
