#ifndef SPPNET_SIM_SIMULATOR_H_
#define SPPNET_SIM_SIMULATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sppnet/index/routing_index.h"
#include "sppnet/io/checkpoint.h"
#include "sppnet/model/config.h"
#include "sppnet/model/consistency.h"
#include "sppnet/model/instance.h"
#include "sppnet/model/load.h"
#include "sppnet/sim/adaptive_sim.h"
#include "sppnet/sim/faults.h"
#include "sppnet/sim/plan.h"
#include "sppnet/sim/sharded_sim.h"

namespace sppnet {

class MetricsRegistry;

/// How queries travel across the super-peer overlay. The paper's
/// analysis uses the baseline Gnutella flood and notes that better
/// search protocols (e.g. Yang & Garcia-Molina, ICDCS'02) are
/// orthogonal to the super-peer design; the simulator implements two
/// such alternatives so the tradeoffs can be measured on top of the
/// same clusters.
enum class SearchStrategy {
  /// Baseline: forward to every neighbor except the arrival edge while
  /// TTL remains (Section 3.1).
  kFlood,
  /// Iterative deepening: try TTL 1, then grow the ring until enough
  /// results arrived or the TTL budget is exhausted. Saves cost on
  /// popular content at the price of latency.
  kExpandingRing,
  /// k independent random walks; each walker forwards to one random
  /// neighbor per hop for up to walk_ttl hops.
  kRandomWalk,
  /// Content-aware flood: the flood of kFlood, but a super-peer
  /// forwards only along edges whose Bloom routing digest
  /// (index/routing_index.h) reports the query class reachable.
  /// Implies an active routing layer (SimOptions::routing).
  kRoutedFlood,
  /// Content-aware k-walker: num_walkers concurrent walks with per-walk
  /// TTL and duplicate suppression, each hop biased toward
  /// digest-positive neighbors (uniform fallback when none test
  /// positive). Implies an active routing layer.
  kWalker,
};

/// Options for a discrete-event run.
struct SimOptions {
  /// Simulated seconds of measured traffic (after warmup).
  double duration_seconds = 300.0;
  /// Initial seconds excluded from the measurements.
  double warmup_seconds = 30.0;
  /// One-way delivery latency per overlay hop (seconds).
  double hop_latency_seconds = 0.05;
  std::uint64_t seed = 7;

  /// In-trial sharding plan (see sim/sharded_sim.h and DESIGN.md §12):
  /// partitions clusters across parallel event loops advanced in
  /// conservative lookahead windows of one hop latency. Defaults to the
  /// legacy single-loop engine. An enabled plan produces reports,
  /// metric digests and checkpoints bit-identical across every
  /// (num_shards, num_threads) choice; it requires a positive hop
  /// latency (the lookahead) and no routing, consistency or capacity
  /// layer (enforced by Validate()).
  ShardPlan shards;

  /// Churn plan (sim/plan.h): super-peer partners fail at the end of
  /// their sampled lifespans and are replaced after
  /// `churn.partner_recovery_seconds` (a capable client is promoted /
  /// a new partner is found). While a cluster has no live partner its
  /// clients are disconnected. Client joins re-upload metadata to
  /// recovering partners.
  ChurnPlan churn;

  /// Fault-injection & recovery plan (see sim/faults.h): mid-session
  /// super-peer crashes, message drops and delivery jitter, answered by
  /// per-request timeouts with bounded-backoff retries, failover to
  /// surviving partners and re-join via bootstrap discovery. The
  /// default plan is inactive, and an inactive plan leaves the run
  /// bit-identical to a build without the fault layer (it is never
  /// consulted); an active plan draws all of its decisions from a
  /// dedicated RNG stream salted from `seed`.
  FaultPlan faults;

  /// In-simulation adaptation plan (see sim/adaptive_sim.h): the
  /// Section 5.3 local rules executed as scheduled protocol events —
  /// periodic load probes, live cluster splits and coalesces with
  /// client re-upload, incremental edge addition toward the suggested
  /// outdegree, TTL-decrease broadcasts. The default plan is inactive
  /// and is never consulted, leaving runs bit-identical to a build
  /// without the layer; an active plan draws its decisions from a
  /// dedicated RNG stream salted from `seed`. Requires the flood
  /// strategy and a non-redundant configuration (redundancy_k == 1).
  AdaptivePlan adaptive;

  /// Optional observability sink (see obs/metrics.h). When set, the
  /// run publishes protocol counters ("sim.msg.query.sent", failover
  /// episodes, ...), the event-queue high-water mark gauge and the
  /// per-response hop histogram into the registry at the end of Run().
  /// Purely observational: attaching a registry never changes
  /// simulated behaviour, and every published counter /
  /// histogram value is bit-identical across runs with the same seed.
  /// Values are accumulated (Increment/Merge), so several runs may
  /// share one registry. Not owned; must outlive the simulator.
  MetricsRegistry* metrics = nullptr;

  /// Content-aware routing-index layer (index/routing_index.h): built
  /// deterministically from the instance + seed at Start, re-announced
  /// as DigestAnnounce control traffic every refresh interval, and
  /// consulted by the routed strategies to prune forwarding. Activated
  /// implicitly by kRoutedFlood / kWalker, or explicitly via
  /// routing.enable to add digest pruning to kFlood / kExpandingRing
  /// refinement waves. Inactive (the default) means never consulted:
  /// runs stay bit-identical to a build without the layer. Requires
  /// the legacy engine (no sharding) and no in-sim adaptation
  /// (enforced by Validate()).
  RoutingOptions routing;

  /// Index-consistency & replication plan (model/consistency.h,
  /// DESIGN.md §14): clients mutate their metadata mid-session on a
  /// Poisson clock, super-peer index entries go stale until refreshed
  /// by push-invalidation or pull-with-TTR, and delivered results are
  /// classified stale/fresh accordingly; owner/path replication can
  /// serve extra fresh results from replicas. The default plan is
  /// inactive and is never consulted, leaving runs bit-identical to a
  /// build without the layer; an active plan draws all of its
  /// decisions from a dedicated RNG stream salted from `seed`.
  /// Requires the flood strategy on the legacy engine with no
  /// adaptation, no routing layer and static membership — no churn,
  /// no fault plan (enforced by Validate()).
  ConsistencyPlan consistency;

  /// Heterogeneous peer-capacity plan (sim/plan.h, DESIGN.md §15):
  /// every node draws a PeerCapacity from the plan's mixture on a
  /// dedicated salted stream, CostTable message loads accumulate into
  /// windowed per-node utilization (`sim.capacity.*` counters, the
  /// super-peer utilization histogram, overload episodes), and — when
  /// the adaptation layer is also active — split/promotion elects the
  /// highest-capacity eligible member and sustained-overloaded
  /// super-peers are demoted. The default plan is inactive and is
  /// never consulted, leaving runs bit-identical to a build without
  /// the layer. Requires the legacy engine, no sharding (conflict
  /// matrix in sim/plan.cc).
  CapacityPlan capacity;

  // --- Search strategy (kFlood reproduces the paper's baseline) ---
  SearchStrategy strategy = SearchStrategy::kFlood;
  /// kExpandingRing: stop growing the ring once this many results have
  /// come back.
  std::uint32_t ring_satisfaction_results = 50;
  /// kRandomWalk: number of parallel walkers per query.
  std::uint32_t num_walkers = 16;
  /// kRandomWalk: hops each walker may take (independent of the
  /// configuration TTL, which bounds ring/flood depth).
  std::uint32_t walk_ttl = 64;

  /// Aborts (SPPNET_CHECK) on invalid configurations: non-positive
  /// duration, negative warmup or latency, an invalid plan (every
  /// plan's Validate() runs unconditionally), a strategy requirement
  /// violated by an active layer, or a forbidden layer pairing — the
  /// single cross-layer compatibility matrix in sim/plan.cc. Called
  /// at every entry point that consumes options (the Simulator
  /// constructor, RunTrials), matching the LayerPlan contract.
  void Validate() const;
};

/// Measured outcome of a simulation run. Every field is a function of
/// the protocol's event stream alone: implementation internals (queue
/// bucket counts, scratch bytes) are published through the obs registry
/// only, so they can change without moving a report.
struct SimReport {
  double measured_seconds = 0.0;

  /// Whole-run event totals (warmup included), reconciled 1:1 with the
  /// sim.queue.scheduled / sim.events.dispatched counters and the
  /// sim.event_queue.depth_hwm gauge.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t queue_depth_hwm = 0;

  /// Mean measured load per partner slot / client, aligned with the
  /// NetworkInstance layout (bits per second / Hz, like the analysis).
  std::vector<LoadVector> partner_load;
  std::vector<LoadVector> client_load;
  LoadVector aggregate;

  std::uint64_t queries_submitted = 0;
  std::uint64_t responses_delivered = 0;
  std::uint64_t duplicate_queries = 0;
  double mean_results_per_query = 0.0;
  /// Mean hops traveled by response messages (the empirical EPL).
  double mean_response_hops = 0.0;
  /// Mean seconds from query submission to the first response.
  double mean_first_response_latency = 0.0;
  /// Mean final ring TTL per query (kExpandingRing only).
  double mean_rings_per_query = 0.0;

  // --- Reliability metrics (churn.enable and/or active FaultPlan) ---
  /// Partner-down events from any cause: end-of-lifespan churn plus
  /// injected mid-session crashes (the crash subset is
  /// `faults_crashes`).
  std::uint64_t partner_failures = 0;
  /// Partners brought back up (each failure recovers after its delay;
  /// at most the tail failures are still pending at the end of a run).
  std::uint64_t partner_recoveries = 0;
  /// Episodes during which a cluster had no live partner.
  std::uint64_t cluster_outages = 0;
  /// Fraction of cluster-time spent with no live partner — the measured
  /// availability complement that the analytical k-redundancy model
  /// predicts as (lambda*r / (1 + lambda*r))^k (DESIGN.md §8).
  double cluster_outage_fraction = 0.0;
  /// Fraction of client-time spent with no reachable super-peer. With
  /// an active fault plan this is per-client (a client stops accruing
  /// when it re-joins another cluster); churn-only runs account whole
  /// clusters, as before.
  double client_disconnected_fraction = 0.0;

  // --- Fault-injection & recovery metrics (active FaultPlan only) ---
  /// Injected mid-session crashes that took a live partner down.
  std::uint64_t faults_crashes = 0;
  /// Deliveries silently lost by the fault layer.
  std::uint64_t faults_messages_dropped = 0;
  /// Per-request timeouts that fired with no response seen.
  std::uint64_t faults_request_timeouts = 0;
  /// Query retries submitted after a timeout.
  std::uint64_t faults_retries = 0;
  /// Messages routed around a dead preferred partner to a surviving
  /// co-partner (the k-redundancy failover actually happening).
  std::uint64_t faults_failover_episodes = 0;
  /// Orphaned clients that re-joined another cluster via discovery.
  std::uint64_t faults_client_rejoins = 0;
  /// Queries with >= 1 response by their final timeout check (partial
  /// results count: degraded floods still succeed).
  std::uint64_t queries_succeeded = 0;
  /// Queries that exhausted the retry budget with no response, or could
  /// not be routed to any live partner.
  std::uint64_t queries_failed = 0;
  /// queries_succeeded / (queries_succeeded + queries_failed); 0 when
  /// no query completed a timeout check.
  double query_success_rate = 0.0;
  /// Mean seconds from a client losing its last partner to re-joining a
  /// cluster (via discovery) or its own cluster recovering.
  double mean_recovery_latency_seconds = 0.0;

  // --- In-sim adaptation metrics (active AdaptivePlan only) ---
  // Whole-run tallies (adaptation typically converges during warmup),
  // reconciled 1:1 with the sim.adaptive.* counters. With an inactive
  // plan the final_* fields describe the unchanged input network and
  // every tally is zero.
  /// Decision rounds executed.
  std::uint64_t adapt_rounds = 0;
  /// Rule I cluster splits (a member promoted to super-peer).
  std::uint64_t adapt_splits = 0;
  /// Rule I cluster coalesces (a super-peer resigned).
  std::uint64_t adapt_coalesces = 0;
  /// Rule II overlay edges added.
  std::uint64_t adapt_edges_added = 0;
  /// Rule III TTL decrements broadcast.
  std::uint64_t adapt_ttl_decreases = 0;
  /// LoadProbe messages sent by the periodic probe sweeps.
  std::uint64_t adapt_probes_sent = 0;
  /// LoadReport messages received by probing super-peers.
  std::uint64_t adapt_reports_received = 0;
  /// Clients that changed cluster through splits and coalesces
  /// (resigned super-peers included).
  std::uint64_t adapt_client_moves = 0;
  /// True when the most recent decision round was quiescent
  /// (LocalPolicy::RoundQuiescent) — the live network has converged.
  bool adapt_converged = false;
  /// First round (1-based) of the final quiescent streak; 0 when the
  /// network never went quiescent.
  std::uint64_t adapt_converged_round = 0;
  /// Live clusters at the end of the run.
  std::uint64_t final_clusters = 0;
  /// Effective flood TTL at the end of the run.
  int final_ttl = 0;
  /// Mean overlay outdegree over live clusters at the end of the run.
  double final_avg_outdegree = 0.0;

  // --- Content-aware routing metrics (active routing layer only) ---
  /// Periodic digest re-announcement rounds inside the measured window.
  std::uint64_t routing_digest_refreshes = 0;
  /// DigestAnnounce messages accounted inside the measured window
  /// (reconciles with the sim.msg.digest.sent counter).
  std::uint64_t routing_digest_announces = 0;
  /// Forwardings skipped because the edge digest reported the query
  /// class unreachable (the routed strategies' bandwidth saving).
  std::uint64_t routing_suppressed_forwards = 0;
  /// kWalker hops chosen from a non-empty digest-positive neighbor
  /// subset (the remainder fell back to a uniform choice).
  std::uint64_t routing_biased_hops = 0;

  // --- Index-consistency metrics (active ConsistencyPlan only) ---
  // Reconciled 1:1 with the sim.consistency.* counters and the
  // sim.msg.{invalidate,poll,refresh,replica}.* message classes.
  /// Client metadata changes inside the measured window.
  std::uint64_t consistency_changes = 0;
  /// Delivered results classified stale (the index entry had changed
  /// and was not yet refreshed when the query matched it).
  std::uint64_t consistency_stale_results = 0;
  /// Delivered results classified fresh.
  std::uint64_t consistency_fresh_results = 0;
  /// stale / (stale + fresh); 0 when no result was classified.
  double consistency_stale_hit_rate = 0.0;
  /// InvalidateMessages sent (push-invalidation scheme).
  std::uint64_t consistency_invalidations = 0;
  /// RefreshPoll messages sent (pull-with-TTR scheme).
  std::uint64_t consistency_polls = 0;
  /// RefreshReply messages sent back by polled clients.
  std::uint64_t consistency_refresh_replies = 0;
  /// Maintenance bandwidth: invalidation + poll + reply bytes per
  /// measured second, network-wide (replication traffic excluded).
  double consistency_maintenance_bytes_per_sec = 0.0;
  /// Mean seconds between a metadata change and the index refresh that
  /// cleared it (mean of the freshness-latency histogram; kNone never
  /// refreshes, so no observation is ever recorded there).
  double consistency_mean_freshness_seconds = 0.0;
  /// ReplicaPush messages sent (active ReplicationPlan only).
  std::uint64_t consistency_replica_pushes = 0;
  /// Replica records shipped inside those pushes.
  std::uint64_t consistency_replica_records = 0;
  /// Extra (always fresh) results served from replica stores.
  std::uint64_t consistency_replica_served = 0;
  /// Replication bandwidth in bytes per measured second, network-wide.
  double consistency_replication_bytes_per_sec = 0.0;

  // --- Heterogeneous-capacity metrics (active CapacityPlan only) ---
  // Reconciled 1:1 with the sim.capacity.* instruments. Samples are
  // (node, window) pairs over the utilization windows folded into the
  // measurement phase; the super-peer cut covers the nodes carrying
  // the head role when each window closed.
  /// Capacity-rule head demotions executed by the live controller
  /// (capacity plan with demote_overloaded, under adaptation).
  std::uint64_t adapt_demotions = 0;
  /// Utilization windows folded into the measurement phase.
  std::uint64_t capacity_windows = 0;
  /// Rising-edge transitions of a node into overload across folded
  /// windows (an episode spanning several windows counts once).
  std::uint64_t capacity_overload_episodes = 0;
  /// Mean utilization over all (node, window) samples.
  double capacity_mean_utilization = 0.0;
  /// Fraction of (node, window) samples above the overload threshold.
  double capacity_overloaded_fraction = 0.0;
  /// Mean utilization over the super-peer samples.
  double capacity_sp_mean_utilization = 0.0;
  /// Fraction of super-peer samples above the overload threshold.
  double capacity_sp_overloaded_fraction = 0.0;
  /// p99 super-peer utilization, read off the histogram bucket bounds.
  double capacity_sp_p99_utilization = 0.0;
};

/// Discrete-event simulator that executes the super-peer protocol of
/// Section 3.2 message by message: clients submit queries round-robin to
/// their partners, super-peers flood queries with TTL and duplicate
/// dropping, Response messages retrace the query path, and joins/updates
/// maintain the cluster indexes. Per-node byte and processing-unit
/// accounting uses the same CostTable as the analytical model, so the
/// two can be compared directly (the model-validation experiment in
/// DESIGN.md).
class Simulator {
 public:
  /// The instance is copied; the simulator owns its mutable state.
  Simulator(const NetworkInstance& instance, const Configuration& config,
            const ModelInputs& inputs, const SimOptions& options);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Runs warmup + measurement and returns the report. Equivalent to
  /// Start() + RunUntil(warmup + duration) + Finalize() — the streaming
  /// layer drives those pieces directly.
  SimReport Run();

  // --- Streaming interface (sim/stream.h drives these) ----------------------
  /// Seeds the per-node Poisson clocks and the churn/fault/adaptation
  /// schedules. Must be called exactly once, before RunUntil.
  void Start();
  /// Dispatches every pending event with time <= `sim_time` (seconds).
  /// Call repeatedly with nondecreasing times to stream the run.
  void RunUntil(double sim_time);
  /// Simulation clock: the time of the last dispatched event (0 before
  /// any dispatch), NOT the RunUntil horizon — idle stretches advance
  /// the clock only when the next event fires.
  double Now() const;
  std::uint64_t events_dispatched() const;
  /// Closes the run at simulated time `end_time` (>= the last dispatch;
  /// pending later events are abandoned) and builds the report over
  /// [warmup, end_time]. When `end_time` equals warmup + duration this
  /// is bit-identical to what Run() returns. At most one of Run() /
  /// Finalize() per simulator.
  SimReport Finalize(double end_time);

  /// Publishes the cumulative counter/gauge/histogram surface (the same
  /// one Finalize publishes to options.metrics) into `registry`, without
  /// touching simulation state — callable mid-run at window boundaries.
  void PublishCumulativeMetrics(MetricsRegistry& registry) const;

  /// Injects one externally fed (trace-replay) query submission by
  /// `user` at absolute simulated time `time` (>= Now(), checked when
  /// dispatched). Unlike the Poisson clocks, an injected submission
  /// does not reschedule itself.
  void InjectQueryAt(double time, std::uint32_t user);


  // --- Per-query state (exact retirement, DESIGN.md §11) ---------------------
  /// Root queries whose state the simulator still holds. A query's state
  /// retires as soon as no pending event carries its qid or one of its
  /// retry and ring qids (a sharded run checks at every barrier), so
  /// this stays flat on a stationary workload however long it runs.
  std::uint64_t live_query_roots() const;
  /// Longest submit-to-retire span of any root query retired so far, in
  /// simulated seconds (0 before the first). Not checkpointed: a
  /// restored simulator measures from its restore on.
  double longest_query_lifetime_seconds() const;
  /// (qid, count) of every qid with a nonzero in-flight count, ascending
  /// by qid: the pending events that carry it, plus, for a root, one per
  /// live retry or ring qid bound to it. Deterministic; a restore
  /// rebuilds the same counts from the pending events. For tests and
  /// diagnostics.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> InFlightCounts() const;
  // --- Checkpoint (sim/stream.h wraps these in an envelope) ------------------
  /// Serializes the complete mutable state: event queue, RNG streams,
  /// per-query state, accounting tallies, fault and adaptation state.
  /// The simulator must be Start()ed and not finalized.
  void SaveState(CheckpointWriter& w) const;
  /// Restores into a freshly constructed simulator built from the SAME
  /// instance, config, inputs and options (the stream envelope's
  /// fingerprint enforces this). Replaces Start(); returns false on a
  /// malformed payload. Dispatch after a restore is bit-identical to
  /// the uninterrupted run for every protocol-relevant observable —
  /// engine-internal instruments (sim.queue.*, sim.state.scratch_bytes)
  /// legitimately differ (DESIGN.md §11).
  bool LoadState(CheckpointReader& r);

 private:
  class Impl;
  Impl* impl_;
};

}  // namespace sppnet

#endif  // SPPNET_SIM_SIMULATOR_H_
