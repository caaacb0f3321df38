// ctest-label: threaded
// Index-consistency layer (DESIGN.md §14): plan-validation death
// tests, the SimOptions gating matrix, the pay-for-what-you-use
// inactive-plan identity, bit-reproducibility from the seed, and the
// scheme-semantics ordering (push fresher than pull fresher than
// none; replication trades bandwidth for recall).

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/model/config.h"
#include "sppnet/model/consistency.h"
#include "sppnet/model/instance.h"
#include "sppnet/obs/export.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/sim/simulator.h"

namespace sppnet {
namespace {

std::string MetricsJson(const MetricsRegistry& metrics) {
  // Deterministic sections only (the phase timers legitimately differ
  // between bit-identical runs).
  std::ostringstream out;
  WriteDeterministicMetricsJson(out, metrics);
  return out.str();
}

TEST(ConsistencyPlanDeathTest, RejectsInvalidConfigs) {
  {
    ConsistencyPlan plan;
    plan.change_rate_per_client = -0.01;
    EXPECT_DEATH(plan.Validate(), "change_rate_per_client");
  }
  {
    ConsistencyPlan plan;
    plan.ttr_seconds = 0.0;
    EXPECT_DEATH(plan.Validate(), "ttr_seconds");
  }
  {
    ConsistencyPlan plan;
    plan.ttr_seconds = -30.0;
    EXPECT_DEATH(plan.Validate(), "ttr_seconds");
  }
  {
    ConsistencyPlan plan;
    plan.replication.replication_factor = 0;
    EXPECT_DEATH(plan.Validate(), "replication_factor");
  }
  {
    ConsistencyPlan plan;
    plan.replication.max_records_per_push = 0;
    EXPECT_DEATH(plan.Validate(), "max_records_per_push");
  }
}

TEST(ConsistencyPlanTest, DefaultPlanIsValidAndInactive) {
  ConsistencyPlan plan;
  plan.Validate();
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.replication.enabled());
  plan.change_rate_per_client = 0.05;
  EXPECT_TRUE(plan.enabled());
  plan.replication.owner_replication = true;
  EXPECT_TRUE(plan.replication.enabled());
}

SimOptions ActiveConsistencyOptions(ConsistencyScheme scheme) {
  SimOptions options;
  options.duration_seconds = 200.0;
  options.warmup_seconds = 20.0;
  options.seed = 11;
  options.consistency.change_rate_per_client = 0.05;
  options.consistency.scheme = scheme;
  options.consistency.ttr_seconds = 30.0;
  return options;
}

// The consistency layer composes only with the plain flood protocol
// on the legacy engine — every incompatible layer must be rejected at
// Validate() time, not silently mis-accounted at run time.
TEST(ConsistencyGatingDeathTest, RejectsIncompatibleLayers) {
  {
    SimOptions o = ActiveConsistencyOptions(ConsistencyScheme::kPushInvalidate);
    o.strategy = SearchStrategy::kExpandingRing;
    EXPECT_DEATH(o.Validate(), "flood strategy");
  }
  {
    SimOptions o = ActiveConsistencyOptions(ConsistencyScheme::kPushInvalidate);
    o.shards.num_shards = 4;
    EXPECT_DEATH(o.Validate(), "legacy engine");
  }
  {
    SimOptions o = ActiveConsistencyOptions(ConsistencyScheme::kNone);
    o.adaptive.probe_interval_seconds = 30.0;
    EXPECT_DEATH(o.Validate(), "adaptation");
  }
  {
    SimOptions o = ActiveConsistencyOptions(ConsistencyScheme::kNone);
    o.routing.enable = true;
    EXPECT_DEATH(o.Validate(), "content-aware routing");
  }
  {
    SimOptions o = ActiveConsistencyOptions(ConsistencyScheme::kPushInvalidate);
    o.churn.enable = true;
    EXPECT_DEATH(o.Validate(), "static membership");
  }
  {
    SimOptions o = ActiveConsistencyOptions(ConsistencyScheme::kPushInvalidate);
    o.faults.crash_rate_per_partner = 1.0e-3;
    EXPECT_DEATH(o.Validate(), "fault");
  }
}

// Strategy knobs audited alongside the consistency gates: values that
// would walk nowhere or never satisfy must die in Validate() instead
// of producing silently degenerate runs.
TEST(SimOptionsAuditDeathTest, RejectsDegenerateStrategyKnobs) {
  {
    SimOptions o;
    o.strategy = SearchStrategy::kExpandingRing;
    o.ring_satisfaction_results = 0;
    EXPECT_DEATH(o.Validate(), "ring_satisfaction_results");
  }
  {
    SimOptions o;
    o.strategy = SearchStrategy::kRandomWalk;
    o.num_walkers = 0;
    EXPECT_DEATH(o.Validate(), "num_walkers");
  }
  {
    SimOptions o;
    o.strategy = SearchStrategy::kRandomWalk;
    o.walk_ttl = 0;
    EXPECT_DEATH(o.Validate(), "walk_ttl");
  }
  {
    SimOptions o;
    o.strategy = SearchStrategy::kWalker;
    o.num_walkers = 0;
    EXPECT_DEATH(o.Validate(), "num_walkers");
  }
}

struct SimSetup {
  Configuration config;
  ModelInputs inputs = ModelInputs::Default();
  NetworkInstance instance;
};

SimSetup MakeSetup(std::uint64_t instance_seed, std::size_t graph_size = 200,
                   double cluster_size = 10.0) {
  SimSetup s;
  s.config.graph_size = graph_size;
  s.config.cluster_size = cluster_size;
  s.config.ttl = 4;
  s.config.avg_outdegree = 4.0;
  Rng rng(instance_seed);
  s.instance = GenerateInstance(s.config, s.inputs, rng);
  return s;
}

// A replication factor exceeding the cluster count can never find
// enough distinct targets; the simulator rejects it on construction
// (the plan alone cannot know the instance size).
TEST(ConsistencySimDeathTest, RejectsReplicationFactorBeyondClusterCount) {
  const SimSetup s = MakeSetup(31, /*graph_size=*/40, /*cluster_size=*/10.0);
  SimOptions o = ActiveConsistencyOptions(ConsistencyScheme::kPushInvalidate);
  o.consistency.replication.owner_replication = true;
  o.consistency.replication.replication_factor = 1000;  // > 4 clusters
  EXPECT_DEATH(Simulator(s.instance, s.config, s.inputs, o),
               "replication_factor");
}

// The pay-for-what-you-use contract (the FaultPlan pattern): a plan
// with a zero change rate is never consulted, so the run — report and
// published metrics, byte for byte — matches a run without the layer,
// even when the plan's other knobs are non-default.
TEST(ConsistencySimTest, InactivePlanIsBitIdenticalToNoConsistencyLayer) {
  const SimSetup s = MakeSetup(33);
  SimOptions base;
  base.duration_seconds = 200.0;
  base.warmup_seconds = 20.0;
  base.seed = 7;

  MetricsRegistry base_metrics;
  base.metrics = &base_metrics;
  const SimReport baseline =
      Simulator(s.instance, s.config, s.inputs, base).Run();

  SimOptions inactive = base;
  MetricsRegistry inactive_metrics;
  inactive.metrics = &inactive_metrics;
  inactive.consistency.scheme = ConsistencyScheme::kPullTtr;
  inactive.consistency.ttr_seconds = 5.0;
  inactive.consistency.replication.owner_replication = true;
  inactive.consistency.replication.path_replication = true;
  ASSERT_FALSE(inactive.consistency.enabled());
  const SimReport control =
      Simulator(s.instance, s.config, s.inputs, inactive).Run();

  EXPECT_EQ(baseline.queries_submitted, control.queries_submitted);
  EXPECT_EQ(baseline.responses_delivered, control.responses_delivered);
  EXPECT_EQ(baseline.mean_results_per_query, control.mean_results_per_query);
  EXPECT_EQ(baseline.aggregate.in_bps, control.aggregate.in_bps);
  EXPECT_EQ(baseline.aggregate.out_bps, control.aggregate.out_bps);
  EXPECT_EQ(baseline.aggregate.proc_hz, control.aggregate.proc_hz);
  EXPECT_EQ(control.consistency_changes, 0u);
  EXPECT_EQ(control.consistency_invalidations, 0u);
  EXPECT_EQ(control.consistency_stale_hit_rate, 0.0);
  // No sim.consistency.* metric may appear at all.
  EXPECT_EQ(inactive_metrics.counters().count("sim.consistency.changes"), 0u);
  EXPECT_EQ(MetricsJson(base_metrics), MetricsJson(inactive_metrics));
}

// An active plan run twice from the same seed reproduces every
// consistency tally bit for bit (all randomness flows through the
// salted consistency stream).
TEST(ConsistencySimTest, ActivePlanIsBitReproducibleFromSeed) {
  const SimSetup s = MakeSetup(34);
  SimOptions o = ActiveConsistencyOptions(ConsistencyScheme::kPullTtr);
  o.consistency.replication.owner_replication = true;
  o.consistency.replication.path_replication = true;

  MetricsRegistry first_metrics, second_metrics;
  SimOptions first = o, second = o;
  first.metrics = &first_metrics;
  second.metrics = &second_metrics;
  const SimReport a = Simulator(s.instance, s.config, s.inputs, first).Run();
  const SimReport b = Simulator(s.instance, s.config, s.inputs, second).Run();

  EXPECT_EQ(a.consistency_changes, b.consistency_changes);
  EXPECT_EQ(a.consistency_stale_results, b.consistency_stale_results);
  EXPECT_EQ(a.consistency_fresh_results, b.consistency_fresh_results);
  EXPECT_EQ(a.consistency_polls, b.consistency_polls);
  EXPECT_EQ(a.consistency_refresh_replies, b.consistency_refresh_replies);
  EXPECT_EQ(a.consistency_replica_pushes, b.consistency_replica_pushes);
  EXPECT_EQ(a.consistency_replica_records, b.consistency_replica_records);
  EXPECT_EQ(a.consistency_replica_served, b.consistency_replica_served);
  EXPECT_EQ(a.consistency_stale_hit_rate, b.consistency_stale_hit_rate);
  EXPECT_EQ(a.consistency_mean_freshness_seconds,
            b.consistency_mean_freshness_seconds);
  EXPECT_EQ(MetricsJson(first_metrics), MetricsJson(second_metrics));
}

// The consistency stream must not perturb the protocol stream: an
// active plan changes staleness bookkeeping and adds maintenance
// traffic, but the query plane (submissions, responses, raw result
// counts) is byte-identical to the baseline flood.
TEST(ConsistencySimTest, ActivePlanLeavesQueryPlaneUntouched) {
  const SimSetup s = MakeSetup(35);
  SimOptions base;
  base.duration_seconds = 200.0;
  base.warmup_seconds = 20.0;
  base.seed = 13;
  const SimReport baseline =
      Simulator(s.instance, s.config, s.inputs, base).Run();

  SimOptions push = base;
  push.consistency.change_rate_per_client = 0.05;
  push.consistency.scheme = ConsistencyScheme::kPushInvalidate;
  const SimReport measured =
      Simulator(s.instance, s.config, s.inputs, push).Run();

  EXPECT_EQ(baseline.queries_submitted, measured.queries_submitted);
  EXPECT_EQ(baseline.responses_delivered, measured.responses_delivered);
  EXPECT_EQ(baseline.mean_results_per_query, measured.mean_results_per_query);
  EXPECT_EQ(baseline.mean_response_hops, measured.mean_response_hops);
}

// Scheme semantics across the maintenance spectrum: push refreshes
// within a hop (near-zero staleness), pull within a TTR period, none
// accumulates forever. Stale-hit rate must order none > pull > push,
// and each scheme must emit exactly its own maintenance traffic.
TEST(ConsistencySimTest, SchemesOrderStalenessAndEmitOwnTraffic) {
  const SimSetup s = MakeSetup(36);

  SimOptions none = ActiveConsistencyOptions(ConsistencyScheme::kNone);
  SimOptions pull = ActiveConsistencyOptions(ConsistencyScheme::kPullTtr);
  SimOptions push = ActiveConsistencyOptions(ConsistencyScheme::kPushInvalidate);

  const SimReport r_none =
      Simulator(s.instance, s.config, s.inputs, none).Run();
  const SimReport r_pull =
      Simulator(s.instance, s.config, s.inputs, pull).Run();
  const SimReport r_push =
      Simulator(s.instance, s.config, s.inputs, push).Run();

  EXPECT_GT(r_none.consistency_changes, 0u);
  EXPECT_GT(r_none.consistency_stale_hit_rate,
            r_pull.consistency_stale_hit_rate);
  EXPECT_GT(r_pull.consistency_stale_hit_rate,
            r_push.consistency_stale_hit_rate);

  EXPECT_EQ(r_none.consistency_invalidations, 0u);
  EXPECT_EQ(r_none.consistency_polls, 0u);
  EXPECT_EQ(r_none.consistency_maintenance_bytes_per_sec, 0.0);

  EXPECT_GT(r_push.consistency_invalidations, 0u);
  EXPECT_EQ(r_push.consistency_polls, 0u);
  EXPECT_GT(r_push.consistency_maintenance_bytes_per_sec, 0.0);
  EXPECT_GT(r_push.consistency_fresh_results, 0u);

  EXPECT_EQ(r_pull.consistency_invalidations, 0u);
  EXPECT_GT(r_pull.consistency_polls, 0u);
  EXPECT_EQ(r_pull.consistency_polls, r_pull.consistency_refresh_replies);
  EXPECT_GT(r_pull.consistency_maintenance_bytes_per_sec, 0.0);

  // Freshness latency mirrors the staleness windows: a push refresh
  // lands one hop after the change, a pull refresh waits for the tick.
  EXPECT_GT(r_pull.consistency_mean_freshness_seconds,
            r_push.consistency_mean_freshness_seconds);
}

// Replication trades bandwidth for recall: with owner + path
// replication on, replica pushes move bytes and replica-served
// results raise the per-query mean above the unreplicated run.
TEST(ConsistencySimTest, ReplicationTradesBandwidthForRecall) {
  const SimSetup s = MakeSetup(37);
  SimOptions plain = ActiveConsistencyOptions(ConsistencyScheme::kPullTtr);
  const SimReport r_plain =
      Simulator(s.instance, s.config, s.inputs, plain).Run();

  SimOptions repl = plain;
  repl.consistency.replication.owner_replication = true;
  repl.consistency.replication.path_replication = true;
  repl.consistency.replication.replication_factor = 3;
  const SimReport r_repl =
      Simulator(s.instance, s.config, s.inputs, repl).Run();

  EXPECT_EQ(r_plain.consistency_replica_pushes, 0u);
  EXPECT_EQ(r_plain.consistency_replication_bytes_per_sec, 0.0);
  EXPECT_GT(r_repl.consistency_replica_pushes, 0u);
  EXPECT_GT(r_repl.consistency_replica_records, 0u);
  EXPECT_GT(r_repl.consistency_replication_bytes_per_sec, 0.0);
  EXPECT_GT(r_repl.consistency_replica_served, 0u);
  EXPECT_GT(r_repl.mean_results_per_query, r_plain.mean_results_per_query);
}

// The analytical plane rejects the same invalid inputs as the
// simulator and is inert for an inactive plan.
TEST(ConsistencyModelTest, EvaluatorValidatesAndInactiveIsZero) {
  const SimSetup s = MakeSetup(38);
  ConsistencyEvalOptions eval;
  {
    ConsistencyEvalOptions bad = eval;
    bad.plan.change_rate_per_client = -1.0;
    EXPECT_DEATH(
        EvaluateConsistencyPlane(s.instance, s.config, s.inputs, bad),
        "change_rate_per_client");
  }
  const ConsistencyModelReport r =
      EvaluateConsistencyPlane(s.instance, s.config, s.inputs, eval);
  EXPECT_EQ(r.stale_hit_rate, 0.0);
  EXPECT_EQ(r.maintenance_bytes_per_sec, 0.0);
  EXPECT_EQ(r.maintenance_plane.in_bps, 0.0);
}

}  // namespace
}  // namespace sppnet
