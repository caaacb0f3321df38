// The in-simulation adaptation layer (sim/adaptive_sim.*): validated
// options abort on bad plans at every entry point, an inactive plan
// leaves runs bit-identical to a build without the layer, active
// adaptation is seed-reproducible, converges on the Section 5.3 bad
// topology, and composes with the fault layer (the network re-converges
// around crash episodes).

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/model/config.h"
#include "sppnet/model/instance.h"
#include "sppnet/obs/export.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/sim/adaptive_sim.h"
#include "sppnet/sim/simulator.h"

namespace sppnet {
namespace {

// The deliberately bad starting topology of Section 5.3, scaled down
// for test runtime: tiny clusters, sparse overlay, oversized TTL.
Configuration BadTopology() {
  Configuration config;
  config.graph_size = 400;
  config.cluster_size = 4;
  config.avg_outdegree = 3.1;
  config.ttl = 5;
  return config;
}

AdaptivePlan ActivePlan() {
  AdaptivePlan plan;
  plan.probe_interval_seconds = 2.0;
  plan.decision_interval_seconds = 10.0;
  return plan;
}

struct AdaptiveRun {
  SimReport report;
  std::string metrics_json;
};

AdaptiveRun RunSim(const Configuration& config, std::uint64_t instance_seed,
                const SimOptions& base_options) {
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(instance_seed);
  const NetworkInstance instance = GenerateInstance(config, inputs, rng);
  SimOptions options = base_options;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  Simulator sim(instance, config, inputs, options);
  AdaptiveRun out;
  out.report = sim.Run();
  std::ostringstream json;
  WriteDeterministicMetricsJson(json, metrics);
  out.metrics_json = json.str();
  return out;
}

// --- Validated options ------------------------------------------------------

using AdaptiveSimDeathTest = ::testing::Test;

TEST(AdaptiveSimDeathTest, PlanValidateRejectsBadIntervals) {
  {
    AdaptivePlan plan;
    plan.probe_interval_seconds = -1.0;
    EXPECT_DEATH(plan.Validate(), "probe interval");
  }
  {
    AdaptivePlan plan;
    plan.decision_interval_seconds = 0.0;
    EXPECT_DEATH(plan.Validate(), "decision interval");
  }
  {
    AdaptivePlan plan;
    plan.probe_interval_seconds = 60.0;
    plan.decision_interval_seconds = 10.0;
    EXPECT_DEATH(plan.Validate(), "must not exceed");
  }
  {
    // An active plan validates its policy too.
    AdaptivePlan plan = ActivePlan();
    plan.policy.max_bandwidth_bps = 0.0;
    EXPECT_DEATH(plan.Validate(), "bandwidth limit");
  }
  // Inactive and active well-formed plans pass.
  AdaptivePlan{}.Validate();
  ActivePlan().Validate();
}

TEST(AdaptiveSimDeathTest, SimOptionsValidateRejectsBadValues) {
  {
    SimOptions options;
    options.duration_seconds = 0.0;
    EXPECT_DEATH(options.Validate(), "duration");
  }
  {
    SimOptions options;
    options.warmup_seconds = -1.0;
    EXPECT_DEATH(options.Validate(), "warmup");
  }
  {
    SimOptions options;
    options.hop_latency_seconds = -0.1;
    EXPECT_DEATH(options.Validate(), "hop latency");
  }
  {
    SimOptions options;
    options.faults.message_drop_probability = 2.0;
    EXPECT_DEATH(options.Validate(), "drop probability");
  }
  {
    SimOptions options;
    options.adaptive.decision_interval_seconds = -3.0;
    EXPECT_DEATH(options.Validate(), "decision interval");
  }
  SimOptions{}.Validate();
}

TEST(AdaptiveSimDeathTest, ActiveAdaptationRejectsIncompatibleFeatures) {
  {
    SimOptions options;
    options.adaptive = ActivePlan();
    options.strategy = SearchStrategy::kExpandingRing;
    EXPECT_DEATH(options.Validate(), "flood strategy");
  }
  SimOptions options;
  options.adaptive = ActivePlan();
  options.Validate();
}

TEST(AdaptiveSimDeathTest, SimulatorConstructorValidates) {
  const Configuration config = BadTopology();
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(21);
  const NetworkInstance instance = GenerateInstance(config, inputs, rng);
  SimOptions options;
  options.adaptive = ActivePlan();
  options.strategy = SearchStrategy::kExpandingRing;
  EXPECT_DEATH(Simulator(instance, config, inputs, options), "flood strategy");
}

TEST(AdaptiveSimDeathTest, AdaptationRequiresNonRedundantClusters) {
  Configuration config = BadTopology();
  config.redundancy = true;  // k = 2.
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(22);
  const NetworkInstance instance = GenerateInstance(config, inputs, rng);
  SimOptions options;
  options.adaptive = ActivePlan();
  EXPECT_DEATH(Simulator(instance, config, inputs, options),
               "redundancy_k == 1");
}

// --- Inactive-plan bit-identity --------------------------------------------

TEST(AdaptiveSimTest, InactivePlanBitIdenticalToDefaultRun) {
  const Configuration config = BadTopology();
  SimOptions options;
  options.duration_seconds = 60.0;
  options.warmup_seconds = 10.0;
  options.seed = 31;
  options.churn.enable = true;
  const AdaptiveRun baseline = RunSim(config, 23, options);

  // An explicitly constructed inactive plan (interval 0, tweaked policy
  // fields) must not perturb anything: same metrics surface, same
  // report, zero adaptation tallies.
  SimOptions with_plan = options;
  with_plan.adaptive.probe_interval_seconds = 0.0;
  with_plan.adaptive.decision_interval_seconds = 7.0;
  with_plan.adaptive.policy.suggested_outdegree = 25.0;
  const AdaptiveRun run = RunSim(config, 23, with_plan);

  EXPECT_EQ(run.metrics_json, baseline.metrics_json);
  EXPECT_EQ(run.report.events_scheduled, baseline.report.events_scheduled);
  EXPECT_EQ(run.report.events_dispatched, baseline.report.events_dispatched);
  EXPECT_EQ(run.report.queries_submitted, baseline.report.queries_submitted);
  EXPECT_EQ(run.report.aggregate.in_bps, baseline.report.aggregate.in_bps);
  EXPECT_EQ(run.report.aggregate.out_bps, baseline.report.aggregate.out_bps);
  EXPECT_EQ(run.report.aggregate.proc_hz, baseline.report.aggregate.proc_hz);
  EXPECT_EQ(run.report.adapt_rounds, 0u);
  EXPECT_EQ(run.report.adapt_probes_sent, 0u);
  EXPECT_FALSE(run.report.adapt_converged);
  // An inactive run's final network is the input network.
  EXPECT_EQ(run.report.final_clusters, 100u);
  EXPECT_EQ(run.report.final_ttl, config.ttl);
  // And no adaptation instrument appears in the registry.
  EXPECT_EQ(run.metrics_json.find("sim.adaptive."), std::string::npos);
  EXPECT_EQ(run.metrics_json.find("sim.msg.probe"), std::string::npos);
}

// --- Active adaptation -------------------------------------------------------

TEST(AdaptiveSimTest, ActiveRunIsSeedReproducible) {
  const Configuration config = BadTopology();
  SimOptions options;
  options.duration_seconds = 80.0;
  options.warmup_seconds = 40.0;
  options.seed = 32;
  options.adaptive = ActivePlan();
  const AdaptiveRun a = RunSim(config, 24, options);
  const AdaptiveRun b = RunSim(config, 24, options);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.report.adapt_rounds, b.report.adapt_rounds);
  EXPECT_EQ(a.report.final_clusters, b.report.final_clusters);
  EXPECT_EQ(a.report.final_ttl, b.report.final_ttl);
  EXPECT_EQ(a.report.final_avg_outdegree, b.report.final_avg_outdegree);
  EXPECT_EQ(a.report.aggregate.in_bps, b.report.aggregate.in_bps);

  // A different simulation seed drives different adaptation decisions
  // (the salted stream is derived from it).
  SimOptions other = options;
  other.seed = 33;
  const AdaptiveRun c = RunSim(config, 24, other);
  EXPECT_NE(a.metrics_json, c.metrics_json);
}

// Policy scaled to the small test workload: processing is the binding
// resource (per-head bandwidth at this scale never reaches the paper's
// defaults), which gives the run an interior equilibrium with all
// three rules exercised.
LocalPolicy TestPolicy() {
  LocalPolicy policy;
  policy.max_bandwidth_bps = 1.0e7;
  policy.max_proc_hz = 2.0e6;
  return policy;
}

TEST(AdaptiveSimTest, ConvergesOnBadTopology) {
  const Configuration config = BadTopology();
  SimOptions options;
  options.duration_seconds = 500.0;
  options.warmup_seconds = 400.0;  // ~40 decision rounds to settle.
  options.seed = 34;
  options.adaptive = ActivePlan();
  options.adaptive.policy = TestPolicy();
  const AdaptiveRun run = RunSim(config, 25, options);
  const SimReport& r = run.report;

  // The protocol actually ran.
  ASSERT_GT(r.adapt_rounds, 10u);
  EXPECT_GT(r.adapt_probes_sent, 0u);
  EXPECT_GT(r.adapt_reports_received, 0u);

  // Section 5.3 direction of travel from the bad topology: tiny idle
  // clusters coalesce (fewer, bigger clusters), the overlay grows
  // toward the suggested outdegree, and the oversized TTL contracts.
  EXPECT_GT(r.adapt_coalesces, 0u);
  EXPECT_LT(r.final_clusters, 100u);
  EXPECT_GT(r.adapt_edges_added, 0u);
  EXPECT_GT(r.final_avg_outdegree, 3.1);
  EXPECT_GT(r.adapt_ttl_decreases, 0u);
  EXPECT_LT(r.final_ttl, config.ttl);
  EXPECT_GE(r.final_ttl, 1);

  // And the rules went quiescent: the trailing rounds changed nothing.
  EXPECT_TRUE(r.adapt_converged);
  ASSERT_GT(r.adapt_converged_round, 0u);
  EXPECT_LE(r.adapt_converged_round, r.adapt_rounds);

  // Clients moved through coalesces (re-upload joins flowed).
  EXPECT_GT(r.adapt_client_moves, 0u);
}

TEST(AdaptiveSimTest, ReconvergesUnderFaultInjection) {
  const Configuration config = BadTopology();
  SimOptions options;
  options.duration_seconds = 500.0;
  options.warmup_seconds = 400.0;
  options.seed = 35;
  options.adaptive = ActivePlan();
  options.adaptive.policy = TestPolicy();
  // A fault plan with real crash episodes: heads go down mid-run and
  // their clients re-join other clusters via discovery.
  options.faults.crash_rate_per_partner = 1.0e-3;
  options.faults.crash_recovery_seconds = 20.0;
  options.faults.request_timeout_seconds = 2.0;
  const AdaptiveRun run = RunSim(config, 26, options);
  const SimReport& r = run.report;

  // Faults actually happened, and adaptation kept going.
  ASSERT_GT(r.faults_crashes, 0u);
  ASSERT_GT(r.adapt_rounds, 10u);
  EXPECT_GT(r.adapt_coalesces, 0u);
  EXPECT_LT(r.final_clusters, 100u);

  // The network still settles: quiescent through the tail of the run
  // despite crash/recovery episodes.
  EXPECT_TRUE(r.adapt_converged);

  // Reproducible under the composed fault + adaptation layers.
  const AdaptiveRun again = RunSim(config, 26, options);
  EXPECT_EQ(run.metrics_json, again.metrics_json);
}

}  // namespace
}  // namespace sppnet
