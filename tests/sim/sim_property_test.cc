// ctest-label: threaded
// Property sweep over the discrete-event simulator: conservation and
// sanity invariants across strategies, redundancy degrees and TTLs,
// plus the lookahead soundness audit of the sharded discipline.

#include <cstddef>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "sppnet/obs/metrics.h"
#include "sppnet/sim/simulator.h"

namespace sppnet {
namespace {

struct SimGridPoint {
  SearchStrategy strategy;
  int redundancy_k;
  int ttl;
};

class SimPropertyTest : public ::testing::TestWithParam<SimGridPoint> {
 protected:
  static const ModelInputs& Inputs() {
    static const ModelInputs* inputs = new ModelInputs(ModelInputs::Default());
    return *inputs;
  }
};

TEST_P(SimPropertyTest, ConservationAndSanity) {
  const SimGridPoint point = GetParam();
  Configuration config;
  config.graph_size = 300;
  config.cluster_size = 10;
  config.redundancy_k = point.redundancy_k;
  config.ttl = point.ttl;
  config.avg_outdegree = 4.0;

  Rng rng(777);
  const NetworkInstance inst = GenerateInstance(config, Inputs(), rng);

  SimOptions options;
  options.duration_seconds = 200;
  options.warmup_seconds = 20;
  options.strategy = point.strategy;
  options.num_walkers = 6;
  options.walk_ttl = 15;
  options.ring_satisfaction_results = 20;
  Simulator sim(inst, config, Inputs(), options);
  const SimReport r = sim.Run();

  // Traffic flowed and every byte sent was received (up to boundary
  // effects of in-flight messages).
  ASSERT_GT(r.queries_submitted, 0u);
  ASSERT_GT(r.aggregate.TotalBps(), 0.0);
  EXPECT_NEAR(r.aggregate.in_bps, r.aggregate.out_bps,
              0.03 * r.aggregate.out_bps);

  // Per-node loads are non-negative and shaped like the instance.
  EXPECT_EQ(r.partner_load.size(), inst.TotalPartners());
  EXPECT_EQ(r.client_load.size(), inst.TotalClients());
  for (const auto& lv : r.partner_load) {
    ASSERT_GE(lv.in_bps, 0.0);
    ASSERT_GE(lv.out_bps, 0.0);
    ASSERT_GE(lv.proc_hz, 0.0);
  }

  // Latency is at least one hop for client-originated queries and
  // bounded by the ring budget.
  if (r.responses_delivered > 0) {
    EXPECT_GT(r.mean_first_response_latency, 0.0);
    EXPECT_LT(r.mean_first_response_latency, 60.0);
    EXPECT_GE(r.mean_response_hops, 0.0);
  }

  // No churn configured: nothing may fail or disconnect.
  EXPECT_EQ(r.partner_failures, 0u);
  EXPECT_EQ(r.cluster_outages, 0u);
  EXPECT_EQ(r.client_disconnected_fraction, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimPropertyTest,
    ::testing::Values(
        SimGridPoint{SearchStrategy::kFlood, 1, 4},
        SimGridPoint{SearchStrategy::kFlood, 2, 4},
        SimGridPoint{SearchStrategy::kFlood, 3, 3},
        SimGridPoint{SearchStrategy::kFlood, 2, 3},
        SimGridPoint{SearchStrategy::kExpandingRing, 1, 5},
        SimGridPoint{SearchStrategy::kExpandingRing, 2, 4},
        SimGridPoint{SearchStrategy::kExpandingRing, 1, 4},
        SimGridPoint{SearchStrategy::kRandomWalk, 1, 4},
        SimGridPoint{SearchStrategy::kRandomWalk, 2, 4},
        SimGridPoint{SearchStrategy::kRoutedFlood, 1, 4},
        SimGridPoint{SearchStrategy::kWalker, 2, 4}));

// ---- Sharded-discipline lookahead soundness -------------------------

// The conservative discipline is only sound if every cross-shard event
// folded in at a cell barrier is scheduled at or after the close of the
// emitting cell — the lookahead guarantee the hop latency provides. The
// engine audits every merge: sim.shard.min_merge_margin records the
// worst observed slack (merged time minus cell close) and
// sim.shard.lookahead_violations counts merges below the -1e-9 FP
// tolerance. The property: across strategies, churn and shard shapes,
// the margin never dips below the tolerance and the violation count is
// exactly zero.
TEST(ShardedLookaheadPropertyTest, MergedEventsNeverLandBelowTheCellClose) {
  const struct {
    SearchStrategy strategy;
    bool churn;
    std::size_t shards;
    std::size_t threads;
  } grid[] = {
      {SearchStrategy::kFlood, false, 2, 2},
      {SearchStrategy::kFlood, true, 3, 2},
      {SearchStrategy::kExpandingRing, false, 8, 8},
      {SearchStrategy::kRandomWalk, true, 8, 2},
  };
  for (const auto& point : grid) {
    std::string trace = "S";
    trace += std::to_string(point.shards);
    trace += "T";
    trace += std::to_string(point.threads);
    SCOPED_TRACE(trace);
    Configuration config;
    config.graph_size = 300;
    config.cluster_size = 10;
    config.ttl = 4;
    config.avg_outdegree = 4.0;
    const ModelInputs inputs = ModelInputs::Default();
    Rng rng(901);
    const NetworkInstance inst = GenerateInstance(config, inputs, rng);

    SimOptions options;
    options.seed = 31;
    options.duration_seconds = 60;
    options.warmup_seconds = 10;
    options.strategy = point.strategy;
    options.churn.enable = point.churn;
    options.num_walkers = 6;
    options.walk_ttl = 15;
    options.ring_satisfaction_results = 20;
    options.shards.num_shards = point.shards;
    options.shards.num_threads = point.threads;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    Simulator sim(inst, config, inputs, options);
    const SimReport r = sim.Run();

    ASSERT_GT(r.queries_submitted, 0u);
    EXPECT_GT(metrics.GetCounter("sim.shard.cells").value(), 0u);
    EXPECT_EQ(metrics.GetCounter("sim.shard.lookahead_violations").value(),
              0u);
    EXPECT_GE(metrics.GetGauge("sim.shard.min_merge_margin").value(), -1e-9);
  }
}

TEST(ShardedLookaheadDeathTest, ZeroLookaheadWithShardsAborts) {
  // Zero hop latency means zero lookahead: no window may legally run
  // in parallel, and the configuration must abort rather than fall
  // back to anything weaker than the bit-identity contract.
  SimOptions options;
  options.shards.num_shards = 2;
  options.hop_latency_seconds = 0.0;
  EXPECT_DEATH(options.Validate(), "positive lookahead");
}

}  // namespace
}  // namespace sppnet
