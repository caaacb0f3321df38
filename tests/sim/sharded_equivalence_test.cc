// ctest-label: threaded
// Sharded-engine equivalence goldens: the conservative-window sharded
// discipline (sim/sharded_sim.h, DESIGN.md §12) must be *bitwise*
// indistinguishable from its own sequential reference — the S=1, T=1
// run of the same discipline — for every shard count, every thread
// count, and any partitioning of the run into RunUntil windows. Every scenario of the existing equivalence matrix
// (PLOD/complete x flood/ring/walk x churn x faults x adaptive) runs
// across S in {1,2,3,8} x T in {1,2,8}, asserts the SimReports
// bit-identical, asserts the shard-invariant obs instruments identical
// (the sim.shard.count/threads configuration gauges are the one
// deliberately configuration-dependent surface and are excluded), and
// pins the reference digest to a golden generated when the discipline
// was introduced. A digest change here means the sharded protocol
// semantics drifted, which they must never do.
//
// The suite is adversarial on purpose: the worst case for a
// (time, key)-ordered merge is many cross-shard events sharing one
// timestamp, where the total order is decided by the content keys
// alone — exercised below by injecting a burst of trace queries at a
// single instant from users spread over every cluster.

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "report_digest.h"
#include "sppnet/common/rng.h"
#include "sppnet/model/config.h"
#include "sppnet/model/instance.h"
#include "sppnet/obs/export.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/sim/faults.h"
#include "sppnet/sim/simulator.h"

namespace sppnet {
namespace {

// The deterministic registry sections minus everything legitimately
// allowed to vary across the (S, T) matrix: the engine-specific
// sim.queue.* / sim.state.* internals (the shard queues split the
// calendar bookkeeping differently) and the sim.shard.count/threads
// configuration gauges. Everything else — protocol counters, the depth
// high-water mark, the hop histogram, the cell count and the lookahead
// audit — must be byte-identical across the matrix.
std::string ShardInvariantMetricsJson(const MetricsRegistry& m) {
  const auto variant = [](std::string_view name) {
    return name.rfind("sim.queue.", 0) == 0 ||
           name.rfind("sim.state.", 0) == 0 || name == "sim.shard.count" ||
           name == "sim.shard.threads";
  };
  MetricsRegistry filtered;
  for (const auto& [name, counter] : m.counters()) {
    if (!variant(name)) filtered.GetCounter(name).Increment(counter.value());
  }
  for (const auto& [name, gauge] : m.gauges()) {
    if (!variant(name)) filtered.GetGauge(name).Set(gauge.value());
  }
  for (const auto& [name, histogram] : m.histograms()) {
    if (!variant(name)) {
      filtered.GetHistogram(name, histogram.upper_bounds()).Merge(histogram);
    }
  }
  std::ostringstream out;
  WriteDeterministicMetricsJson(out, filtered);
  return out.str();
}

struct Scenario {
  const char* name;
  std::uint64_t digest;  ///< Pinned S=1, T=1 sharded-discipline digest.
  Configuration config;
  std::uint64_t instance_seed;
  SimOptions options;
};

FaultPlan ActivePlan() {
  FaultPlan plan;
  plan.crash_rate_per_partner = 2e-3;
  plan.crash_recovery_seconds = 15.0;
  plan.message_drop_probability = 0.01;
  plan.max_delay_jitter_seconds = 0.05;
  plan.request_timeout_seconds = 2.0;
  plan.max_retries = 3;
  return plan;
}

// The scenario matrix mirrors engine_equivalence_test.cc's cases that
// the sharded discipline admits. The digests pin the S=1, T=1 run of the sharded discipline itself — the
// discipline splits the RNG streams per domain, so its event stream is
// deliberately distinct from the legacy engine's.
std::vector<Scenario> Scenarios() {
  std::vector<Scenario> cases;
  {
    Scenario c{"flood_plod", 0x3c86827f7e6da807ull, {}, 101, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.seed = 11;
    cases.push_back(c);
  }
  {
    Scenario c{"flood_complete", 0x9db5e62b70b28a7bull, {}, 102, {}};
    c.config.graph_type = GraphType::kStronglyConnected;
    c.config.graph_size = 300;
    c.config.cluster_size = 10.0;
    c.config.ttl = 1;
    c.options.seed = 12;
    cases.push_back(c);
  }
  {
    Scenario c{"ring_plod", 0xeb320b68f1a588f5ull, {}, 103, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 5;
    c.config.avg_outdegree = 4.0;
    c.options.strategy = SearchStrategy::kExpandingRing;
    c.options.ring_satisfaction_results = 30;
    c.options.seed = 13;
    cases.push_back(c);
  }
  {
    Scenario c{"walk_plod", 0x05f06015b22be9a3ull, {}, 104, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.strategy = SearchStrategy::kRandomWalk;
    c.options.num_walkers = 8;
    c.options.walk_ttl = 32;
    c.options.seed = 14;
    cases.push_back(c);
  }
  {
    Scenario c{"churn_plod", 0x524d9c6b9ac2230full, {}, 105, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.churn.enable = true;
    c.options.churn.partner_recovery_seconds = 20.0;
    c.options.seed = 15;
    cases.push_back(c);
  }
  {
    Scenario c{"faults_active", 0xfb90e7b485c0b4fbull, {}, 106, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.redundancy = true;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.faults = ActivePlan();
    c.options.seed = 16;
    cases.push_back(c);
  }
  {
    Scenario c{"adaptive_plod", 0xf9f93d1665ca788bull, {}, 108, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 4.0;
    c.config.ttl = 5;
    c.config.avg_outdegree = 3.1;
    c.options.adaptive.probe_interval_seconds = 2.0;
    c.options.adaptive.decision_interval_seconds = 10.0;
    c.options.adaptive.policy.max_bandwidth_bps = 1.0e7;
    c.options.adaptive.policy.max_proc_hz = 2.0e6;
    c.options.seed = 18;
    cases.push_back(c);
  }
  for (Scenario& c : cases) {
    c.options.duration_seconds = 60.0;
    c.options.warmup_seconds = 12.0;
  }
  return cases;
}

struct ShardedRun {
  SimReport report;
  std::string metrics;
};

ShardedRun RunSharded(const Scenario& c, std::size_t num_shards,
                      std::size_t num_threads) {
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(c.instance_seed);
  const NetworkInstance instance = GenerateInstance(c.config, inputs, rng);
  SimOptions options = c.options;
  options.shards.num_shards = num_shards;
  options.shards.num_threads = num_threads;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  Simulator sim(instance, c.config, inputs, options);
  return {sim.Run(), ShardInvariantMetricsJson(metrics)};
}

struct ShardCombo {
  std::size_t shards;
  std::size_t threads;
};

constexpr ShardCombo kMatrix[] = {
    {1, 1}, {1, 2}, {1, 8}, {2, 1}, {2, 2}, {2, 8},
    {3, 1}, {3, 2}, {3, 8}, {8, 1}, {8, 2}, {8, 8},
};

class ShardedEquivalenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedEquivalenceTest, MatrixBitIdenticalAndPinnedToGolden) {
  const Scenario c = Scenarios()[GetParam()];

  // The sequential reference of the sharded discipline: one shard, one
  // thread. Everything else must reproduce it bit for bit.
  const ShardedRun reference = RunSharded(c, 1, 1);
  const std::uint64_t reference_digest = ReportDigest(reference.report);
  EXPECT_EQ(reference_digest, c.digest) << c.name;

  for (const ShardCombo combo : kMatrix) {
    const ShardedRun run = RunSharded(c, combo.shards, combo.threads);
    SCOPED_TRACE(std::string(c.name) + " S=" +
                 std::to_string(combo.shards) + " T=" +
                 std::to_string(combo.threads));
    EXPECT_EQ(ReportDigest(run.report), reference_digest);
    EXPECT_EQ(run.report.events_scheduled, reference.report.events_scheduled);
    EXPECT_EQ(run.report.events_dispatched,
              reference.report.events_dispatched);
    EXPECT_EQ(run.report.queue_depth_hwm, reference.report.queue_depth_hwm);
    EXPECT_EQ(run.report.adapt_rounds, reference.report.adapt_rounds);
    EXPECT_EQ(run.report.adapt_splits, reference.report.adapt_splits);
    EXPECT_EQ(run.report.adapt_client_moves,
              reference.report.adapt_client_moves);
    EXPECT_EQ(run.report.final_clusters, reference.report.final_clusters);
    EXPECT_EQ(run.report.final_ttl, reference.report.final_ttl);
    EXPECT_EQ(run.metrics, reference.metrics);
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ShardedEquivalenceTest,
                         ::testing::Range<std::size_t>(0, 7),
                         [](const auto& info) {
                           return Scenarios()[info.param].name;
                         });

// Adversarial worst case for the deterministic merge: a burst of trace
// queries injected at ONE timestamp from users spread over every
// cluster. The resulting cross-shard arrivals share their timestamps
// exactly (injection instant + identical hop multiples), so the merge
// and the intra-cell drains must order them by the content keys alone —
// any dependence on shard count, thread interleaving or merge arrival
// order shows up as a digest mismatch here.
TEST(ShardedEquivalenceTest, SameTimestampBurstOrdersByKeyAlone) {
  Configuration config;
  config.graph_size = 300;
  config.cluster_size = 10.0;
  config.ttl = 4;
  config.avg_outdegree = 4.0;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(109);
  const NetworkInstance instance = GenerateInstance(config, inputs, rng);
  const std::uint32_t total_nodes = static_cast<std::uint32_t>(
      instance.TotalPartners() + instance.TotalClients());

  const auto run = [&](std::size_t num_shards, std::size_t num_threads) {
    SimOptions options;
    options.duration_seconds = 30.0;
    options.warmup_seconds = 5.0;
    options.seed = 19;
    options.shards.num_shards = num_shards;
    options.shards.num_threads = num_threads;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    Simulator sim(instance, config, inputs, options);
    sim.Start();
    // Every third node fires a trace query at exactly t = 10.0 — and
    // again at exactly t = 10.05 (= one hop), colliding with the first
    // burst's arrivals.
    for (std::uint32_t u = 0; u < total_nodes; u += 3) {
      sim.InjectQueryAt(10.0, u);
    }
    for (std::uint32_t u = 1; u < total_nodes; u += 3) {
      sim.InjectQueryAt(10.05, u);
    }
    sim.RunUntil(35.0);
    const SimReport report = sim.Finalize(35.0);
    return std::make_pair(ReportDigest(report),
                          ShardInvariantMetricsJson(metrics));
  };

  const auto reference = run(1, 1);
  for (const ShardCombo combo : kMatrix) {
    SCOPED_TRACE(std::string("S=") + std::to_string(combo.shards) + " T=" +
                 std::to_string(combo.threads));
    EXPECT_EQ(run(combo.shards, combo.threads), reference);
  }
}

// Window-partitioning invariance: slicing the run into ragged RunUntil
// windows (including cuts inside open cells and windows landing exactly
// on cell boundaries) must execute the identical event sequence as one
// batch call, for a sharded multi-thread configuration.
TEST(ShardedEquivalenceTest, RaggedWindowsMatchBatchRun) {
  Configuration config;
  config.graph_size = 300;
  config.cluster_size = 10.0;
  config.ttl = 4;
  config.avg_outdegree = 4.0;
  config.redundancy = true;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(110);
  const NetworkInstance instance = GenerateInstance(config, inputs, rng);

  const auto run = [&](bool ragged) {
    SimOptions options;
    options.duration_seconds = 40.0;
    options.warmup_seconds = 8.0;
    options.seed = 20;
    options.churn.enable = true;
    options.churn.partner_recovery_seconds = 20.0;
    options.shards.num_shards = 3;
    options.shards.num_threads = 2;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    Simulator sim(instance, config, inputs, options);
    sim.Start();
    const double horizon = 48.0;
    if (ragged) {
      // 0.37 is incommensurate with the 0.05 cell width; 12.0 and 24.0
      // land exactly on cell closes.
      double t = 0.0;
      const double cuts[] = {0.37, 11.63, 0.37, 0.05, 11.58, 0.37};
      for (const double step : cuts) {
        t += step;
        sim.RunUntil(t);
      }
      sim.RunUntil(horizon);
    } else {
      sim.RunUntil(horizon);
    }
    const SimReport report = sim.Finalize(horizon);
    return std::make_pair(ReportDigest(report),
                          ShardInvariantMetricsJson(metrics));
  };

  EXPECT_EQ(run(/*ragged=*/true), run(/*ragged=*/false));
}

}  // namespace
}  // namespace sppnet
