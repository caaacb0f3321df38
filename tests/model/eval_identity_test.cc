// ctest-label: threaded
// Bit-identity of the evaluation engines: the batched (bit-parallel)
// and scalar-reference kernels must produce EXACTLY the same
// InstanceLoads — every double bitwise equal — at every evaluation
// parallelism level. The engines share all floating-point accumulation
// and differ only in how the integer flood structures are computed, so
// any mismatch means a kernel bug, not an acceptable rounding wiggle;
// EXPECT_EQ (not EXPECT_DOUBLE_EQ / NEAR) is deliberate.

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/model/evaluator.h"
#include "sppnet/model/trials.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/topology/bfs.h"

namespace sppnet {
namespace {

void ExpectLoadVectorIdentical(const LoadVector& a, const LoadVector& b,
                               const char* what, std::size_t index) {
  SCOPED_TRACE(testing::Message() << what << "[" << index << "]");
  EXPECT_EQ(a.in_bps, b.in_bps);
  EXPECT_EQ(a.out_bps, b.out_bps);
  EXPECT_EQ(a.proc_hz, b.proc_hz);
}

void ExpectVectorIdentical(const std::vector<double>& a,
                           const std::vector<double>& b, const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "index " << i;
  }
}

/// Every field of InstanceLoads, bitwise.
void ExpectLoadsIdentical(const InstanceLoads& a, const InstanceLoads& b) {
  ASSERT_EQ(a.partner_load.size(), b.partner_load.size());
  for (std::size_t i = 0; i < a.partner_load.size(); ++i) {
    ExpectLoadVectorIdentical(a.partner_load[i], b.partner_load[i],
                              "partner_load", i);
  }
  ASSERT_EQ(a.client_load.size(), b.client_load.size());
  for (std::size_t i = 0; i < a.client_load.size(); ++i) {
    ExpectLoadVectorIdentical(a.client_load[i], b.client_load[i],
                              "client_load", i);
  }
  ExpectVectorIdentical(a.results_per_query, b.results_per_query,
                        "results_per_query");
  ExpectVectorIdentical(a.epl_per_source, b.epl_per_source, "epl_per_source");
  ExpectVectorIdentical(a.reach_per_source, b.reach_per_source,
                        "reach_per_source");
  ExpectLoadVectorIdentical(a.aggregate, b.aggregate, "aggregate", 0);
  EXPECT_EQ(a.mean_results, b.mean_results);
  EXPECT_EQ(a.mean_epl, b.mean_epl);
  EXPECT_EQ(a.mean_reach, b.mean_reach);
  EXPECT_EQ(a.duplicate_msgs_per_sec, b.duplicate_msgs_per_sec);
}

struct IdentityCase {
  std::size_t graph_size;
  double cluster_size;
  int redundancy_k;
  int ttl;
  double outdegree;
  GraphType graph_type;
};

class EvalIdentityTest : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(EvalIdentityTest, EnginesAndParallelismBitIdentical) {
  const IdentityCase param = GetParam();
  Configuration config;
  config.graph_type = param.graph_type;
  config.graph_size = param.graph_size;
  config.cluster_size = param.cluster_size;
  config.redundancy_k = param.redundancy_k;
  config.ttl = param.ttl;
  config.avg_outdegree = param.outdegree;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(4242);
  const NetworkInstance inst = GenerateInstance(config, inputs, rng);

  std::vector<InstanceLoads> all;
  for (const EvalEngine engine :
       {EvalEngine::kBatched, EvalEngine::kScalarReference}) {
    for (const std::size_t parallelism : {1u, 2u, 8u}) {
      EvalOptions options;
      options.engine = engine;
      options.parallelism = parallelism;
      all.push_back(EvaluateInstance(inst, config, inputs, options));
    }
  }
  for (std::size_t i = 1; i < all.size(); ++i) {
    SCOPED_TRACE(testing::Message()
                 << "variant " << i << " (engine " << i / 3 << ", parallelism "
                 << (i % 3 == 0 ? 1 : i % 3 == 1 ? 2 : 8) << ")");
    ExpectLoadsIdentical(all[0], all[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EvalIdentityTest,
    ::testing::Values(
        // 500 % 64 != 0: remainder batch. Multi-client clusters.
        IdentityCase{500, 10, 1, 5, 3.1, GraphType::kPowerLaw},
        // Exactly two full batches.
        IdentityCase{128, 4, 1, 7, 3.1, GraphType::kPowerLaw},
        // Fewer sources than one batch, with redundancy.
        IdentityCase{50, 5, 2, 3, 6.0, GraphType::kPowerLaw},
        // Dense overlay, short TTL.
        IdentityCase{300, 20, 1, 2, 10.0, GraphType::kPowerLaw},
        // cluster_size 1: pure super-peer network, no clients.
        IdentityCase{200, 1, 1, 7, 3.1, GraphType::kPowerLaw},
        // Complete topology: closed form, engines trivially identical.
        IdentityCase{400, 10, 2, 2, 0.0, GraphType::kStronglyConnected}));

/// The same identity must survive the trial runner with its own
/// parallelism on top: engine choice and both parallelism knobs may not
/// move a single bit of any report statistic.
TEST(EvalIdentityTest, TrialReportsBitIdenticalAcrossEngineAndParallelism) {
  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = 300;
  config.cluster_size = 10;
  config.ttl = 5;
  config.avg_outdegree = 3.1;
  const ModelInputs inputs = ModelInputs::Default();

  std::vector<ConfigurationReport> reports;
  for (const EvalEngine engine :
       {EvalEngine::kBatched, EvalEngine::kScalarReference}) {
    for (const std::size_t eval_parallelism : {1u, 2u, 8u}) {
      TrialOptions options;
      options.num_trials = 3;
      options.seed = 2026;
      options.collect_outdegree_histograms = true;
      options.parallelism = 2;
      options.eval_engine = engine;
      options.eval_parallelism = eval_parallelism;
      reports.push_back(RunTrials(config, inputs, options));
    }
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "variant " << i);
    EXPECT_EQ(reports[0].aggregate_in_bps.Mean(),
              reports[i].aggregate_in_bps.Mean());
    EXPECT_EQ(reports[0].aggregate_in_bps.Variance(),
              reports[i].aggregate_in_bps.Variance());
    EXPECT_EQ(reports[0].aggregate_out_bps.Mean(),
              reports[i].aggregate_out_bps.Mean());
    EXPECT_EQ(reports[0].aggregate_proc_hz.Mean(),
              reports[i].aggregate_proc_hz.Mean());
    EXPECT_EQ(reports[0].sp_out_bps.Mean(), reports[i].sp_out_bps.Mean());
    EXPECT_EQ(reports[0].client_in_bps.Mean(),
              reports[i].client_in_bps.Mean());
    EXPECT_EQ(reports[0].results_per_query.Mean(),
              reports[i].results_per_query.Mean());
    EXPECT_EQ(reports[0].epl.Mean(), reports[i].epl.Mean());
    EXPECT_EQ(reports[0].reach.Mean(), reports[i].reach.Mean());
    EXPECT_EQ(reports[0].duplicate_msgs_per_sec.Mean(),
              reports[i].duplicate_msgs_per_sec.Mean());
  }
}

/// The deterministic kernel counters must also be identical across
/// parallelism (the trials.cc fold contract extended to eval.bfs.*) and
/// across engines, whose level lists are bit-identical.
TEST(EvalIdentityTest, KernelCountersIdenticalAcrossParallelism) {
  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = 200;
  config.cluster_size = 5;
  config.ttl = 4;
  config.avg_outdegree = 3.1;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(7);
  const NetworkInstance inst = GenerateInstance(config, inputs, rng);

  std::vector<MetricsRegistry> registries(6);
  std::size_t variant = 0;
  for (const EvalEngine engine :
       {EvalEngine::kBatched, EvalEngine::kScalarReference}) {
    for (const std::size_t parallelism : {1u, 2u, 8u}) {
      EvalOptions options;
      options.engine = engine;
      options.parallelism = parallelism;
      options.metrics = &registries[variant++];
      EvaluateInstance(inst, config, inputs, options);
    }
  }
  for (const char* name :
       {"eval.sources", "eval.bfs.batches", "eval.bfs.levels",
        "eval.bfs.frontier_entries", "eval.bfs.edge_visits", "eval.reached",
        "eval.accumulate.neighbor_visits"}) {
    SCOPED_TRACE(name);
    EXPECT_GT(registries[0].CounterValue(name), 0u);
    for (std::size_t i = 1; i < registries.size(); ++i) {
      EXPECT_EQ(registries[0].CounterValue(name),
                registries[i].CounterValue(name))
          << "variant " << i;
    }
  }
  EXPECT_GT(registries[0].GaugeValue("eval.scratch.bytes"), 0.0);
  for (std::size_t i = 1; i < registries.size(); ++i) {
    EXPECT_EQ(registries[0].GaugeValue("eval.scratch.bytes"),
              registries[i].GaugeValue("eval.scratch.bytes"))
        << "variant " << i;
  }
}

/// Accumulate derives parents and reception counts with one neighbor
/// scan per (node, source word), not one per (node, source). The pinned
/// visit count fails if that work grows, for instance by a return to
/// per-source scans; such a scan would visit every neighbor of every
/// reached node once per source, which the second check computes.
TEST(EvalIdentityTest, AccumulateNeighborVisitsPinned) {
  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = 2000;
  config.cluster_size = 1;
  config.ttl = 4;
  config.avg_outdegree = 3.1;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(11);
  const NetworkInstance inst = GenerateInstance(config, inputs, rng);

  MetricsRegistry metrics;
  EvalOptions options;
  options.metrics = &metrics;
  EvaluateInstance(inst, config, inputs, options);
  const std::uint64_t visits =
      metrics.CounterValue("eval.accumulate.neighbor_visits");
  EXPECT_EQ(visits, 494116u);

  std::uint64_t per_source_scan = 0;
  FloodScratch scratch;
  for (NodeId s = 0; s < inst.NumClusters(); ++s) {
    FloodBfs(inst.topology, s, config.ttl, scratch);
    for (const NodeId u : scratch.order()) {
      per_source_scan += inst.topology.graph().Degree(u);
    }
  }
  EXPECT_LT(2 * visits, per_source_scan);
}

/// The expand pushes every (node, source word) entry of the forwarding
/// levels (depth < ttl) over each incident edge. The pin fails if that
/// work grows; the second check rebuilds the same sum from single-source
/// floods, merging the 64 floods of a batch that reach a node at the same
/// depth into one entry.
TEST(EvalIdentityTest, ExpandEdgeVisitsPinned) {
  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = 2000;
  config.cluster_size = 1;
  config.ttl = 4;
  config.avg_outdegree = 3.1;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(11);
  const NetworkInstance inst = GenerateInstance(config, inputs, rng);

  MetricsRegistry metrics;
  EvalOptions options;
  options.metrics = &metrics;
  EvaluateInstance(inst, config, inputs, options);
  const std::uint64_t visits = metrics.CounterValue("eval.bfs.edge_visits");
  EXPECT_EQ(visits, 356661u);

  const Graph& graph = inst.topology.graph();
  const std::size_t n = inst.NumClusters();
  std::uint64_t batch_entry_scan = 0;
  FloodScratch scratch;
  std::vector<std::set<NodeId>> forwarders(config.ttl);
  for (std::size_t begin = 0; begin < n; begin += kBfsWordBits) {
    for (auto& level : forwarders) level.clear();
    for (std::size_t s = begin; s < std::min(n, begin + kBfsWordBits); ++s) {
      FloodBfs(inst.topology, static_cast<NodeId>(s), config.ttl, scratch);
      for (const NodeId u : scratch.order()) {
        if (scratch.Depth(u) < config.ttl) {
          forwarders[scratch.Depth(u)].insert(u);
        }
      }
    }
    for (const auto& level : forwarders) {
      for (const NodeId u : level) batch_entry_scan += graph.Degree(u);
    }
  }
  EXPECT_EQ(visits, batch_entry_scan);
}

}  // namespace
}  // namespace sppnet
