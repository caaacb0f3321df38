// ctest-label: threaded
// Edge cases of the evaluator's word-level flood accounting, checked
// against one scalar FloodBfs per source. The evaluator derives every
// source's canonical parent and reception count from one neighbor scan
// per (node, source word), split by depth: d <= ttl-2, d == ttl-1 and
// d == ttl. These instances put level 0 in each case (TTL 0, 1), leave
// a remainder batch, repeat edges across batches and isolate nodes, and
// require per-source reach and the summed duplicate rate to equal the
// scalar flood's, for both engines and with parallel workers.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/model/evaluator.h"
#include "sppnet/topology/bfs.h"
#include "sppnet/topology/graph.h"

namespace sppnet {
namespace {

Configuration MakeConfig(std::size_t clusters, int ttl) {
  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = clusters * 4;
  config.cluster_size = 4;
  config.ttl = ttl;
  config.avg_outdegree = 3.1;
  return config;
}

/// Checks `inst` under `config` against per-source FloodBfs: reach per
/// source exactly, and the duplicate rate summed in the evaluator's
/// order (batch b is entries [64b, 64b + 64) of BfsSourceOrder, sources
/// ascending within it, batches folded in order), so the doubles must
/// match bitwise.
void ExpectMatchesScalarFloods(const NetworkInstance& inst,
                               const Configuration& config) {
  const std::size_t n = inst.NumClusters();
  std::vector<NodeId> order = BfsSourceOrder(inst.topology.graph());
  FloodScratch scratch;
  std::vector<double> reached(n);
  double duplicates = 0.0;
  for (std::size_t begin = 0; begin < n; begin += kBfsWordBits) {
    const std::span<NodeId> sources = std::span<NodeId>(order).subspan(
        begin, std::min(n - begin, kBfsWordBits));
    std::ranges::sort(sources);
    double batch = 0.0;
    for (const NodeId s : sources) {
      const FloodStats stats = FloodBfs(inst.topology, s, config.ttl, scratch);
      reached[s] = static_cast<double>(stats.reached);
      const double w =
          static_cast<double>(inst.ClusterUsers(s)) * config.query_rate;
      batch += w * stats.duplicates;
    }
    duplicates += batch;
  }

  const ModelInputs inputs = ModelInputs::Default();
  for (const EvalEngine engine :
       {EvalEngine::kBatched, EvalEngine::kScalarReference}) {
    for (const std::size_t parallelism : {1u, 3u}) {
      SCOPED_TRACE(testing::Message()
                   << "engine " << static_cast<int>(engine) << ", parallelism "
                   << parallelism);
      EvalOptions options;
      options.engine = engine;
      options.parallelism = parallelism;
      const InstanceLoads loads =
          EvaluateInstance(inst, config, inputs, options);
      EXPECT_EQ(loads.reach_per_source, reached);
      EXPECT_EQ(loads.duplicate_msgs_per_sec, duplicates);
    }
  }
}

NetworkInstance Plod(const Configuration& config) {
  Rng rng(99);
  return GenerateInstance(config, ModelInputs::Default(), rng);
}

NetworkInstance Over(Graph graph, const Configuration& config) {
  Rng rng(99);
  return GenerateInstanceWithTopology(Topology::FromGraph(std::move(graph)),
                                      config, ModelInputs::Default(), rng);
}

// Level 0 is ttl: sources reach only themselves and send nothing.
TEST(EvalFloodEdgeTest, TtlZero) {
  const Configuration config = MakeConfig(300, 0);
  const NetworkInstance inst = Plod(config);
  ExpectMatchesScalarFloods(inst, config);
  const InstanceLoads loads =
      EvaluateInstance(inst, config, ModelInputs::Default());
  EXPECT_EQ(loads.duplicate_msgs_per_sec, 0.0);
}

// Level 0 is ttl-1: every neighbor sits at depth ttl and stays silent.
TEST(EvalFloodEdgeTest, TtlOne) {
  const Configuration config = MakeConfig(300, 1);
  ExpectMatchesScalarFloods(Plod(config), config);
}

// 4097 sources: a last batch of one source.
TEST(EvalFloodEdgeTest, RemainderBatch) {
  for (const int ttl : {2, 3, 5}) {
    SCOPED_TRACE(ttl);
    const Configuration config = MakeConfig(4097, ttl);
    ExpectMatchesScalarFloods(Plod(config), config);
  }
}

// Every edge is added twice, in both directions, between nodes 1, 64 and
// 97 ids apart. The builder keeps one copy, so no reception may be
// counted twice.
TEST(EvalFloodEdgeTest, DuplicateEdgesAcrossBatches) {
  constexpr std::size_t kN = 200;
  for (const int ttl : {1, 2, 3, 6}) {
    SCOPED_TRACE(ttl);
    GraphBuilder builder(kN);
    for (NodeId u = 0; u < kN; ++u) {
      for (const NodeId step : {1u, 64u, 97u}) {
        const auto v = static_cast<NodeId>((u + step) % kN);
        builder.AddEdge(u, v);
        builder.AddEdge(v, u);
      }
    }
    const Configuration config = MakeConfig(kN, ttl);
    ExpectMatchesScalarFloods(Over(builder.Build(), config), config);
  }
}

// Isolated nodes reach only themselves, with no reception; they share
// batches with sources of a connected part.
TEST(EvalFloodEdgeTest, IsolatedNodes) {
  constexpr std::size_t kN = 150;
  for (const int ttl : {0, 1, 2, 4}) {
    SCOPED_TRACE(ttl);
    GraphBuilder builder(kN);
    for (NodeId u = 0; u < kN; u += 3) {  // Every third node is connected.
      builder.AddEdge(u, static_cast<NodeId>((u + 3) % kN));
      builder.AddEdge(u, static_cast<NodeId>((u + 30) % kN));
    }
    const Configuration config = MakeConfig(kN, ttl);
    const NetworkInstance inst = Over(builder.Build(), config);
    ExpectMatchesScalarFloods(inst, config);
    const InstanceLoads loads =
        EvaluateInstance(inst, config, ModelInputs::Default());
    EXPECT_EQ(loads.reach_per_source[1], 1.0);
    EXPECT_EQ(loads.reach_per_source[149], 1.0);
  }
}

}  // namespace
}  // namespace sppnet
