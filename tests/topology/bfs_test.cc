#include "sppnet/topology/bfs.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/topology/plod.h"

namespace sppnet {
namespace {

/// Path graph 0-1-2-...-(n-1).
Topology MakePath(std::size_t n) {
  GraphBuilder builder(n);
  for (NodeId u = 0; u + 1 < n; ++u) builder.AddEdge(u, u + 1);
  return Topology::FromGraph(builder.Build());
}

/// Cycle graph.
Topology MakeCycle(std::size_t n) {
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    builder.AddEdge(u, static_cast<NodeId>((u + 1) % n));
  }
  return Topology::FromGraph(builder.Build());
}

/// Star: node 0 is the hub.
Topology MakeStar(std::size_t n) {
  GraphBuilder builder(n);
  for (NodeId u = 1; u < n; ++u) builder.AddEdge(0, u);
  return Topology::FromGraph(builder.Build());
}

TEST(FloodBfsTest, PathDepthsAndReach) {
  const Topology path = MakePath(6);
  FloodScratch scratch;
  const FloodStats stats = FloodBfs(path, 0, 3, scratch);
  EXPECT_EQ(stats.reached, 4u);  // Nodes 0..3 within 3 hops.
  EXPECT_EQ(scratch.Depth(0), 0);
  EXPECT_EQ(scratch.Depth(3), 3);
  EXPECT_FALSE(scratch.Visited(4));
  // A path has no cycles: no duplicates.
  EXPECT_EQ(stats.duplicates, 0.0);
  // Transmissions: node 0 sends 1, node 1 sends 1, node 2 sends 1
  // (node 3 is at depth == TTL and does not forward).
  EXPECT_EQ(stats.transmissions, 3.0);
  EXPECT_EQ(stats.depth_sum, 0.0 + 1 + 2 + 3);
}

TEST(FloodBfsTest, ZeroTtlReachesOnlySource) {
  const Topology path = MakePath(4);
  FloodScratch scratch;
  const FloodStats stats = FloodBfs(path, 1, 0, scratch);
  EXPECT_EQ(stats.reached, 1u);
  EXPECT_EQ(stats.transmissions, 0.0);
}

TEST(FloodBfsTest, CycleProducesDuplicates) {
  // In a cycle of 5 with TTL 5, the two flood fronts meet: redundant
  // messages are received and dropped.
  const Topology cycle = MakeCycle(5);
  FloodScratch scratch;
  const FloodStats stats = FloodBfs(cycle, 0, 5, scratch);
  EXPECT_EQ(stats.reached, 5u);
  EXPECT_GT(stats.duplicates, 0.0);
  // Conservation: every transmission is either a fresh visit or a dup.
  EXPECT_DOUBLE_EQ(stats.transmissions,
                   static_cast<double>(stats.reached - 1) + stats.duplicates);
}

TEST(FloodBfsTest, StarHubForwardsToAll) {
  const Topology star = MakeStar(8);
  FloodScratch scratch;
  const FloodStats stats = FloodBfs(star, 0, 1, scratch);
  EXPECT_EQ(stats.reached, 8u);
  EXPECT_EQ(stats.transmissions, 7.0);
  EXPECT_EQ(scratch.Transmissions(0), 7u);
  for (NodeId u = 1; u < 8; ++u) {
    EXPECT_EQ(scratch.Receptions(u), 1u);
    EXPECT_EQ(scratch.Parent(u), 0u);
  }
}

TEST(FloodBfsTest, LeafDoesNotSendBackOnArrivalEdge) {
  // Star flood from a leaf with TTL 2: leaf -> hub -> other leaves.
  // The hub must not send the query back to the originating leaf.
  const Topology star = MakeStar(5);
  FloodScratch scratch;
  const FloodStats stats = FloodBfs(star, 1, 2, scratch);
  EXPECT_EQ(stats.reached, 5u);
  EXPECT_EQ(scratch.Receptions(1), 0u);  // Source receives nothing back.
  EXPECT_EQ(scratch.Transmissions(0), 3u);  // Hub skips the arrival edge.
  EXPECT_EQ(stats.duplicates, 0.0);
}

TEST(FloodBfsTest, CompleteTopologyTtlOne) {
  const Topology full = Topology::Complete(10);
  FloodScratch scratch;
  const FloodStats stats = FloodBfs(full, 3, 1, scratch);
  EXPECT_EQ(stats.reached, 10u);
  EXPECT_EQ(stats.transmissions, 9.0);
  EXPECT_EQ(stats.duplicates, 0.0);
  for (NodeId u = 0; u < 10; ++u) {
    if (u == 3) continue;
    EXPECT_EQ(scratch.Depth(u), 1);
    EXPECT_EQ(scratch.Parent(u), 3u);
  }
}

TEST(FloodBfsTest, CompleteTopologyTtlTwoAddsDuplicates) {
  const Topology full = Topology::Complete(10);
  FloodScratch scratch;
  const FloodStats stats = FloodBfs(full, 0, 2, scratch);
  EXPECT_EQ(stats.reached, 10u);
  // Every depth-1 node sends n-2 = 8 redundant messages.
  EXPECT_DOUBLE_EQ(stats.duplicates, 9.0 * 8.0);
  EXPECT_DOUBLE_EQ(stats.transmissions, 9.0 + 9.0 * 8.0);
  EXPECT_EQ(scratch.Receptions(0), 0u);  // Source gets nothing back.
  EXPECT_EQ(scratch.Receptions(5), 9u);  // 1 fresh + 8 duplicates.
}

TEST(FloodBfsTest, ScratchReuseAcrossSources) {
  const Topology path = MakePath(10);
  FloodScratch scratch;
  FloodBfs(path, 0, 9, scratch);
  const FloodStats second = FloodBfs(path, 9, 2, scratch);
  EXPECT_EQ(second.reached, 3u);
  EXPECT_TRUE(scratch.Visited(9));
  EXPECT_TRUE(scratch.Visited(7));
  EXPECT_FALSE(scratch.Visited(0));  // Stale state must not leak.
}

// Invariant sweep on random power-law graphs: conservation between
// transmissions, fresh visits and duplicates; parent depths consistent.
class FloodInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(FloodInvariantTest, ConservationAndTreeConsistency) {
  const int ttl = GetParam();
  Rng rng(101);
  PlodParams params;
  params.target_avg_degree = 4.0;
  const Graph g = GeneratePlod(400, params, rng);
  const Topology topo = Topology::FromGraph(g);
  FloodScratch scratch;
  for (NodeId source = 0; source < 20; ++source) {
    const FloodStats stats = FloodBfs(topo, source, ttl, scratch);
    EXPECT_DOUBLE_EQ(
        stats.transmissions,
        static_cast<double>(stats.reached - 1) + stats.duplicates);
    double recomputed_depth_sum = 0.0;
    double total_receptions = 0.0;
    for (const NodeId u : scratch.order()) {
      recomputed_depth_sum += scratch.Depth(u);
      total_receptions += scratch.Receptions(u);
      if (u != source) {
        EXPECT_EQ(scratch.Depth(u), scratch.Depth(scratch.Parent(u)) + 1);
        EXPECT_LE(scratch.Depth(u), ttl);
      }
    }
    EXPECT_DOUBLE_EQ(recomputed_depth_sum, stats.depth_sum);
    // Every transmission is received by exactly one node.
    EXPECT_DOUBLE_EQ(total_receptions, stats.transmissions);
  }
}

INSTANTIATE_TEST_SUITE_P(Ttls, FloodInvariantTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(EplForReachTest, PathGraph) {
  const Topology path = MakePath(10);
  FloodScratch scratch;
  // Nearest 3 nodes from node 0 sit at depths 1, 2, 3.
  const auto epl = EplForReach(path, 0, 3, scratch);
  ASSERT_TRUE(epl.has_value());
  EXPECT_DOUBLE_EQ(*epl, 2.0);
}

TEST(EplForReachTest, UnreachableReach) {
  const Topology path = MakePath(5);
  FloodScratch scratch;
  EXPECT_FALSE(EplForReach(path, 0, 5, scratch).has_value());
  EXPECT_TRUE(EplForReach(path, 0, 4, scratch).has_value());
}

TEST(EplForReachTest, CompleteIsOneHop) {
  const Topology full = Topology::Complete(50);
  FloodScratch scratch;
  const auto epl = EplForReach(full, 0, 20, scratch);
  ASSERT_TRUE(epl.has_value());
  EXPECT_DOUBLE_EQ(*epl, 1.0);
}

TEST(MinTtlForFullReachTest, PathEccentricity) {
  const Topology path = MakePath(7);
  FloodScratch scratch;
  EXPECT_EQ(MinTtlForFullReach(path, 0, scratch), 6);
  EXPECT_EQ(MinTtlForFullReach(path, 3, scratch), 3);
}

TEST(MinTtlForFullReachTest, DisconnectedReturnsNullopt) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  const Topology topo = Topology::FromGraph(builder.Build());
  FloodScratch scratch;
  EXPECT_FALSE(MinTtlForFullReach(topo, 0, scratch).has_value());
}

/// True if `order` holds every id of [0, n) exactly once.
bool IsPermutation(std::vector<NodeId> order, std::size_t n) {
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  std::sort(order.begin(), order.end());
  return order == ids;
}

Graph MakePlodGraph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  PlodParams params;
  params.target_avg_degree = 3.1;
  return GeneratePlod(n, params, rng);
}

TEST(BfsSourceOrderTest, PermutationIdenticalAcrossCalls) {
  const Graph g = MakePlodGraph(300, 4242);
  const std::vector<NodeId> order = BfsSourceOrder(g);
  EXPECT_TRUE(IsPermutation(order, g.num_nodes()));
  EXPECT_EQ(order.front(), 0u);
  EXPECT_EQ(BfsSourceOrder(g), order);
  EXPECT_EQ(BfsSourceOrder(MakePlodGraph(300, 4242)), order);
}

// Each node joins the order when its first already-ordered neighbor is
// scanned, so every node but a component's root has a neighbor earlier
// in the order, and depth from the root never decreases.
TEST(BfsSourceOrderTest, PlodOrderIsBreadthFirst) {
  const Graph g = MakePlodGraph(500, 17);
  const std::vector<NodeId> order = BfsSourceOrder(g);
  ASSERT_TRUE(IsPermutation(order, g.num_nodes()));
  std::vector<std::size_t> rank(g.num_nodes());
  for (std::size_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
  std::vector<int> depth(g.num_nodes(), 0);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const NodeId v = order[i];
    NodeId parent = v;
    for (const NodeId u : g.Neighbors(v)) {
      if (rank[u] < rank[v] && (parent == v || rank[u] < rank[parent])) {
        parent = u;
      }
    }
    if (parent == v) {  // A new component starts at the lowest unvisited id.
      for (NodeId u = 0; u < v; ++u) EXPECT_LT(rank[u], i) << "node " << u;
      continue;
    }
    depth[v] = depth[parent] + 1;
    EXPECT_GE(depth[v], depth[order[i - 1]]) << "position " << i;
  }
}

// Neighbors are taken in ascending id order; each exhausted component is
// followed by the lowest unvisited id, isolated nodes included.
TEST(BfsSourceOrderTest, DisconnectedComponentsAndIsolatedNodes) {
  GraphBuilder builder(9);
  builder.AddEdge(0, 5);
  builder.AddEdge(0, 2);
  builder.AddEdge(5, 1);
  builder.AddEdge(2, 3);
  builder.AddEdge(2, 1);
  builder.AddEdge(8, 6);
  const std::vector<NodeId> expected = {0, 2, 5, 1, 3, 4, 6, 8, 7};
  EXPECT_EQ(BfsSourceOrder(builder.Build()), expected);

  const std::vector<NodeId> identity = {0, 1, 2, 3};
  EXPECT_EQ(BfsSourceOrder(Graph(4)), identity);
}

// 130 nodes: two full 64-source batches and a remainder of 2. Every id
// lands in exactly one batch slice.
TEST(BfsSourceOrderTest, RemainderBatchCoversEveryNodeOnce) {
  const Graph g = MakePlodGraph(130, 999);
  const std::vector<NodeId> order = BfsSourceOrder(g);
  ASSERT_EQ(order.size(), 130u);
  std::vector<int> seen(g.num_nodes(), 0);
  std::size_t batches = 0;
  for (std::size_t begin = 0; begin < order.size(); begin += kBfsWordBits) {
    const std::size_t end = std::min(order.size(), begin + kBfsWordBits);
    for (std::size_t i = begin; i < end; ++i) ++seen[order[i]];
    ++batches;
    if (end == order.size()) {
      EXPECT_EQ(end - begin, 2u);
    }
  }
  EXPECT_EQ(batches, 3u);
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int c) { return c == 1; }));
}

TEST(BfsSourceOrderTest, EmptyAndSingleNodeGraphs) {
  EXPECT_TRUE(BfsSourceOrder(Graph(0)).empty());
  EXPECT_EQ(BfsSourceOrder(Graph(1)), std::vector<NodeId>{0});
}

}  // namespace
}  // namespace sppnet
