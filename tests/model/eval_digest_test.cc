// ctest-label: threaded
// Exact-output pins for the analytical evaluator: an FNV-1a digest of
// every InstanceLoads field (each double by its bit pattern) on a fixed
// set of instances. eval_identity_test.cc only holds the engines to each
// other and golden_tables_test.cc pins tables rounded to 3 significant
// figures, so a rewrite of the shared accumulation pipeline that moved
// a single bit would pass both; it cannot pass these. Every pin is
// evaluated both inline and on a four-worker pool, which must fold to
// the same bits.
//
// The pins were taken before the word-level accumulate rewrite (parent
// and reception derivation per frontier word, first-seen batch
// positions), which kept every bit. The PLOD pins were re-taken when the
// batches switched from consecutive ids to slices of BfsSourceOrder,
// which reorders the floating-point sums; the caller-built overlays
// below have a BFS order equal to id order and kept theirs. A change
// that legitimately reorders a floating-point sum must re-pin them as a
// deliberate, documented step, and must keep eval_stats_pin_test.cc's
// tolerance pins passing unchanged.

#include <bit>
#include <cstdint>
#include <ios>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/io/checkpoint.h"
#include "sppnet/model/evaluator.h"
#include "sppnet/topology/graph.h"

namespace sppnet {
namespace {

std::uint64_t MixDouble(std::uint64_t state, double v) {
  return Fnv1aMix64(state, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t MixLoads(std::uint64_t state,
                       const std::vector<LoadVector>& loads) {
  state = Fnv1aMix64(state, loads.size());
  for (const LoadVector& l : loads) {
    state = MixDouble(state, l.in_bps);
    state = MixDouble(state, l.out_bps);
    state = MixDouble(state, l.proc_hz);
  }
  return state;
}

std::uint64_t MixDoubles(std::uint64_t state, const std::vector<double>& v) {
  state = Fnv1aMix64(state, v.size());
  for (const double x : v) state = MixDouble(state, x);
  return state;
}

/// FNV-1a over every field of InstanceLoads, in declaration order.
std::uint64_t LoadsDigest(const InstanceLoads& loads) {
  std::uint64_t h = kFnv1aOffset;
  h = MixLoads(h, loads.partner_load);
  h = MixLoads(h, loads.client_load);
  h = MixDoubles(h, loads.results_per_query);
  h = MixDoubles(h, loads.epl_per_source);
  h = MixDoubles(h, loads.reach_per_source);
  h = MixLoads(h, {loads.aggregate});
  h = MixDouble(h, loads.mean_results);
  h = MixDouble(h, loads.mean_epl);
  h = MixDouble(h, loads.mean_reach);
  h = MixDouble(h, loads.duplicate_msgs_per_sec);
  return h;
}

/// Evaluation parallelism levels every pin is checked at.
constexpr std::size_t kParallelism[] = {1, 4};

/// Digest of `inst` evaluated with `parallelism` workers.
std::uint64_t EvalDigest(const NetworkInstance& inst,
                         const Configuration& config,
                         std::size_t parallelism) {
  EvalOptions options;
  options.parallelism = parallelism;
  return LoadsDigest(
      EvaluateInstance(inst, config, ModelInputs::Default(), options));
}

/// `clusters` super-peers (flood sources) of `cluster_size` peers each.
Configuration MakeConfig(std::size_t clusters, double cluster_size, int k,
                         int ttl) {
  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = clusters * static_cast<std::size_t>(cluster_size);
  config.cluster_size = cluster_size;
  config.redundancy_k = k;
  config.ttl = ttl;
  config.avg_outdegree = 3.1;
  return config;
}

struct PlodPin {
  std::size_t clusters;
  double cluster_size;
  int k;
  int ttl;
  std::uint64_t digest;
};

class EvalDigestTest : public ::testing::TestWithParam<PlodPin> {};

TEST_P(EvalDigestTest, PlodLoadsMatchPin) {
  const PlodPin pin = GetParam();
  const Configuration config =
      MakeConfig(pin.clusters, pin.cluster_size, pin.k, pin.ttl);
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(2003);
  const NetworkInstance inst = GenerateInstance(config, inputs, rng);
  for (const std::size_t parallelism : kParallelism) {
    const std::uint64_t digest = EvalDigest(inst, config, parallelism);
    EXPECT_EQ(digest, pin.digest) << "parallelism " << parallelism
                                  << std::hex << ": actual 0x" << digest
                                  << "ull";
  }
}

// 4097 clusters leave a one-source remainder batch; TTL 0 and 1 put
// level 0 at ttl and ttl - 1, where the per-depth cases of the
// reception count differ. Cluster size 1 admits k = 1 only.
INSTANTIATE_TEST_SUITE_P(
    Pins, EvalDigestTest,
    ::testing::Values(
        PlodPin{1000, 1, 1, 0, 0xafd294e0f9ab77f4ull},
        PlodPin{1000, 1, 1, 1, 0xb4938133b54b4892ull},
        PlodPin{1000, 1, 1, 2, 0x98be8df91d80d55dull},
        PlodPin{1000, 1, 1, 4, 0x7777a17b7486b59cull},
        PlodPin{1000, 1, 1, 7, 0x6fd4d04e0c6c3294ull},
        PlodPin{1000, 10, 1, 0, 0x249450877376fc4cull},
        PlodPin{1000, 10, 1, 1, 0xe89bde56ab9e0177ull},
        PlodPin{1000, 10, 1, 2, 0xd2e7b887a6368a3cull},
        PlodPin{1000, 10, 1, 4, 0x3b2fbd0ae0948a82ull},
        PlodPin{1000, 10, 1, 7, 0x2d198b512433cd50ull},
        PlodPin{1000, 10, 2, 0, 0x9f3bca096c23ee8eull},
        PlodPin{1000, 10, 2, 1, 0xec9e3d39e4459e9cull},
        PlodPin{1000, 10, 2, 2, 0xbd63a940e486a41eull},
        PlodPin{1000, 10, 2, 4, 0x774465e6001e9b3full},
        PlodPin{1000, 10, 2, 7, 0x37513a5bfa4b2e2full},
        PlodPin{4097, 1, 1, 0, 0xb9abeb5544ec2d4dull},
        PlodPin{4097, 1, 1, 1, 0x2664ac5a7ed92cb9ull},
        PlodPin{4097, 1, 1, 2, 0xa36f5ec1a556258eull},
        PlodPin{4097, 1, 1, 4, 0x3d7481d2df07ec77ull},
        PlodPin{4097, 1, 1, 7, 0xc793ea481d1019b3ull},
        PlodPin{4097, 10, 1, 0, 0xde988442fd87ec66ull},
        PlodPin{4097, 10, 1, 1, 0xd73dc719329dd4faull},
        PlodPin{4097, 10, 1, 2, 0x22e27a33f443d496ull},
        PlodPin{4097, 10, 1, 4, 0x703228f9e5c2f302ull},
        PlodPin{4097, 10, 1, 7, 0x3e308f6cc297bed4ull},
        PlodPin{4097, 10, 2, 0, 0xdac37b3e8b076170ull},
        PlodPin{4097, 10, 2, 1, 0x38b5ad1ee5e10dbbull},
        PlodPin{4097, 10, 2, 2, 0x8cd4c9d24b2694aeull},
        PlodPin{4097, 10, 2, 4, 0x66177b1dd7c0c30cull},
        PlodPin{4097, 10, 2, 7, 0x73bff70a2ad7c900ull}));

/// Evaluates `config` over a caller-built overlay at every parallelism
/// level and requires each digest to equal `pin`.
void ExpectDigestOver(Graph graph, const Configuration& config,
                      std::uint64_t pin) {
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(2003);
  const NetworkInstance inst = GenerateInstanceWithTopology(
      Topology::FromGraph(std::move(graph)), config, inputs, rng);
  for (const std::size_t parallelism : kParallelism) {
    const std::uint64_t digest = EvalDigest(inst, config, parallelism);
    EXPECT_EQ(digest, pin) << "ttl " << config.ttl << ", parallelism "
                           << parallelism << std::hex << ": actual 0x"
                           << digest << "ull";
  }
}

TEST(EvalDigestTest, CompleteClosedFormMatchesPin) {
  Configuration config = MakeConfig(400, 10, 2, 2);
  config.graph_type = GraphType::kStronglyConnected;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(2003);
  const NetworkInstance inst = GenerateInstance(config, inputs, rng);
  ASSERT_TRUE(inst.topology.is_complete());
  for (const std::size_t parallelism : kParallelism) {
    EXPECT_EQ(EvalDigest(inst, config, parallelism), 0xf2ca6e3275eec859ull)
        << "parallelism " << parallelism;
  }
}

/// A complete graph built as an explicit CSR overlay runs through the
/// sparse pipeline: every node is a neighbor of every source, so every
/// frontier word meets every other node's word.
TEST(EvalDigestTest, MaterializedCompleteMatchesPin) {
  constexpr std::size_t kN = 150;
  const std::uint64_t pins[] = {0x422b6e1e4a6e62b3ull, 0xb48c8d378b2215e8ull};
  for (const int ttl : {1, 2}) {
    GraphBuilder builder(kN);
    for (NodeId u = 0; u < kN; ++u) {
      for (NodeId v = u + 1; v < kN; ++v) builder.AddEdge(u, v);
    }
    ExpectDigestOver(builder.Build(), MakeConfig(kN, 10, 1, ttl),
                     pins[ttl - 1]);
  }
}

/// A star: hub 0 of degree 199 > 64. Every source of the second and
/// third batches is a leaf, so all 64 of a batch reach the hub at level
/// 1 and the hub's frontier word is full.
TEST(EvalDigestTest, StarWithFullHubWordMatchesPin) {
  constexpr std::size_t kN = 200;
  const std::uint64_t pins[] = {0xa40e498d981ce013ull, 0xd1611582178982c1ull,
                                0xf572f48f98cb8311ull};
  for (const int ttl : {0, 1, 2}) {
    GraphBuilder builder(kN);
    for (NodeId v = 1; v < kN; ++v) builder.AddEdge(0, v);
    ExpectDigestOver(builder.Build(), MakeConfig(kN, 10, 1, ttl), pins[ttl]);
  }
}

}  // namespace
}  // namespace sppnet
