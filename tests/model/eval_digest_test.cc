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
// positions). A change that legitimately reorders a floating-point sum
// must re-pin them as a deliberate, documented step.

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
        PlodPin{1000, 1, 1, 0, 0xf1e3a3cce61b87a9ull},
        PlodPin{1000, 1, 1, 1, 0x9ae3952018512f1full},
        PlodPin{1000, 1, 1, 2, 0x34a7ac9314d28d72ull},
        PlodPin{1000, 1, 1, 4, 0x7b8f752ebf9311bdull},
        PlodPin{1000, 1, 1, 7, 0x37a7a9b3b4e229a3ull},
        PlodPin{1000, 10, 1, 0, 0xa6f824506ad3e251ull},
        PlodPin{1000, 10, 1, 1, 0x9e61cbb2a11988afull},
        PlodPin{1000, 10, 1, 2, 0xa1bb4ca547b2992bull},
        PlodPin{1000, 10, 1, 4, 0xa1f1ae7692630bb2ull},
        PlodPin{1000, 10, 1, 7, 0xcf0e20f78e6d59cbull},
        PlodPin{1000, 10, 2, 0, 0x806be1d3abc5935bull},
        PlodPin{1000, 10, 2, 1, 0x361c82f8f42540dfull},
        PlodPin{1000, 10, 2, 2, 0xe06daa79221d3507ull},
        PlodPin{1000, 10, 2, 4, 0x16171227be4c420full},
        PlodPin{1000, 10, 2, 7, 0xeab464ba7c8966e9ull},
        PlodPin{4097, 1, 1, 0, 0x53757d679878851full},
        PlodPin{4097, 1, 1, 1, 0x1954cb05c0256e3cull},
        PlodPin{4097, 1, 1, 2, 0x9b19bbdcd3265864ull},
        PlodPin{4097, 1, 1, 4, 0xeeada0fd4f85d033ull},
        PlodPin{4097, 1, 1, 7, 0x6377199e4092932ull},
        PlodPin{4097, 10, 1, 0, 0x5a99b8a4ab76427aull},
        PlodPin{4097, 10, 1, 1, 0x8dd5087154845a45ull},
        PlodPin{4097, 10, 1, 2, 0x7ffe62e229745445ull},
        PlodPin{4097, 10, 1, 4, 0x734c6645965ceb29ull},
        PlodPin{4097, 10, 1, 7, 0xa9e0598715fef961ull},
        PlodPin{4097, 10, 2, 0, 0xa5a2d8635490706bull},
        PlodPin{4097, 10, 2, 1, 0x86133dbc8a6efc6full},
        PlodPin{4097, 10, 2, 2, 0x60844d664f0bb15dull},
        PlodPin{4097, 10, 2, 4, 0xf1e02a6921e415e8ull},
        PlodPin{4097, 10, 2, 7, 0x5c18214eee6f340dull}));

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
