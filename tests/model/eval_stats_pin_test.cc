// ctest-label: threaded
// Tolerance pins for the analytical evaluator, beside the exact FNV-1a
// pins of eval_digest_test.cc and over the same instances. A change that
// only reassociates floating-point sums (a different source batching, a
// different fold order) moves the exact digests, but must keep every
// statistic here within kRelTol of the value pinned before it, and the
// per-source reach exactly. That is the statistical-equivalence check a
// deliberate re-pin of the digests has to pass, kept as a standing test:
// these pins are never re-taken together with the digests.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/io/checkpoint.h"
#include "sppnet/model/evaluator.h"
#include "sppnet/topology/graph.h"

namespace sppnet {
namespace {

constexpr double kRelTol = 1e-12;

/// The pinned statistics of one evaluation.
struct StatsPin {
  double in_bps;   // aggregate
  double out_bps;  // aggregate
  double proc_hz;  // aggregate
  double mean_results;
  double mean_epl;
  double mean_reach;
  double duplicate_msgs_per_sec;
  std::uint64_t reach_digest;  // FNV-1a of reach_per_source, bitwise.
};

std::uint64_t ReachDigest(const std::vector<double>& reach) {
  std::uint64_t h = Fnv1aMix64(kFnv1aOffset, reach.size());
  for (const double r : reach) {
    h = Fnv1aMix64(h, std::bit_cast<std::uint64_t>(r));
  }
  return h;
}

void ExpectNear(double actual, double pinned, const char* what) {
  EXPECT_LE(std::abs(actual - pinned), kRelTol * std::abs(pinned))
      << what << ": actual " << actual << ", pinned " << pinned;
}

/// Evaluates `inst` at parallelism 1 and 4 and checks both against `pin`.
/// On a mismatch it prints the actual values in the pin's own layout.
void ExpectStats(const NetworkInstance& inst, const Configuration& config,
                 const StatsPin& pin) {
  for (const std::size_t parallelism : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "parallelism " << parallelism);
    EvalOptions options;
    options.parallelism = parallelism;
    const InstanceLoads loads =
        EvaluateInstance(inst, config, ModelInputs::Default(), options);
    const StatsPin actual{loads.aggregate.in_bps,
                          loads.aggregate.out_bps,
                          loads.aggregate.proc_hz,
                          loads.mean_results,
                          loads.mean_epl,
                          loads.mean_reach,
                          loads.duplicate_msgs_per_sec,
                          ReachDigest(loads.reach_per_source)};
    ExpectNear(actual.in_bps, pin.in_bps, "aggregate.in_bps");
    ExpectNear(actual.out_bps, pin.out_bps, "aggregate.out_bps");
    ExpectNear(actual.proc_hz, pin.proc_hz, "aggregate.proc_hz");
    ExpectNear(actual.mean_results, pin.mean_results, "mean_results");
    ExpectNear(actual.mean_epl, pin.mean_epl, "mean_epl");
    ExpectNear(actual.mean_reach, pin.mean_reach, "mean_reach");
    ExpectNear(actual.duplicate_msgs_per_sec, pin.duplicate_msgs_per_sec,
               "duplicate_msgs_per_sec");
    EXPECT_EQ(actual.reach_digest, pin.reach_digest) << "reach_per_source";
    if (testing::Test::HasFailure()) {
      std::printf("actual {%.17g, %.17g, %.17g, %.17g, %.17g, %.17g, %.17g, "
                  "0x%llxull}\n",
                  actual.in_bps, actual.out_bps, actual.proc_hz,
                  actual.mean_results, actual.mean_epl, actual.mean_reach,
                  actual.duplicate_msgs_per_sec,
                  static_cast<unsigned long long>(actual.reach_digest));
      return;
    }
  }
}

/// The configuration eval_digest_test.cc uses for the same pins.
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

struct PlodStatsPin {
  std::size_t clusters;
  double cluster_size;
  int k;
  int ttl;
  StatsPin stats;
};

class EvalStatsPinTest : public ::testing::TestWithParam<PlodStatsPin> {};

TEST_P(EvalStatsPinTest, PlodStatsWithinTolerance) {
  const PlodStatsPin pin = GetParam();
  const Configuration config =
      MakeConfig(pin.clusters, pin.cluster_size, pin.k, pin.ttl);
  Rng rng(2003);
  const NetworkInstance inst =
      GenerateInstance(config, ModelInputs::Default(), rng);
  ExpectStats(inst, config, pin.stats);
}

INSTANTIATE_TEST_SUITE_P(
    Pins, EvalStatsPinTest,
    ::testing::Values(
        PlodStatsPin{1000, 1, 1, 0,
                     {0, 0, 44424071.452139482, 0.082559160000000076, 0, 1, 0,
                      0xac7fe09ff9820f26ull}},
        PlodStatsPin{1000, 1, 1, 1,
                     {24286.400201971333, 24286.400201971333,
                      47656380.038962826, 0.29561651000000022,
                      0.87299999999999955, 4.1340000000000003, 0,
                      0x251763ace18428a2ull}},
        PlodStatsPin{1000, 1, 1, 2,
                     {258376.9516196691, 258376.9516196691, 74056110.977779552,
                      2.1434387200000016, 1.7774767976701895,
                      29.067999999999991, 25.131640000000004,
                      0xfcaaf33815f4ef2eull}},
        PlodStatsPin{1000, 1, 1, 4,
                     {7055557.4327001134, 7055557.4327001022,
                      543515096.65735531, 33.743108260000035,
                      3.6200407323782287, 439.71599999999995,
                      3536.2273199999995, 0xea140e78dd986c26ull}},
        PlodStatsPin{1000, 1, 1, 7,
                     {18373832.814988308, 18373832.814988364,
                      1156642863.0025439, 78.869162200000062,
                      4.7736544382960249, 955.65199999999959, 10165.27612,
                      0x30572d79a75383d4ull}},
        PlodStatsPin{1000, 10, 1, 0,
                     {2674367.8990175365, 2674367.8990175063,
                      395491352.98649377, 0.90745535256091603, 0, 1, 0,
                      0xac7fe09ff9820f26ull}},
        PlodStatsPin{1000, 10, 1, 1,
                     {3354858.8027479388, 3354858.8027478959, 433933163.2401275,
                      3.4009016280457525, 1, 4.1225261064147158, 0,
                      0x251763ace18428a2ull}},
        PlodStatsPin{1000, 10, 1, 2,
                     {10809334.450201726, 10809334.450201739,
                      762615832.27755368, 22.821055575335681,
                      1.7884912321344526, 28.904425658876171, 251.37196,
                      0xfcaaf33815f4ef2eull}},
        PlodStatsPin{1000, 10, 1, 4,
                     {219213322.47991171, 219213322.47991484,
                      7119145860.5770416, 371.30043135653943,
                      3.6156315434487381, 437.99363500745886,
                      35385.015759999995, 0xea140e78dd986c26ull}},
        PlodStatsPin{1000, 10, 1, 7,
                     {596407819.0610007, 596407819.06098521, 16206349014.476952,
                      845.11963248234804, 4.7590038534350709,
                      955.39134758826435, 102197.91591999997,
                      0x30572d79a75383d4ull}},
        PlodStatsPin{1000, 10, 2, 0,
                     {5076033.4580673063, 5076033.4580673641,
                      776960651.18885374, 0.90777601413216658, 0, 1, 0,
                      0xac7fe09ff9820f26ull}},
        PlodStatsPin{1000, 10, 2, 1,
                     {5736602.1858525677, 5736602.1858526533, 815817232.1476444,
                      3.4391926283837622, 1, 4.1200238853503164, 0,
                      0x251763ace18428a2ull}},
        PlodStatsPin{1000, 10, 2, 2,
                     {13045067.290378733, 13045067.290378563,
                      1153058501.4650948, 23.101394991043016, 1.78901486574107,
                      28.883359872611461, 250.79783999999998,
                      0xfcaaf33815f4ef2eull}},
        PlodStatsPin{1000, 10, 2, 4,
                     {220128269.03514186, 220128269.03513911,
                      7763116254.0640697, 377.95776446656089,
                      3.6176259577699339, 437.99701433121027,
                      35348.457279999995, 0xea140e78dd986c26ull}},
        PlodStatsPin{1000, 10, 2, 7,
                     {590036141.43211317, 590036141.43210268,
                      17106010148.137716, 846.85803740943561,
                      4.7479768796705439, 955.34852707006371, 102117.69654,
                      0x30572d79a75383d4ull}},
        PlodStatsPin{4097, 1, 1, 0,
                     {0, 0, 152518426.70651245, 0.094548144984134802, 0, 1, 0,
                      0x3403ad22ab088fabull}},
        PlodStatsPin{4097, 1, 1, 1,
                     {102288.42394627295, 102288.42394627251, 165792173.3758314,
                      0.39569849157920473, 0.89138393946790262,
                      4.1296070295338039, 0, 0x11e4b9278918a1abull}},
        PlodStatsPin{4097, 1, 1, 2,
                     {1107653.2838148456, 1107653.283814841, 281720335.92150342,
                      2.8557436197217512, 1.7854024915608417, 30.93068098608736,
                      34.391639999999988, 0xb7117ac880af050bull}},
        PlodStatsPin{4097, 1, 1, 4,
                     {58447250.579174332, 58447250.579174057,
                      4605478553.8199282, 88.013047317549535,
                      3.7310996496583479, 969.66634122528637,
                      22118.871219999997, 0xe14db34a35b38648ull}},
        PlodStatsPin{4097, 1, 1, 7,
                     {303911248.0963583, 303911248.09635562, 17950282272.717796,
                      339.85797773004651, 5.3091876384523529,
                      3702.4054185989739, 162472.98754, 0x3ed53b1959ecd681ull}},
        PlodStatsPin{4097, 10, 1, 0,
                     {11340250.711318171, 11340250.711318523,
                      1682065889.1553524, 0.90161525306430856, 0, 1, 0,
                      0x3403ad22ab088fabull}},
        PlodStatsPin{4097, 10, 1, 1,
                     {14205226.914358834, 14205226.914358808,
                      1840392112.2319496, 3.5662799554060998, 1,
                      4.1298096839437548, 0, 0x11e4b9278918a1abull}},
        PlodStatsPin{4097, 10, 1, 2,
                     {48457062.490863934, 48457062.490864381,
                      3307556417.3388224, 27.050840092843071,
                      1.7921773977307083, 30.996905231863913,
                      343.94417999999996, 0xb7117ac880af050bull}},
        PlodStatsPin{4097, 10, 1, 4,
                     {1981276279.5232546, 1981276279.5231946,
                      62526180609.639824, 851.15427028681472,
                      3.7363042248469491, 969.47413309939816, 221666.6393199999,
                      0xe14db34a35b38648ull}},
        PlodStatsPin{4097, 10, 1, 7,
                     {9938746748.5445957, 9938746748.5444603,
                      257725486602.34229, 3222.3073681350998,
                      5.3065672304816518, 3700.7292443404722,
                      1626631.4997400006, 0x3ed53b1959ecd681ull}},
        PlodStatsPin{4097, 10, 2, 0,
                     {22089891.906825092, 22089891.906825285,
                      3313297317.9717054, 0.88930929334308817, 0, 1, 0,
                      0x3403ad22ab088fabull}},
        PlodStatsPin{4097, 10, 2, 1,
                     {24844928.32476962, 24844928.324769676, 3473130334.7441978,
                      3.5326059500121954, 1, 4.1299683004145313, 0,
                      0x11e4b9278918a1abull}},
        PlodStatsPin{4097, 10, 2, 2,
                     {57532696.479643367, 57532696.479644947, 4969250008.237525,
                      26.029923304316053, 1.7935319697873042,
                      30.999561082662765, 343.94418000000002,
                      0xb7117ac880af050bull}},
        PlodStatsPin{4097, 10, 2, 4,
                     {1945340480.5855083, 1945340480.5855272,
                      66364262773.773987, 837.26601558644347,
                      3.7374714594001577, 970.03338210192624,
                      221669.61178000001, 0xe14db34a35b38648ull}},
        PlodStatsPin{4097, 10, 2, 7,
                     {9767635435.8580208, 9767635435.8575439,
                      268389856817.30011, 3185.95627540137, 5.3038657815918251,
                      3701.3351133869787, 1625832.0561599997,
                      0x3ed53b1959ecd681ull}}));

/// eval_digest_test.cc's caller-built overlays.
NetworkInstance Over(Graph graph, const Configuration& config) {
  Rng rng(2003);
  return GenerateInstanceWithTopology(Topology::FromGraph(std::move(graph)),
                                      config, ModelInputs::Default(), rng);
}

TEST(EvalStatsPinTest, CompleteClosedFormWithinTolerance) {
  Configuration config = MakeConfig(400, 10, 2, 2);
  config.graph_type = GraphType::kStronglyConnected;
  Rng rng(2003);
  const NetworkInstance inst =
      GenerateInstance(config, ModelInputs::Default(), rng);
  ASSERT_TRUE(inst.topology.is_complete());
  ExpectStats(inst, config,
              {4457263024.809042, 4457263024.8091135, 734321666666.55823,
               329.95574000000136, 1, 400.00000000000193, 5879085.0669599855,
               0xd6fb022ba1e81998ull});
}

TEST(EvalStatsPinTest, MaterializedCompleteWithinTolerance) {
  constexpr std::size_t kN = 150;
  const StatsPin pins[] = {
      {5552192.1241317093, 5552192.124131904, 415123877.08147347,
       129.31258000000025, 1, 149.99999999999991, 0, 0xc166ebc5f8272f5ull},
      {233434553.99549407, 233434553.99549237, 9691978138.8552952,
       129.31258000000025, 1, 149.99999999999991, 303035.05567999999,
       0xc166ebc5f8272f5ull}};
  for (const int ttl : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "ttl " << ttl);
    GraphBuilder builder(kN);
    for (NodeId u = 0; u < kN; ++u) {
      for (NodeId v = u + 1; v < kN; ++v) builder.AddEdge(u, v);
    }
    const Configuration config = MakeConfig(kN, 10, 1, ttl);
    ExpectStats(Over(builder.Build(), config), config, pins[ttl - 1]);
  }
}

TEST(EvalStatsPinTest, StarWithinTolerance) {
  constexpr std::size_t kN = 200;
  const StatsPin pins[] = {
      {668418.57713088626, 668418.57713088719, 97001994.926975414,
       0.91059262788365192, 0, 1, 0, 0x96737fd702786fabull},
      {742294.65038402332, 742294.65038402844, 101979834.15606521,
       2.1817856670010056, 1, 2.7943831494483429, 0, 0x2db619e039c93a4aull},
      {13186182.505319836, 13186182.505320996, 704005171.2931397,
       178.72607000000025, 1.9914436874284338, 200, 0, 0xabae428f00b5392bull}};
  for (const int ttl : {0, 1, 2}) {
    SCOPED_TRACE(testing::Message() << "ttl " << ttl);
    GraphBuilder builder(kN);
    for (NodeId v = 1; v < kN; ++v) builder.AddEdge(0, v);
    const Configuration config = MakeConfig(kN, 10, 1, ttl);
    ExpectStats(Over(builder.Build(), config), config, pins[ttl]);
  }
}

}  // namespace
}  // namespace sppnet
