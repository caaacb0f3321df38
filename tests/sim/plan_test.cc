// The unified layer-plan contract (sim/plan.h, DESIGN.md §15): every
// plan models LayerPlan, every plan's Validate() dies on malformed
// knobs with its documented message, and the cross-layer compatibility
// matrix is the single authority consulted by SimOptions::Validate.

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "sppnet/index/routing_index.h"
#include "sppnet/model/consistency.h"
#include "sppnet/sim/adaptive_sim.h"
#include "sppnet/sim/faults.h"
#include "sppnet/sim/plan.h"
#include "sppnet/sim/sharded_sim.h"
#include "sppnet/sim/simulator.h"

namespace sppnet {
namespace {

// The contract itself is compile-time; re-asserting it here means a
// drifting plan breaks the test target even if plan.cc is stale.
static_assert(LayerPlan<ChurnPlan>);
static_assert(LayerPlan<CapacityPlan>);
static_assert(LayerPlan<FaultPlan>);
static_assert(LayerPlan<AdaptivePlan>);
static_assert(LayerPlan<RoutingOptions>);
static_assert(LayerPlan<ConsistencyPlan>);
static_assert(LayerPlan<ReplicationPlan>);
static_assert(LayerPlan<ShardPlan>);

TEST(LayerPlanTest, DefaultPlansAreInactiveAndValid) {
  // A default-constructed plan is inactive (never consulted by the
  // simulator) and passes its own Validate().
  EXPECT_FALSE(ChurnPlan{}.enabled());
  EXPECT_FALSE(CapacityPlan{}.enabled());
  EXPECT_FALSE(FaultPlan{}.enabled());
  EXPECT_FALSE(AdaptivePlan{}.enabled());
  EXPECT_FALSE(RoutingOptions{}.enabled());
  EXPECT_FALSE(ConsistencyPlan{}.enabled());
  EXPECT_FALSE(ReplicationPlan{}.enabled());
  EXPECT_FALSE(ShardPlan{}.enabled());
  ChurnPlan{}.Validate();
  CapacityPlan{}.Validate();
  FaultPlan{}.Validate();
  AdaptivePlan{}.Validate();
  RoutingOptions{}.Validate();
  ConsistencyPlan{}.Validate();
  ReplicationPlan{}.Validate();
  ShardPlan{}.Validate();
}

TEST(LayerPlanTest, EnabledTracksTheMasterKnob) {
  ChurnPlan churn;
  churn.enable = true;
  EXPECT_TRUE(churn.enabled());

  CapacityPlan capacity;
  capacity.enable = true;
  EXPECT_TRUE(capacity.enabled());

  RoutingOptions routing;
  routing.enable = true;
  EXPECT_TRUE(routing.enabled());

  AdaptivePlan adaptive;
  adaptive.probe_interval_seconds = 5.0;
  EXPECT_TRUE(adaptive.enabled());

  ConsistencyPlan consistency;
  consistency.change_rate_per_client = 0.01;
  EXPECT_TRUE(consistency.enabled());

  ShardPlan shards;
  shards.num_shards = 2;
  EXPECT_TRUE(shards.enabled());
}

TEST(LayerPlanTest, StreamSaltsArePairwiseDistinct) {
  const std::set<std::uint64_t> salts = {
      FaultPlan::kStreamSalt,          AdaptivePlan::kStreamSalt,
      RoutingOptions::kStreamSalt,     ConsistencyPlan::kStreamSalt,
      CapacityPlan::kStreamSalt,       ShardPlan::kProtoStreamSalt,
      ShardPlan::kFaultStreamSalt,     ShardPlan::kCtlStreamSalt,
  };
  EXPECT_EQ(salts.size(), 8u);
}

TEST(ChurnPlanDeathTest, RejectsInvalidConfigs) {
  ChurnPlan plan;
  plan.partner_recovery_seconds = 0.0;
  EXPECT_DEATH(plan.Validate(), "partner recovery time");
  plan.partner_recovery_seconds = -1.0;
  EXPECT_DEATH(plan.Validate(), "partner recovery time");
}

TEST(CapacityPlanDeathTest, RejectsInvalidConfigs) {
  {
    CapacityPlan plan;
    plan.window_seconds = 0.0;
    EXPECT_DEATH(plan.Validate(), "capacity window");
  }
  {
    CapacityPlan plan;
    plan.overload_utilization = 0.0;
    EXPECT_DEATH(plan.Validate(), "overload utilization");
  }
}

TEST(FeatureMatrixTest, ConflictsAreWellFormed) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const FeatureConflict& c : FeatureConflicts()) {
    EXPECT_NE(c.a, c.b) << c.reason;
    EXPECT_NE(c.reason, nullptr);
    EXPECT_FALSE(std::string(c.reason).empty());
    // Each unordered pair appears once.
    const auto a = static_cast<std::uint32_t>(c.a);
    const auto b = static_cast<std::uint32_t>(c.b);
    EXPECT_TRUE(seen.insert({std::min(a, b), std::max(a, b)}).second)
        << "duplicate conflict entry: " << c.reason;
  }
  // Eight pairings; sharded runs exclude exactly routing, consistency
  // and capacity.
  EXPECT_EQ(FeatureConflicts().size(), 8u);
  std::set<SimFeature> shard_conflicts;
  for (const FeatureConflict& c : FeatureConflicts()) {
    if (c.a == SimFeature::kShards) shard_conflicts.insert(c.b);
    if (c.b == SimFeature::kShards) shard_conflicts.insert(c.a);
  }
  EXPECT_EQ(shard_conflicts,
            (std::set<SimFeature>{SimFeature::kRouting,
                                  SimFeature::kConsistency,
                                  SimFeature::kCapacity}));
}

TEST(FeatureMatrixTest, EveryFeatureHasAName) {
  for (std::uint32_t f = 0;
       f < static_cast<std::uint32_t>(SimFeature::kNumFeatures); ++f) {
    EXPECT_STRNE(SimFeatureName(static_cast<SimFeature>(f)), "?");
  }
}

TEST(FeatureMatrixTest, CompatibleMasksPass) {
  CheckFeatureCompatibility(0);
  // Capacity + churn + faults + adaptation is the flagship combined
  // run of the capacity layer (DESIGN.md §15).
  CheckFeatureCompatibility(
      FeatureBit(SimFeature::kCapacity) | FeatureBit(SimFeature::kChurn) |
      FeatureBit(SimFeature::kFaults) | FeatureBit(SimFeature::kAdaptive));
  // Capacity pairs with every layer but shards.
  CheckFeatureCompatibility(FeatureBit(SimFeature::kCapacity) |
                            FeatureBit(SimFeature::kRouting));
  CheckFeatureCompatibility(FeatureBit(SimFeature::kCapacity) |
                            FeatureBit(SimFeature::kConsistency));
}

TEST(FeatureMatrixDeathTest, ConflictingMasksDieWithTheMatrixReason) {
  EXPECT_DEATH(
      CheckFeatureCompatibility(FeatureBit(SimFeature::kCapacity) |
                                FeatureBit(SimFeature::kShards)),
      "the capacity layer requires the legacy engine");
  EXPECT_DEATH(
      CheckFeatureCompatibility(FeatureBit(SimFeature::kConsistency) |
                                FeatureBit(SimFeature::kShards)),
      "the consistency layer requires the legacy engine");
  EXPECT_DEATH(
      CheckFeatureCompatibility(FeatureBit(SimFeature::kConsistency) |
                                FeatureBit(SimFeature::kChurn)),
      "static membership");
  EXPECT_DEATH(
      CheckFeatureCompatibility(FeatureBit(SimFeature::kRouting) |
                                FeatureBit(SimFeature::kAdaptive)),
      "content-aware routing is incompatible with in-sim adaptation");
}

TEST(FeatureMatrixDeathTest, SimOptionsValidateConsultsTheMatrix) {
  // The simulator's Validate() must route layer pairings through the
  // one matrix — a capacity+shards SimOptions dies with the matrix
  // reason, not an ad-hoc message.
  SimOptions options;
  options.capacity.enable = true;
  options.shards.num_shards = 2;
  EXPECT_DEATH(options.Validate(),
               "the capacity layer requires the legacy engine");

  SimOptions routed;
  routed.routing.enable = true;
  routed.adaptive.probe_interval_seconds = 5.0;
  EXPECT_DEATH(routed.Validate(),
               "content-aware routing is incompatible with in-sim adaptation");
}

}  // namespace
}  // namespace sppnet
