#include "sppnet/sim/plan.h"

#include <cmath>

#include "sppnet/common/check.h"
#include "sppnet/index/routing_index.h"
#include "sppnet/model/consistency.h"
#include "sppnet/sim/adaptive_sim.h"
#include "sppnet/sim/faults.h"
#include "sppnet/sim/sharded_sim.h"

namespace sppnet {

// Every plan struct in the system models the contract; a plan that
// drifts from it fails this translation unit, not a review.
static_assert(LayerPlan<ChurnPlan>);
static_assert(LayerPlan<CapacityPlan>);
static_assert(LayerPlan<FaultPlan>);
static_assert(LayerPlan<AdaptivePlan>);
static_assert(LayerPlan<RoutingOptions>);
static_assert(LayerPlan<ConsistencyPlan>);
static_assert(LayerPlan<ReplicationPlan>);
static_assert(LayerPlan<ShardPlan>);

// Stream salts must be pairwise distinct (the whole point of declaring
// them on the plans). The sharded salts use the (tag << 32) space and
// the routing content tag is XOR-folded; listed for the audit anyway.
static_assert(CapacityPlan::kStreamSalt != FaultPlan::kStreamSalt);
static_assert(CapacityPlan::kStreamSalt != AdaptivePlan::kStreamSalt);
static_assert(CapacityPlan::kStreamSalt != ConsistencyPlan::kStreamSalt);
static_assert(CapacityPlan::kStreamSalt != RoutingOptions::kStreamSalt);
static_assert(FaultPlan::kStreamSalt != AdaptivePlan::kStreamSalt);
static_assert(FaultPlan::kStreamSalt != ConsistencyPlan::kStreamSalt);
static_assert(AdaptivePlan::kStreamSalt != ConsistencyPlan::kStreamSalt);

void ChurnPlan::Validate() const {
  SPPNET_CHECK_MSG(
      std::isfinite(partner_recovery_seconds) && partner_recovery_seconds > 0.0,
      "partner recovery time must be > 0");
}

void CapacityPlan::Validate() const {
  SPPNET_CHECK_MSG(std::isfinite(window_seconds) && window_seconds > 0.0,
                   "capacity window must be > 0");
  SPPNET_CHECK_MSG(
      std::isfinite(overload_utilization) && overload_utilization > 0.0,
      "overload utilization threshold must be > 0");
  // The distribution's own invariant (fractions sum to 1) is enforced
  // by its constructor; nothing to re-check here.
}

const char* SimFeatureName(SimFeature f) {
  switch (f) {
    case SimFeature::kShards:
      return "sharded parallelism";
    case SimFeature::kChurn:
      return "churn";
    case SimFeature::kFaults:
      return "fault injection";
    case SimFeature::kAdaptive:
      return "in-sim adaptation";
    case SimFeature::kRouting:
      return "content-aware routing";
    case SimFeature::kConsistency:
      return "index consistency";
    case SimFeature::kCapacity:
      return "heterogeneous capacities";
    case SimFeature::kNumFeatures:
      break;
  }
  return "?";
}

namespace {

using F = SimFeature;

/// Reasons keep the wording of the historical SimOptions::Validate
/// checks (tests assert on these substrings).
constexpr FeatureConflict kConflicts[] = {
    // The digest table describes the static instance overlay and
    // realizes the probabilistic content model; features that mutate
    // either are incompatible, and the layer's tallies are
    // single-threaded.
    {F::kRouting, F::kShards,
     "content-aware routing requires the legacy engine "
     "(no in-trial sharding)"},
    {F::kRouting, F::kAdaptive,
     "content-aware routing is incompatible with in-sim adaptation"},
    // The consistency layer tracks per-cluster staleness against the
    // abstract probabilistic index and pins clients to their home
    // cluster for the whole run.
    {F::kConsistency, F::kShards,
     "the consistency layer requires the legacy engine "
     "(no in-trial sharding)"},
    {F::kConsistency, F::kAdaptive,
     "the consistency layer is incompatible with in-sim adaptation"},
    {F::kConsistency, F::kRouting,
     "the consistency layer is incompatible with content-aware routing"},
    {F::kConsistency, F::kChurn,
     "the consistency layer requires static membership (no churn)"},
    {F::kConsistency, F::kFaults,
     "the consistency layer requires an inactive fault plan"},
    // The capacity layer's windowed utilization tallies are
    // single-threaded.
    {F::kCapacity, F::kShards,
     "the capacity layer requires the legacy engine "
     "(no in-trial sharding)"},
};

}  // namespace

std::span<const FeatureConflict> FeatureConflicts() { return kConflicts; }

void CheckFeatureCompatibility(std::uint32_t active_mask) {
  for (const FeatureConflict& c : kConflicts) {
    const std::uint32_t pair = FeatureBit(c.a) | FeatureBit(c.b);
    SPPNET_CHECK_MSG((active_mask & pair) != pair, c.reason);
  }
}

}  // namespace sppnet
