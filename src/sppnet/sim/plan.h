#ifndef SPPNET_SIM_PLAN_H_
#define SPPNET_SIM_PLAN_H_

// The unified layer-plan contract (DESIGN.md §15).
//
// Every optional simulator layer — churn, fault injection, in-sim
// adaptation, content-aware routing, index consistency, sharded
// parallelism, heterogeneous capacities — is configured by one *plan*
// struct obeying a single contract:
//
//   * `bool enabled() const` — whether the layer participates in the
//     run. An inactive plan is NEVER consulted by the simulator, so a
//     run with a default-constructed plan is bit-identical to a build
//     without the layer (pay-for-what-you-use determinism; pinned by
//     the golden twins in tests/sim/engine_equivalence_test.cc).
//   * `void Validate() const` — aborts through SPPNET_CHECK on
//     malformed knobs. SimOptions::Validate() calls every plan's
//     Validate() unconditionally.
//   * A layer that owns a dedicated RNG stream declares it as
//     `static constexpr std::uint64_t kStreamSalt` (or a documented
//     family of salts) so the stream map is auditable in one grep.
//     Salts must be pairwise distinct across layers.
//
// Cross-layer compatibility lives in ONE place: the conflict matrix in
// plan.cc (FeatureConflicts). SimOptions::Validate() builds the active
// feature mask and calls CheckFeatureCompatibility; per-layer numeric
// checks and strategy requirements stay with their plans.

#include <concepts>
#include <cstdint>
#include <span>

#include "sppnet/workload/capacity.h"

namespace sppnet {

/// The layer-plan contract. Every plan (FaultPlan, AdaptivePlan,
/// RoutingOptions, ConsistencyPlan, ReplicationPlan, ShardPlan,
/// ChurnPlan, CapacityPlan) models this; plan.cc static_asserts it for
/// all of them so a drifting plan fails to compile, not to review.
template <typename P>
concept LayerPlan = requires(const P p) {
  { p.enabled() } -> std::convertible_to<bool>;
  { p.Validate() };
};

/// Session churn (paper §4: lifespans drive joins/leaves/updates and
/// partner failover). Formerly the loose SimOptions::enable_churn /
/// partner_recovery_seconds pair; no dedicated stream — churn events
/// are timed by the sampled lifespans on the protocol stream.
struct ChurnPlan {
  bool enable = false;
  /// Seconds a failed partner slot stays down before a churn-origin
  /// recovery (also the failover window clients ride out).
  double partner_recovery_seconds = 30.0;

  bool enabled() const { return enable; }
  void Validate() const;
};

/// Heterogeneous peer capacities (paper §1, §5.2–5.3; ROADMAP item 4).
/// Every node draws a PeerCapacity from `distribution` on a dedicated
/// salted stream at construction; CostTable message loads then
/// accumulate into windowed per-node utilization (sim.capacity.*).
/// When the adaptation layer is also active, two capacity-aware
/// decision axes engage: split/promotion elects the highest-capacity
/// eligible member, and sustained-overloaded super-peers are demoted.
struct CapacityPlan {
  bool enable = false;
  /// Capacity mixture nodes draw from (Saroiu-style classes).
  CapacityDistribution distribution = CapacityDistribution::Default();
  /// Utilization window: per-node loads accumulate for this many
  /// simulated seconds, then fold into one utilization sample.
  double window_seconds = 30.0;
  /// A node whose window utilization exceeds this is overloaded for
  /// that window (1.0 = at its capacity on some axis).
  double overload_utilization = 1.0;
  /// Elect split/promotion heads by capacity instead of slot order
  /// (only meaningful with an active AdaptivePlan).
  bool capacity_aware_election = true;
  /// Demote super-peers overloaded for kSustainRounds consecutive
  /// windows (same 2-window filter + settle cooldown as rule I).
  bool demote_overloaded = true;

  /// Per-node capacity sampling stream: Rng::Salted(seed, kStreamSalt).
  static constexpr std::uint64_t kStreamSalt = 0xa0761d6478bd642full;

  bool enabled() const { return enable; }
  void Validate() const;
};

/// The optional simulator layers, one bit each in the active-feature
/// mask handed to CheckFeatureCompatibility.
enum class SimFeature : std::uint32_t {
  kShards = 0,
  kChurn,
  kFaults,
  kAdaptive,
  kRouting,
  kConsistency,
  kCapacity,
  kNumFeatures,
};

constexpr std::uint32_t FeatureBit(SimFeature f) {
  return std::uint32_t{1} << static_cast<std::uint32_t>(f);
}

const char* SimFeatureName(SimFeature f);

/// One forbidden pairing and the reason it is forbidden (the exact
/// SPPNET_CHECK message a violating configuration dies with).
struct FeatureConflict {
  SimFeature a;
  SimFeature b;
  const char* reason;
};

/// The single cross-layer compatibility matrix. Every pairwise
/// incompatibility between simulator layers lives here — nowhere else.
std::span<const FeatureConflict> FeatureConflicts();

/// Aborts through SPPNET_CHECK with the matrix reason if `active_mask`
/// (an OR of FeatureBit values) contains a conflicting pair.
void CheckFeatureCompatibility(std::uint32_t active_mask);

}  // namespace sppnet

#endif  // SPPNET_SIM_PLAN_H_
