// ctest-label: threaded
// Engine-equivalence goldens: the legacy single-loop engine (calendar
// event queue + dense per-query state) must be *bitwise*
// indistinguishable from the pre-overhaul simulator (binary heap +
// hash-map state, since deleted). Every case pins two digests:
//  - the report digest, generated from the simulator BEFORE the
//    calendar queue and dense state existed;
//  - a tail digest over everything the report digest predates (the
//    whole-run event totals, the adaptation and capacity tallies, the
//    converged-network fields) and over the protocol-level obs
//    instruments, taken while the 2x2 {heap, calendar} x {map, dense}
//    matrix still ran and all four combinations agreed.
// A digest change here means a change to protocol behaviour, which an
// implementation change must never make.

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
#include "sppnet/sim/sim_trials.h"
#include "sppnet/sim/simulator.h"

namespace sppnet {
namespace {

// The deterministic registry sections minus the implementation
// instruments: sim.queue.* and sim.state.* describe queue buckets,
// resizes and scratch bytes, which move with any change to the queue
// or the state containers. Everything else — protocol counters, the
// depth high-water mark, the hop histogram — is protocol behaviour.
std::string ProtocolMetricsJson(const MetricsRegistry& m) {
  const auto implementation = [](std::string_view name) {
    return name.rfind("sim.queue.", 0) == 0 ||
           name.rfind("sim.state.", 0) == 0;
  };
  MetricsRegistry filtered;
  for (const auto& [name, counter] : m.counters()) {
    if (!implementation(name)) {
      filtered.GetCounter(name).Increment(counter.value());
    }
  }
  for (const auto& [name, gauge] : m.gauges()) {
    if (!implementation(name)) filtered.GetGauge(name).Set(gauge.value());
  }
  for (const auto& [name, histogram] : m.histograms()) {
    if (!implementation(name)) {
      filtered.GetHistogram(name, histogram.upper_bounds()).Merge(histogram);
    }
  }
  std::ostringstream out;
  WriteDeterministicMetricsJson(out, filtered);
  return out.str();
}

struct GoldenCase {
  const char* name;
  std::uint64_t digest;
  std::uint64_t tail_digest;
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

FaultPlan ZeroRatePlan() {
  FaultPlan plan;
  plan.crash_rate_per_partner = 0.0;
  plan.message_drop_probability = 0.0;
  plan.max_delay_jitter_seconds = 0.0;
  plan.request_timeout_seconds = 0.0;
  return plan;
}

// All report digests were generated against the pre-overhaul simulator
// (std::priority_queue + unordered_map state, the only implementation
// at the time); the tail digests against the 2x2 matrix that held all
// four heap/calendar x map/dense combinations bit-identical. Do not
// regenerate them to make a failure pass.
std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"flood_plod", 0xa9c5873452eb3e5full,
                 0x921eaa8466a1a7f7ull, {}, 101, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.seed = 11;
    cases.push_back(c);
  }
  {
    GoldenCase c{"flood_complete", 0x0218d8a5be5cf245ull,
                 0x0005078de4a59775ull, {}, 102, {}};
    c.config.graph_type = GraphType::kStronglyConnected;
    c.config.graph_size = 300;
    c.config.cluster_size = 10.0;
    c.config.ttl = 1;
    c.options.seed = 12;
    cases.push_back(c);
  }
  {
    GoldenCase c{"ring_plod", 0xabc7450774b9487full,
                 0x86c03e9b1069f351ull, {}, 103, {}};
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
    GoldenCase c{"walk_plod", 0xdb9e662bf82b6f46ull,
                 0x3fcc085c1da518ceull, {}, 104, {}};
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
    GoldenCase c{"churn_plod", 0x69a0bd51b6db4f6aull,
                 0x6d879d979302efe9ull, {}, 105, {}};
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
    GoldenCase c{"faults_active", 0x72f19adb26bedf54ull,
                 0x84ec556ae6a521afull, {}, 106, {}};
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
    // Same configuration and seeds as churn_plod but with an explicitly
    // constructed zero-rate plan: pinned to the SAME digest — the
    // inactive-plan bit-identity contract of the fault layer.
    GoldenCase c{"churn_plod_zero_rate_plan", 0x69a0bd51b6db4f6aull,
                 0x6d879d979302efe9ull, {}, 105, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.churn.enable = true;
    c.options.churn.partner_recovery_seconds = 20.0;
    c.options.faults = ZeroRatePlan();
    c.options.seed = 15;
    cases.push_back(c);
  }
  {
    // Same configuration and seeds as churn_plod but with an explicitly
    // constructed INACTIVE adaptation plan (probe interval 0): pinned to
    // the SAME digest — the inactive-plan bit-identity contract of the
    // adaptation layer, the exact analogue of churn_plod_zero_rate_plan.
    GoldenCase c{"churn_plod_inactive_adaptive_plan", 0x69a0bd51b6db4f6aull,
                 0x6d879d979302efe9ull, {}, 105, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.churn.enable = true;
    c.options.churn.partner_recovery_seconds = 20.0;
    c.options.adaptive.probe_interval_seconds = 0.0;
    c.options.adaptive.decision_interval_seconds = 7.0;
    c.options.adaptive.policy.suggested_outdegree = 25.0;
    c.options.seed = 15;
    cases.push_back(c);
  }
  {
    // Same configuration and seeds as churn_plod but with an explicitly
    // constructed INACTIVE consistency plan (change rate 0, every other
    // knob non-default, replication flags set): pinned to the SAME
    // digest — the inactive-plan bit-identity contract of the
    // index-consistency layer, the exact analogue of
    // churn_plod_zero_rate_plan.
    GoldenCase c{"churn_plod_inactive_consistency_plan", 0x69a0bd51b6db4f6aull,
                 0x6d879d979302efe9ull, {}, 105, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.churn.enable = true;
    c.options.churn.partner_recovery_seconds = 20.0;
    c.options.consistency.change_rate_per_client = 0.0;
    c.options.consistency.scheme = ConsistencyScheme::kPushInvalidate;
    c.options.consistency.ttr_seconds = 3.5;
    c.options.consistency.replication.owner_replication = true;
    c.options.consistency.replication.path_replication = true;
    c.options.consistency.replication.replication_factor = 3;
    c.options.seed = 15;
    cases.push_back(c);
  }
  {
    // Live adaptation on the Section 5.3 bad topology: splits,
    // coalesces, peering and the TTL broadcast all mutate the instance
    // mid-run, and the converged network must still be bit-identical
    // to the golden. Digest generated at introduction (no pre-overhaul
    // implementation existed).
    GoldenCase c{"adaptive_plod", 0x006dd28398706a0cull,
                 0xf2d48cee41b65754ull, {}, 108, {}};
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
  {
    // Same configuration and seeds as flood_plod but with an explicitly
    // constructed DISABLED routing layer (non-default digest geometry,
    // enabled = false): pinned to the SAME digest — the inactive-layer
    // bit-identity contract of the routing-index layer, the exact
    // analogue of churn_plod_zero_rate_plan.
    GoldenCase c{"flood_plod_inactive_routing", 0xa9c5873452eb3e5full,
                 0x921eaa8466a1a7f7ull, {}, 101, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.routing.enable = false;
    c.options.routing.digest_bits = 1024;
    c.options.routing.num_hashes = 5;
    c.options.routing.refresh_interval_seconds = 7.0;
    c.options.seed = 11;
    cases.push_back(c);
  }
  {
    // Content-pruned flood (ISSUE 8): digest-table build, periodic
    // DigestAnnounce refreshes and per-edge forward suppression all
    // inside the measured window. Digest generated at introduction.
    GoldenCase c{"routed_flood_plod", 0x19e7f12e23d2cb1eull,
                 0x609472e000063fb9ull, {}, 109, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.strategy = SearchStrategy::kRoutedFlood;
    c.options.routing.enable = true;
    c.options.seed = 19;
    cases.push_back(c);
  }
  {
    // Digest-biased k-walker (ISSUE 8): biased neighbor choice, first
    // visit dedup and direct responses. Digest generated at
    // introduction.
    GoldenCase c{"walker_plod", 0x94c679b1d5acf2b4ull,
                 0x5ec7e3f41ce6dc6eull, {}, 110, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.strategy = SearchStrategy::kWalker;
    c.options.num_walkers = 8;
    c.options.walk_ttl = 32;
    c.options.seed = 20;
    cases.push_back(c);
  }
  {
    // Routed expanding ring (ISSUE 8): routing.enable pruning each
    // iterative-deepening wave, on the complete best case so the
    // per-destination digest path is exercised too. Digest generated at
    // introduction.
    GoldenCase c{"routed_ring_complete", 0x91f02fb0b37e8009ull,
                 0xc60218870acd5247ull, {}, 111, {}};
    c.config.graph_type = GraphType::kStronglyConnected;
    c.config.graph_size = 300;
    c.config.cluster_size = 10.0;
    c.config.ttl = 2;
    c.options.strategy = SearchStrategy::kExpandingRing;
    c.options.ring_satisfaction_results = 10;
    c.options.routing.enable = true;
    c.options.seed = 21;
    cases.push_back(c);
  }
  {
    // Same configuration and seeds as churn_plod but with an explicitly
    // constructed INACTIVE capacity plan (every knob non-default,
    // enable = false): pinned to the SAME digest — the inactive-plan
    // bit-identity contract of the capacity layer, the exact analogue
    // of churn_plod_zero_rate_plan. An inactive plan must never touch
    // the capacity stream, schedule a window event or perturb a single
    // protocol draw.
    GoldenCase c{"churn_plod_inactive_capacity_plan", 0x69a0bd51b6db4f6aull,
                 0x6d879d979302efe9ull, {}, 105, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.churn.enable = true;
    c.options.churn.partner_recovery_seconds = 20.0;
    c.options.capacity.enable = false;
    c.options.capacity.window_seconds = 3.5;
    c.options.capacity.overload_utilization = 0.4;
    c.options.capacity.capacity_aware_election = false;
    c.options.capacity.demote_overloaded = false;
    c.options.seed = 15;
    cases.push_back(c);
  }
  {
    // Live capacity plan over the Section 5.3 adaptation scenario
    // (ISSUE 10): utilization windows, capacity-aware election on
    // splits and sustained-overload head demotions all active. Digest
    // generated at introduction.
    GoldenCase c{"capacity_adaptive_plod", 0x7d01dfeabe2c4b53ull,
                 0x8e081cc1a4423d70ull, {}, 112, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 4.0;
    c.config.ttl = 5;
    c.config.avg_outdegree = 3.1;
    c.options.adaptive.probe_interval_seconds = 2.0;
    c.options.adaptive.decision_interval_seconds = 10.0;
    c.options.adaptive.policy.max_bandwidth_bps = 1.0e7;
    c.options.adaptive.policy.max_proc_hz = 2.0e6;
    c.options.capacity.enable = true;
    c.options.capacity.window_seconds = 10.0;
    c.options.seed = 22;
    cases.push_back(c);
  }
  {
    // Plain 2-redundant flood: partner selection, query load sharing and
    // redundant index traffic with no fault or churn layer in play.
    // Digest generated against the simulator as it stood before the
    // concrete-index and result-cache modes were removed.
    GoldenCase c{"redundant_flood_plod", 0x631350a0e402a973ull,
                 0x7ccc0ca893cf165full, {}, 113, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.redundancy_k = 2;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.seed = 23;
    cases.push_back(c);
  }
  {
    // Live pull-with-TTR consistency with owner and path replication:
    // index changes, TTR polls, refresh replies and replica hits all
    // inside the measured window. Digest generated against the
    // simulator as it stood before the concrete-index and result-cache
    // modes were removed.
    GoldenCase c{"consistency_pull_plod", 0x54c5bb60d5f4cfcfull,
                 0xd53fbfe80654aee5ull, {}, 114, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.consistency.change_rate_per_client = 0.05;
    c.options.consistency.scheme = ConsistencyScheme::kPullTtr;
    c.options.consistency.ttr_seconds = 10.0;
    c.options.consistency.replication.owner_replication = true;
    c.options.consistency.replication.path_replication = true;
    c.options.seed = 24;
    cases.push_back(c);
  }
  for (GoldenCase& c : cases) {
    c.options.duration_seconds = 120.0;
    c.options.warmup_seconds = 12.0;
  }
  return cases;
}

// FNV-1a over `bytes`, continuing from `h`.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Digest of every report field the golden digests predate, plus the
// protocol-level instruments, folded as text so a mismatch is easy to
// diff by printing the string.
std::uint64_t TailDigest(const SimReport& r, const std::string& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << r.events_scheduled << ',' << r.events_dispatched << ','
      << r.queue_depth_hwm << ',' << r.adapt_rounds << ','
      << r.adapt_splits << ',' << r.adapt_coalesces << ','
      << r.adapt_edges_added << ',' << r.adapt_ttl_decreases << ','
      << r.adapt_probes_sent << ',' << r.adapt_reports_received << ','
      << r.adapt_client_moves << ',' << r.adapt_converged << ','
      << r.adapt_converged_round << ',' << r.adapt_demotions << ','
      << r.capacity_windows << ',' << r.capacity_overload_episodes << ','
      << r.capacity_mean_utilization << ','
      << r.capacity_overloaded_fraction << ','
      << r.capacity_sp_mean_utilization << ','
      << r.capacity_sp_overloaded_fraction << ','
      << r.capacity_sp_p99_utilization << ',' << r.final_clusters << ','
      << r.final_ttl << ',' << r.final_avg_outdegree << '\n'
      << metrics;
  return Fnv1a(out.str());
}

class EngineEquivalenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineEquivalenceTest, MatrixBitIdenticalAndPinnedToPreOverhaulGolden) {
  const GoldenCase c = GoldenCases()[GetParam()];
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(c.instance_seed);
  const NetworkInstance instance = GenerateInstance(c.config, inputs, rng);
  SimOptions options = c.options;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  Simulator sim(instance, c.config, inputs, options);
  const SimReport report = sim.Run();
  EXPECT_EQ(ReportDigest(report), c.digest) << c.name;
  EXPECT_EQ(TailDigest(report, ProtocolMetricsJson(metrics)), c.tail_digest)
      << c.name << " tail 0x" << std::hex
      << TailDigest(report, ProtocolMetricsJson(metrics));
}

INSTANTIATE_TEST_SUITE_P(AllGoldenCases, EngineEquivalenceTest,
                         // Derived from the case table so a new golden can
                         // never be silently skipped by a stale bound.
                         ::testing::Range<std::size_t>(0, GoldenCases().size()),
                         [](const auto& info) {
                           return GoldenCases()[info.param].name;
                         });

// Multi-trial runs folded into one string per parallelism: the string
// must not move with the worker count, and its FNV-1a digest is pinned
// (kPin) to the value taken while the heap + hash-map reference engine
// still ran and matched it.

TEST(EngineEquivalenceTrialsTest, BitIdenticalAcrossParallelismAndEngines) {
  const std::uint64_t kPin = 0x6fd72fe95da4aae5ull;
  Configuration config;
  config.graph_size = 300;
  config.cluster_size = 10.0;
  config.redundancy = true;
  config.ttl = 4;
  config.avg_outdegree = 4.0;
  const ModelInputs inputs = ModelInputs::Default();

  const auto run = [&](std::size_t parallelism) {
    SimTrialOptions options;
    options.num_trials = 4;
    options.seed = 77;
    options.parallelism = parallelism;
    options.sim.duration_seconds = 60.0;
    options.sim.warmup_seconds = 10.0;
    options.sim.churn.enable = true;
    options.sim.faults = ActivePlan();
    MetricsRegistry metrics;
    options.metrics = &metrics;
    const SimTrialReport report = RunTrials(config, inputs, options);
    // Fold the cross-trial surface into one comparable string: the
    // protocol-level metrics (identical across parallelism)
    // plus the trial report's counter totals and per-trial means.
    std::ostringstream out;
    out << ProtocolMetricsJson(metrics) << report.trials << ','
        << report.queries_submitted << ',' << report.responses_delivered
        << ',' << report.partner_failures << ',' << report.partner_recoveries
        << ',' << report.cluster_outages << ',' << report.faults_crashes
        << ',' << report.faults_messages_dropped << ','
        << report.faults_retries << ',' << report.queries_succeeded << ','
        << report.queries_failed << ','
        << report.cluster_outage_fraction.Mean() << ','
        << report.query_success_rate.Mean() << ','
        << report.mean_recovery_latency_seconds.Mean();
    return out.str();
  };

  const std::string reference = run(1);
  EXPECT_EQ(Fnv1a(reference), kPin) << std::hex << Fnv1a(reference);
  for (const std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(run(parallelism), reference) << "parallelism=" << parallelism;
  }
}

TEST(EngineEquivalenceTrialsTest,
     AdaptiveBitIdenticalAcrossParallelismAndEngines) {
  const std::uint64_t kPin = 0xf527c714e75fde78ull;
  Configuration config;
  config.graph_size = 400;
  config.cluster_size = 4.0;
  config.ttl = 5;
  config.avg_outdegree = 3.1;
  const ModelInputs inputs = ModelInputs::Default();

  const auto run = [&](std::size_t parallelism) {
    SimTrialOptions options;
    options.num_trials = 3;
    options.seed = 78;
    options.parallelism = parallelism;
    options.sim.duration_seconds = 60.0;
    options.sim.warmup_seconds = 10.0;
    options.sim.adaptive.probe_interval_seconds = 2.0;
    options.sim.adaptive.decision_interval_seconds = 10.0;
    options.sim.adaptive.policy.max_bandwidth_bps = 1.0e7;
    options.sim.adaptive.policy.max_proc_hz = 2.0e6;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    const SimTrialReport report = RunTrials(config, inputs, options);
    // The sim.adaptive.* counters and sim.msg.{probe,report,control}
    // instruments ride inside ProtocolMetricsJson, so one folded string
    // holds the whole adaptation surface identical across the matrix.
    std::ostringstream out;
    out << ProtocolMetricsJson(metrics) << report.trials << ','
        << report.queries_submitted << ',' << report.responses_delivered
        << ',' << report.query_success_rate.Mean();
    return out.str();
  };

  const std::string reference = run(1);
  EXPECT_EQ(Fnv1a(reference), kPin) << std::hex << Fnv1a(reference);
  ASSERT_NE(reference.find("sim.adaptive.rounds"), std::string::npos);
  for (const std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(run(parallelism), reference) << "parallelism=" << parallelism;
  }
}

TEST(EngineEquivalenceTrialsTest,
     CapacityBitIdenticalAcrossParallelismAndEngines) {
  const std::uint64_t kPin = 0xd6425e9d0d26d26full;
  Configuration config;
  config.graph_size = 400;
  config.cluster_size = 4.0;
  config.ttl = 5;
  config.avg_outdegree = 3.1;
  const ModelInputs inputs = ModelInputs::Default();

  const auto run = [&](std::size_t parallelism) {
    SimTrialOptions options;
    options.num_trials = 3;
    options.seed = 80;
    options.parallelism = parallelism;
    options.sim.duration_seconds = 60.0;
    options.sim.warmup_seconds = 10.0;
    options.sim.adaptive.probe_interval_seconds = 2.0;
    options.sim.adaptive.decision_interval_seconds = 10.0;
    options.sim.adaptive.policy.max_bandwidth_bps = 1.0e7;
    options.sim.adaptive.policy.max_proc_hz = 2.0e6;
    options.sim.capacity.enable = true;
    options.sim.capacity.window_seconds = 5.0;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    const SimTrialReport report = RunTrials(config, inputs, options);
    // The sim.capacity.* instruments (including the utilization
    // histogram) and sim.adaptive.demotions ride inside
    // ProtocolMetricsJson: each per-trial capacity stream must land on
    // identical windows however trials are spread over worker threads.
    std::ostringstream out;
    out << ProtocolMetricsJson(metrics) << report.trials << ','
        << report.queries_submitted << ',' << report.responses_delivered
        << ',' << report.query_success_rate.Mean();
    return out.str();
  };

  const std::string reference = run(1);
  EXPECT_EQ(Fnv1a(reference), kPin) << std::hex << Fnv1a(reference);
  ASSERT_NE(reference.find("sim.capacity."), std::string::npos);
  ASSERT_NE(reference.find("sim.adaptive.demotions"), std::string::npos);
  for (const std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(run(parallelism), reference) << "parallelism=" << parallelism;
  }
}

TEST(EngineEquivalenceTrialsTest,
     RoutedFloodBitIdenticalAcrossParallelismAndEngines) {
  const std::uint64_t kPin = 0x3925fa46e4d384c7ull;
  Configuration config;
  config.graph_size = 300;
  config.cluster_size = 10.0;
  config.ttl = 4;
  config.avg_outdegree = 4.0;
  const ModelInputs inputs = ModelInputs::Default();

  const auto run = [&](std::size_t parallelism) {
    SimTrialOptions options;
    options.num_trials = 3;
    options.seed = 79;
    options.parallelism = parallelism;
    options.sim.duration_seconds = 60.0;
    options.sim.warmup_seconds = 10.0;
    options.sim.strategy = SearchStrategy::kRoutedFlood;
    options.sim.routing.enable = true;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    const SimTrialReport report = RunTrials(config, inputs, options);
    // The sim.msg.digest.* and sim.routing.* instruments ride inside
    // ProtocolMetricsJson; trial-level parallelism (independent sims on
    // threads) composes with the routing layer even though in-sim
    // sharding does not.
    std::ostringstream out;
    out << ProtocolMetricsJson(metrics) << report.trials << ','
        << report.queries_submitted << ',' << report.responses_delivered
        << ',' << report.query_success_rate.Mean();
    return out.str();
  };

  const std::string reference = run(1);
  EXPECT_EQ(Fnv1a(reference), kPin) << std::hex << Fnv1a(reference);
  ASSERT_NE(reference.find("sim.msg.digest.sent"), std::string::npos);
  for (const std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(run(parallelism), reference) << "parallelism=" << parallelism;
  }
}

}  // namespace
}  // namespace sppnet
