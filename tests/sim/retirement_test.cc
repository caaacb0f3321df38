// ctest-label: threaded
// Exact retirement of per-query state (DESIGN.md §11), on both engines.
// Every qid carries an in-flight count — the pending events that carry
// it, plus one per live retry or ring qid bound to a root — and the
// simulator drops a query's duplicate table, QueryState and binding the
// moment that count reaches zero: right after the dispatch on the
// legacy engine, at the barrier fold on the sharded one. These tests
// hold the rule to what it promises: resident state stays flat on a
// stationary run, a restore rebuilds exactly the counts the
// uninterrupted run holds, and a checkpoint never carries a root that
// nothing can reach. The sharded cases run the barrier fold and its
// parallel erase on worker threads, which is why this file carries the
// threaded label (the TSan job runs it).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/io/checkpoint.h"
#include "sppnet/model/config.h"
#include "sppnet/model/instance.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/sim/faults.h"
#include "sppnet/sim/sim_state.h"
#include "sppnet/sim/simulator.h"

namespace sppnet {
namespace {

constexpr std::uint32_t kTestMagic = 0x54455452u;  // "RTET"
constexpr std::uint16_t kTestVersion = 1;

struct Scenario {
  const char* name;
  SimOptions options;
};

Configuration SmallConfig() {
  Configuration config;
  config.graph_size = 400;
  config.cluster_size = 10.0;
  config.ttl = 4;
  config.avg_outdegree = 4.0;
  // Ten times the paper's rate, so that a few dozen queries are live at
  // any instant and a leak would show within seconds.
  config.query_rate = 0.1;
  return config;
}

SimOptions BaseOptions() {
  SimOptions options;
  options.seed = 29;
  options.warmup_seconds = 5.0;
  options.duration_seconds = 55.0;
  return options;
}

SimOptions Sharded(SimOptions options, std::size_t shards,
                   std::size_t threads) {
  options.shards.num_shards = shards;
  options.shards.num_threads = threads;
  return options;
}

/// A fault plan whose drops and crashes make timeouts fire, so retry
/// qids bound to their roots are live in every window.
SimOptions WithRetries(SimOptions options) {
  options.faults.message_drop_probability = 0.05;
  options.faults.crash_rate_per_partner = 5e-3;
  options.faults.crash_recovery_seconds = 5.0;
  options.faults.request_timeout_seconds = 0.6;
  options.faults.max_retries = 2;
  return options;
}

SimOptions WithRing(SimOptions options) {
  options.strategy = SearchStrategy::kExpandingRing;
  options.ring_satisfaction_results = 40;
  return options;
}

std::vector<Scenario> Scenarios() {
  return {
      {"legacy_flood", BaseOptions()},
      {"legacy_retries", WithRetries(BaseOptions())},
      {"legacy_ring", WithRing(BaseOptions())},
      {"sharded_flood", Sharded(BaseOptions(), 4, 2)},
      {"sharded_retries", Sharded(WithRetries(BaseOptions()), 4, 2)},
      {"sharded_ring", Sharded(WithRing(BaseOptions()), 3, 2)},
  };
}

NetworkInstance MakeInstance() {
  Rng rng(401);
  return GenerateInstance(SmallConfig(), ModelInputs::Default(), rng);
}

std::vector<std::uint8_t> Save(const Simulator& sim) {
  CheckpointWriter w(kTestMagic, kTestVersion);
  sim.SaveState(w);
  return w.Finish();
}

std::unique_ptr<Simulator> Restore(const NetworkInstance& instance,
                                   const SimOptions& options,
                                   const std::vector<std::uint8_t>& bytes) {
  auto sim = std::make_unique<Simulator>(instance, SmallConfig(),
                                         ModelInputs::Default(), options);
  std::optional<CheckpointReader> r =
      CheckpointReader::Open(bytes, kTestMagic, kTestVersion);
  EXPECT_TRUE(r.has_value());
  if (!r.has_value()) return nullptr;
  EXPECT_TRUE(sim->LoadState(*r));
  EXPECT_TRUE(r->AtEnd());
  return sim;
}

double LiveRootsGauge(const Simulator& sim) {
  MetricsRegistry registry;
  sim.PublishCumulativeMetrics(registry);
  return registry.GetGauge("sim.state.live_roots").value();
}

class ExactRetirementTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  Scenario scenario() const { return Scenarios()[GetParam()]; }
};

TEST_P(ExactRetirementTest, LiveRootsStayFlatOverABatchRun) {
  // Sixty simulated seconds, sampled once a second. Without retirement
  // the live set would grow by ~40 roots a second (every submission
  // would stay resident); with it the gauge holds at the handful of
  // floods in flight, and the last half of the run holds no more than
  // the first. The samples are deterministic: a second run of the same
  // seed reproduces them exactly.
  const Scenario s = scenario();
  const NetworkInstance instance = MakeInstance();
  const auto sample = [&] {
    Simulator sim(instance, SmallConfig(), ModelInputs::Default(), s.options);
    sim.Start();
    std::vector<std::uint64_t> live;
    for (int t = 1; t <= 60; ++t) {
      sim.RunUntil(static_cast<double>(t));
      live.push_back(sim.live_query_roots());
      EXPECT_EQ(LiveRootsGauge(sim), static_cast<double>(live.back()));
    }
    const SimReport report = sim.Finalize(60.0);
    EXPECT_GT(report.queries_submitted, 1500u);
    EXPECT_GT(sim.longest_query_lifetime_seconds(), 0.0);
    return live;
  };
  const std::vector<std::uint64_t> live = sample();
  EXPECT_EQ(sample(), live);
  const auto peak = [&](int from, int to) {
    return *std::max_element(live.begin() + from, live.begin() + to);
  };
  const std::uint64_t first_half = peak(5, 30);
  const std::uint64_t second_half = peak(30, 60);
  EXPECT_GT(first_half, 0u);
  EXPECT_LE(second_half, first_half + first_half / 2) << s.name;
  EXPECT_LT(peak(0, 60), 200u) << s.name;
}

TEST_P(ExactRetirementTest, RestoreRebuildsTheInFlightCounts) {
  // The counts are not in the checkpoint: a restore rebuilds them from
  // the pending events and the root bindings. They must equal the
  // uninterrupted run's, right after the restore and again after both
  // runs go on (a sharded checkpoint also restores under other plans).
  const Scenario s = scenario();
  const NetworkInstance instance = MakeInstance();
  Simulator original(instance, SmallConfig(), ModelInputs::Default(),
                     s.options);
  original.Start();
  original.RunUntil(17.3);
  const std::vector<std::uint8_t> bytes = Save(original);
  const auto counts = original.InFlightCounts();
  ASSERT_FALSE(counts.empty());
  std::vector<SimOptions> resume = {s.options};
  if (s.options.shards.enabled()) {
    resume.push_back(Sharded(s.options, 1, 1));
    resume.push_back(Sharded(s.options, 8, 3));
  }
  original.RunUntil(23.0);
  for (const SimOptions& options : resume) {
    SCOPED_TRACE(std::to_string(options.shards.num_shards) + " shards");
    std::unique_ptr<Simulator> restored = Restore(instance, options, bytes);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->InFlightCounts(), counts);
    restored->RunUntil(23.0);
    EXPECT_EQ(restored->InFlightCounts(), original.InFlightCounts());
    EXPECT_EQ(restored->live_query_roots(), original.live_query_roots());
  }
}

TEST_P(ExactRetirementTest, CheckpointHoldsNoRetiredRoot) {
  // A checkpoint is cut between windows, when every dispatch has run
  // its retirement: each root it carries is still reachable from a
  // pending event. So a restore finds nothing idle to retire — it holds
  // exactly the live roots of the saver — and every claimed root of a
  // legacy payload's SimState section has a count.
  const Scenario s = scenario();
  const NetworkInstance instance = MakeInstance();
  Simulator sim(instance, SmallConfig(), ModelInputs::Default(), s.options);
  sim.Start();
  for (const double cut : {11.0, 29.5, 44.25}) {
    sim.RunUntil(cut);
    const std::vector<std::uint8_t> bytes = Save(sim);
    std::unique_ptr<Simulator> restored = Restore(instance, s.options, bytes);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->live_query_roots(), sim.live_query_roots());
    if (s.options.shards.enabled()) continue;

    // Walk the legacy payload to its SimState section: the engine
    // marker and clock, the pending events, the queue's next sequence
    // number, the protocol RNG and the latency sum.
    std::optional<CheckpointReader> r =
        CheckpointReader::Open(bytes, kTestMagic, kTestVersion);
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->BeginSection(0x756d6973u));  // "simu"
    EXPECT_FALSE(r->GetBool());
    r->GetDouble();
    const std::uint64_t events = r->GetU64();
    for (std::uint64_t i = 0; i < events; ++i) {
      r->GetDouble();
      r->GetU64();
      r->GetU32();
      r->GetU32();
      r->GetU64();
      r->GetU64();
      r->GetDouble();
    }
    r->GetU64();
    Rng scratch(0);
    GetRng(*r, scratch);
    r->GetDouble();
    SimState section(instance.NumClusters());
    ASSERT_TRUE(section.LoadFrom(*r));
    const auto counts = sim.InFlightCounts();
    std::uint64_t claimed = 0;
    for (std::uint64_t qid = section.retire_floor(); qid < section.next_qid();
         ++qid) {
      if (section.Find(qid) == nullptr) continue;
      ++claimed;
      const bool counted = std::any_of(
          counts.begin(), counts.end(),
          [qid](const auto& entry) { return entry.first == qid; });
      EXPECT_TRUE(counted) << "root " << qid << " has no in-flight count";
    }
    EXPECT_EQ(claimed, sim.live_query_roots());
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ExactRetirementTest,
                         ::testing::Range<std::size_t>(0, Scenarios().size()),
                         [](const auto& info) {
                           return std::string(Scenarios()[info.param].name);
                         });

}  // namespace
}  // namespace sppnet
