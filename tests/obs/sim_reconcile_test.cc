// ctest-label: threaded
// Reconciliation between the observability layer and the primary
// outputs it shadows: every sim counter published by
// Simulator::PublishMetrics must agree with the corresponding
// SimReport field, and the trial-runner counter must be bit-identical
// across parallelism settings. This is the guard that keeps the
// metrics registry an *observation* of the protocol rather than a
// second, driftable implementation of its bookkeeping.

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/model/config.h"
#include "sppnet/model/instance.h"
#include "sppnet/model/trials.h"
#include "sppnet/obs/export.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/sim/simulator.h"
#include "sppnet/sim/stream.h"

namespace sppnet {
namespace {

struct SimSetup {
  Configuration config;
  ModelInputs inputs = ModelInputs::Default();
  NetworkInstance instance;
};

SimSetup MakeSetup(std::uint64_t instance_seed) {
  SimSetup s;
  s.config.graph_size = 300;
  s.config.cluster_size = 10;
  s.config.ttl = 4;
  s.config.avg_outdegree = 4.0;
  Rng rng(instance_seed);
  s.instance = GenerateInstance(s.config, s.inputs, rng);
  return s;
}

SimReport RunWithMetrics(const SimSetup& s, SimOptions options,
                         MetricsRegistry& metrics) {
  options.metrics = &metrics;
  Simulator sim(s.instance, s.config, s.inputs, options);
  return sim.Run();
}

TEST(SimReconcileTest, ReliabilityRunCountersMatchReport) {
  const SimSetup s = MakeSetup(11);
  SimOptions options;
  options.duration_seconds = 120.0;
  options.warmup_seconds = 10.0;
  options.seed = 5;
  options.churn.enable = true;
  options.churn.partner_recovery_seconds = 20.0;

  MetricsRegistry m;
  const SimReport report = RunWithMetrics(s, options, m);

  // Churn actually happened — otherwise the test proves nothing.
  ASSERT_GT(report.partner_failures, 0u);
  ASSERT_GT(report.cluster_outages, 0u);

  EXPECT_EQ(m.CounterValue("sim.churn.partner_failures"),
            report.partner_failures);
  EXPECT_EQ(m.CounterValue("sim.churn.cluster_outages"),
            report.cluster_outages);
  EXPECT_EQ(m.CounterValue("sim.queries.submitted"),
            report.queries_submitted);
  EXPECT_EQ(m.CounterValue("sim.responses.delivered"),
            report.responses_delivered);
  EXPECT_EQ(m.CounterValue("sim.queries.duplicate"),
            report.duplicate_queries);

  // Every recovery follows a failure within the same run; at most the
  // tail failures can still be pending when the clock stops.
  EXPECT_LE(m.CounterValue("sim.churn.partner_recoveries"),
            m.CounterValue("sim.churn.partner_failures"));

  // Join traffic (client re-uploads on recovery) exists in churn mode.
  EXPECT_GT(m.CounterValue("sim.msg.join.sent"), 0u);
  EXPECT_GT(m.CounterValue("sim.events.dispatched"), 0u);
  EXPECT_GT(m.GaugeValue("sim.event_queue.depth_hwm"), 0.0);

  // Event-queue totals are reconciled 1:1 with the report's whole-run
  // fields; every dispatched event was scheduled first.
  ASSERT_GT(report.events_scheduled, 0u);
  ASSERT_GT(report.events_dispatched, 0u);
  ASSERT_GT(report.queue_depth_hwm, 0u);
  EXPECT_EQ(m.CounterValue("sim.queue.scheduled"), report.events_scheduled);
  EXPECT_EQ(m.CounterValue("sim.events.dispatched"),
            report.events_dispatched);
  EXPECT_EQ(m.GaugeValue("sim.event_queue.depth_hwm"),
            static_cast<double>(report.queue_depth_hwm));
  EXPECT_LE(report.events_dispatched, report.events_scheduled);
  EXPECT_LE(report.queue_depth_hwm, report.events_scheduled);

  // Per-query state instruments observed real protocol activity.
  EXPECT_GT(m.CounterValue("sim.state.duplicate_entries"), 0u);
  EXPECT_GT(m.GaugeValue("sim.state.scratch_bytes"), 0.0);
}

TEST(SimReconcileTest, ChurnRecoveriesCounterMatchesReport) {
  const SimSetup s = MakeSetup(16);
  SimOptions options;
  options.duration_seconds = 150.0;
  options.warmup_seconds = 10.0;
  options.seed = 4;
  options.churn.enable = true;
  options.churn.partner_recovery_seconds = 15.0;

  MetricsRegistry m;
  const SimReport report = RunWithMetrics(s, options, m);

  // partner_failures / partner_recoveries are 1:1 between the report
  // and the registry — the reconciliation the fault layer also relies
  // on when it reuses the churn bookkeeping.
  ASSERT_GT(report.partner_recoveries, 0u);
  EXPECT_EQ(m.CounterValue("sim.churn.partner_failures"),
            report.partner_failures);
  EXPECT_EQ(m.CounterValue("sim.churn.partner_recoveries"),
            report.partner_recoveries);
  EXPECT_LE(report.partner_recoveries, report.partner_failures);
}

TEST(SimReconcileTest, FaultRunCountersMatchReport) {
  const SimSetup s = MakeSetup(17);
  SimOptions options;
  options.duration_seconds = 200.0;
  options.warmup_seconds = 10.0;
  options.seed = 3;
  options.faults.crash_rate_per_partner = 8.0e-3;
  options.faults.crash_recovery_seconds = 20.0;
  options.faults.message_drop_probability = 0.01;
  options.faults.max_delay_jitter_seconds = 0.05;
  options.faults.request_timeout_seconds = 2.0;

  MetricsRegistry m;
  const SimReport report = RunWithMetrics(s, options, m);

  // Faults actually happened — otherwise the test proves nothing.
  ASSERT_GT(report.faults_crashes, 0u);
  ASSERT_GT(report.faults_messages_dropped, 0u);
  ASSERT_GT(report.queries_succeeded, 0u);

  EXPECT_EQ(m.CounterValue("sim.faults.crashes"), report.faults_crashes);
  EXPECT_EQ(m.CounterValue("sim.faults.messages_dropped"),
            report.faults_messages_dropped);
  EXPECT_EQ(m.CounterValue("sim.faults.request_timeouts"),
            report.faults_request_timeouts);
  EXPECT_EQ(m.CounterValue("sim.faults.retries"), report.faults_retries);
  EXPECT_EQ(m.CounterValue("sim.faults.failover_episodes"),
            report.faults_failover_episodes);
  EXPECT_EQ(m.CounterValue("sim.faults.client_rejoins"),
            report.faults_client_rejoins);
  EXPECT_EQ(m.CounterValue("sim.faults.queries.succeeded"),
            report.queries_succeeded);
  EXPECT_EQ(m.CounterValue("sim.faults.queries.failed"),
            report.queries_failed);
  // Crash-driven failures flow through the shared churn bookkeeping.
  EXPECT_EQ(m.CounterValue("sim.churn.partner_failures"),
            report.partner_failures);
  EXPECT_EQ(m.CounterValue("sim.churn.partner_recoveries"),
            report.partner_recoveries);

  // The recovery-latency histogram observes completed recovery
  // episodes; its mean is the report's summary statistic.
  const auto& histograms = m.histograms();
  const auto it = histograms.find("sim.faults.recovery_latency_seconds");
  ASSERT_NE(it, histograms.end());
  if (it->second.count() > 0) {
    EXPECT_NEAR(it->second.Mean(), report.mean_recovery_latency_seconds,
                1e-12);
  }
}

TEST(SimReconcileTest, RoutingRunCountersMatchReport) {
  const SimSetup s = MakeSetup(12);
  SimOptions options;
  options.duration_seconds = 120.0;
  options.warmup_seconds = 10.0;
  options.seed = 6;
  options.strategy = SearchStrategy::kWalker;
  options.num_walkers = 4;
  options.walk_ttl = 16;
  options.routing.enable = true;
  options.routing.refresh_interval_seconds = 20.0;

  MetricsRegistry m;
  const SimReport report = RunWithMetrics(s, options, m);

  ASSERT_GT(report.routing_digest_refreshes, 0u);
  ASSERT_GT(report.routing_biased_hops, 0u);
  EXPECT_EQ(m.CounterValue("sim.routing.digest_refreshes"),
            report.routing_digest_refreshes);
  EXPECT_EQ(m.CounterValue("sim.routing.suppressed_forwards"),
            report.routing_suppressed_forwards);
  EXPECT_EQ(m.CounterValue("sim.routing.biased_hops"),
            report.routing_biased_hops);
  // Every re-announcement round ships digests, counted per message.
  EXPECT_EQ(m.CounterValue("sim.msg.digest.sent"),
            report.routing_digest_announces);
  EXPECT_GE(report.routing_digest_announces, report.routing_digest_refreshes);
}

TEST(SimReconcileTest, ConsistencyRunCountersMatchReport) {
  const SimSetup s = MakeSetup(14);
  SimOptions options;
  options.duration_seconds = 120.0;
  options.warmup_seconds = 10.0;
  options.seed = 8;
  options.consistency.change_rate_per_client = 0.05;
  options.consistency.scheme = ConsistencyScheme::kPullTtr;
  options.consistency.ttr_seconds = 10.0;
  options.consistency.replication.owner_replication = true;

  MetricsRegistry m;
  const SimReport report = RunWithMetrics(s, options, m);

  ASSERT_GT(report.consistency_changes, 0u);
  ASSERT_GT(report.consistency_polls, 0u);
  EXPECT_EQ(m.CounterValue("sim.consistency.changes"),
            report.consistency_changes);
  EXPECT_EQ(m.CounterValue("sim.consistency.stale_results"),
            report.consistency_stale_results);
  EXPECT_EQ(m.CounterValue("sim.consistency.fresh_results"),
            report.consistency_fresh_results);
  EXPECT_EQ(m.CounterValue("sim.consistency.replica_records"),
            report.consistency_replica_records);
  EXPECT_EQ(m.CounterValue("sim.consistency.replica_served"),
            report.consistency_replica_served);
  // The per-scheme message tallies are the message-class counters.
  EXPECT_EQ(m.CounterValue("sim.msg.poll.sent"), report.consistency_polls);
  EXPECT_EQ(m.CounterValue("sim.msg.refresh.sent"),
            report.consistency_refresh_replies);
  EXPECT_EQ(m.CounterValue("sim.msg.invalidate.sent"),
            report.consistency_invalidations);
  EXPECT_EQ(m.CounterValue("sim.msg.replica.sent"),
            report.consistency_replica_pushes);
  const auto it =
      m.histograms().find("sim.consistency.freshness_latency_seconds");
  ASSERT_NE(it, m.histograms().end());
  EXPECT_GT(it->second.count(), 0u);
  EXPECT_NEAR(it->second.Mean(), report.consistency_mean_freshness_seconds,
              1e-12);
}

TEST(SimReconcileTest, CapacityRunInstrumentsMatchReport) {
  const SimSetup s = MakeSetup(15);
  SimOptions options;
  options.duration_seconds = 120.0;
  options.warmup_seconds = 10.0;
  options.seed = 9;
  options.capacity.enable = true;
  options.capacity.window_seconds = 10.0;

  MetricsRegistry m;
  const SimReport report = RunWithMetrics(s, options, m);

  ASSERT_GT(report.capacity_windows, 0u);
  EXPECT_EQ(m.CounterValue("sim.capacity.windows"), report.capacity_windows);
  EXPECT_EQ(m.CounterValue("sim.capacity.overload_episodes"),
            report.capacity_overload_episodes);
  EXPECT_EQ(m.GaugeValue("sim.capacity.mean_utilization"),
            report.capacity_mean_utilization);
  EXPECT_EQ(m.GaugeValue("sim.capacity.sp_mean_utilization"),
            report.capacity_sp_mean_utilization);
  EXPECT_EQ(m.GaugeValue("sim.capacity.sp_p99_utilization"),
            report.capacity_sp_p99_utilization);
  // The overloaded fractions are the sample counters' ratios.
  const std::uint64_t samples = m.CounterValue("sim.capacity.peer_samples");
  const std::uint64_t sp_samples = m.CounterValue("sim.capacity.sp_samples");
  ASSERT_GT(samples, 0u);
  ASSERT_GT(sp_samples, 0u);
  EXPECT_EQ(static_cast<double>(
                m.CounterValue("sim.capacity.peer_overloaded_samples")) /
                static_cast<double>(samples),
            report.capacity_overloaded_fraction);
  EXPECT_EQ(static_cast<double>(
                m.CounterValue("sim.capacity.sp_overloaded_samples")) /
                static_cast<double>(sp_samples),
            report.capacity_sp_overloaded_fraction);
  const auto it = m.histograms().find("sim.capacity.sp_utilization");
  ASSERT_NE(it, m.histograms().end());
  EXPECT_EQ(it->second.count(), sp_samples);
}

TEST(SimReconcileTest, HopHistogramMatchesReportMoments) {
  const SimSetup s = MakeSetup(13);
  SimOptions options;
  options.duration_seconds = 60.0;
  options.warmup_seconds = 10.0;
  options.seed = 7;

  MetricsRegistry m;
  const SimReport report = RunWithMetrics(s, options, m);
  ASSERT_GT(report.responses_delivered, 0u);

  const auto& histograms = m.histograms();
  const auto it = histograms.find("sim.response.hops");
  ASSERT_NE(it, histograms.end());
  const Histogram& hops = it->second;
  EXPECT_EQ(hops.count(), report.responses_delivered);
  EXPECT_NEAR(hops.Mean(), report.mean_response_hops, 1e-12);
}

TEST(SimReconcileTest, CountersBitIdenticalAcrossRepeatedRuns) {
  const SimSetup s = MakeSetup(14);
  SimOptions options;
  options.duration_seconds = 90.0;
  options.warmup_seconds = 10.0;
  options.seed = 8;
  options.churn.enable = true;

  MetricsRegistry first, second;
  RunWithMetrics(s, options, first);
  RunWithMetrics(s, options, second);

  // Counters, the gauge and the histogram are all deterministic, so
  // the deterministic sections of the export must match byte for byte.
  // The simulator additionally publishes wall-clock phase timers
  // (sim.time.*) — present in both registries but excluded from the
  // comparison, which is exactly what WriteDeterministicMetricsJson is
  // for.
  ASSERT_NE(first.timers().find("sim.time.run_seconds"),
            first.timers().end());
  ASSERT_NE(first.timers().find("sim.time.init_seconds"),
            first.timers().end());
  std::ostringstream a, b;
  WriteDeterministicMetricsJson(a, first);
  WriteDeterministicMetricsJson(b, second);
  EXPECT_EQ(a.str(), b.str());
}

TEST(SimReconcileTest, SharedRegistryAccumulatesAcrossRuns) {
  const SimSetup s = MakeSetup(15);
  SimOptions options;
  options.duration_seconds = 60.0;
  options.warmup_seconds = 10.0;
  options.seed = 9;

  MetricsRegistry once, twice;
  const SimReport r1 = RunWithMetrics(s, options, once);
  RunWithMetrics(s, options, twice);
  RunWithMetrics(s, options, twice);
  EXPECT_EQ(twice.CounterValue("sim.queries.submitted"),
            2 * r1.queries_submitted);
  const auto it = twice.histograms().find("sim.response.hops");
  ASSERT_NE(it, twice.histograms().end());
  EXPECT_EQ(it->second.count(), 2 * r1.responses_delivered);
}

TEST(SimReconcileTest, AdaptiveRunCountersMatchReport) {
  // The Section 5.3 bad topology, so every adaptation rule fires.
  SimSetup s;
  s.config.graph_size = 400;
  s.config.cluster_size = 4;
  s.config.ttl = 5;
  s.config.avg_outdegree = 3.1;
  Rng rng(25);
  s.instance = GenerateInstance(s.config, s.inputs, rng);

  SimOptions options;
  options.duration_seconds = 300.0;
  options.warmup_seconds = 200.0;
  options.seed = 34;
  options.adaptive.probe_interval_seconds = 2.0;
  options.adaptive.decision_interval_seconds = 10.0;
  options.adaptive.policy.max_bandwidth_bps = 1.0e7;
  options.adaptive.policy.max_proc_hz = 2.0e6;

  MetricsRegistry m;
  const SimReport report = RunWithMetrics(s, options, m);

  // Adaptation actually happened — otherwise the test proves nothing.
  ASSERT_GT(report.adapt_rounds, 0u);
  ASSERT_GT(report.adapt_coalesces, 0u);
  ASSERT_GT(report.adapt_probes_sent, 0u);

  // Every sim.adaptive.* instrument is reconciled 1:1 with its
  // SimReport field.
  EXPECT_EQ(m.CounterValue("sim.adaptive.rounds"), report.adapt_rounds);
  EXPECT_EQ(m.CounterValue("sim.adaptive.splits"), report.adapt_splits);
  EXPECT_EQ(m.CounterValue("sim.adaptive.coalesces"),
            report.adapt_coalesces);
  EXPECT_EQ(m.CounterValue("sim.adaptive.edges_added"),
            report.adapt_edges_added);
  EXPECT_EQ(m.CounterValue("sim.adaptive.ttl_decreases"),
            report.adapt_ttl_decreases);
  EXPECT_EQ(m.CounterValue("sim.adaptive.probes_sent"),
            report.adapt_probes_sent);
  EXPECT_EQ(m.CounterValue("sim.adaptive.reports_received"),
            report.adapt_reports_received);
  EXPECT_EQ(m.CounterValue("sim.adaptive.client_moves"),
            report.adapt_client_moves);
  EXPECT_EQ(m.GaugeValue("sim.adaptive.converged"),
            report.adapt_converged ? 1.0 : 0.0);
  EXPECT_EQ(m.GaugeValue("sim.adaptive.converged_round"),
            static_cast<double>(report.adapt_converged_round));
  EXPECT_EQ(m.GaugeValue("sim.adaptive.final_clusters"),
            static_cast<double>(report.final_clusters));
  EXPECT_EQ(m.GaugeValue("sim.adaptive.final_ttl"),
            static_cast<double>(report.final_ttl));

  // The adaptation message classes are published and saw measured-
  // window traffic. (They are NOT equal to the adapt_* tallies: the
  // msg counters cover the measurement window only, while the
  // adaptation trajectory mostly runs during warmup.)
  EXPECT_GT(m.CounterValue("sim.msg.probe.sent"), 0u);
  EXPECT_GT(m.CounterValue("sim.msg.probe.received"), 0u);
  EXPECT_GT(m.CounterValue("sim.msg.report.sent"), 0u);
  EXPECT_GT(m.CounterValue("sim.msg.report.received"), 0u);
}

// --- Windowed-snapshot reconciliation (the streaming serving layer) ---
//
// The property that makes windowed deltas trustworthy as a serving
// surface: for EVERY published sim.* counter, the sum of the per-window
// increments over a streamed run equals the end-of-run cumulative value
// exactly — no window double-counts, drops or resets a single
// increment, on any strategy and with any combination of churn, faults
// and in-sim adaptation active.

struct WindowedScenario {
  const char* name;
  SearchStrategy strategy = SearchStrategy::kFlood;
  bool churn = false;
  bool faults = false;
  bool adaptive = false;
};

TEST(SimReconcileTest, WindowedDeltasSumToEndOfRunTotals) {
  const WindowedScenario scenarios[] = {
      {"flood_churn_faults", SearchStrategy::kFlood, true, true, false},
      {"flood_adaptive", SearchStrategy::kFlood, false, false, true},
      {"ring_churn", SearchStrategy::kExpandingRing, true, false, false},
      {"ring_faults", SearchStrategy::kExpandingRing, false, true, false},
      {"walk_churn_faults", SearchStrategy::kRandomWalk, true, true, false},
      {"walk_plain", SearchStrategy::kRandomWalk, false, false, false},
  };
  for (const WindowedScenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    SimSetup s;
    s.config.graph_size = 300;
    s.config.cluster_size = sc.adaptive ? 4.0 : 10.0;
    s.config.redundancy = sc.faults;
    s.config.ttl = 4;
    s.config.avg_outdegree = sc.adaptive ? 3.1 : 4.0;
    Rng rng(61);
    s.instance = GenerateInstance(s.config, s.inputs, rng);

    SimOptions options;
    options.seed = 29;
    options.duration_seconds = 36.0;
    options.warmup_seconds = 12.0;
    options.strategy = sc.strategy;
    if (sc.strategy == SearchStrategy::kExpandingRing) {
      options.ring_satisfaction_results = 30;
    }
    if (sc.strategy == SearchStrategy::kRandomWalk) {
      options.num_walkers = 8;
      options.walk_ttl = 32;
    }
    if (sc.churn) {
      options.churn.enable = true;
      options.churn.partner_recovery_seconds = 20.0;
    }
    if (sc.faults) {
      options.faults.crash_rate_per_partner = 4e-3;
      options.faults.crash_recovery_seconds = 15.0;
      options.faults.message_drop_probability = 0.01;
      options.faults.max_delay_jitter_seconds = 0.05;
      options.faults.request_timeout_seconds = 2.0;
      options.faults.max_retries = 3;
    }
    if (sc.adaptive) {
      options.adaptive.probe_interval_seconds = 2.0;
      options.adaptive.decision_interval_seconds = 10.0;
      options.adaptive.policy.max_bandwidth_bps = 1.0e7;
      options.adaptive.policy.max_proc_hz = 2.0e6;
    }
    MetricsRegistry final_metrics;
    options.metrics = &final_metrics;

    StreamOptions stream;
    stream.window_seconds = 6.0;
    StreamDriver driver(s.instance, s.config, s.inputs, options, stream);
    std::map<std::string, std::uint64_t> summed;
    for (int w = 0; w < 8; ++w) {
      const StreamSnapshot snap = driver.AdvanceWindow();
      for (const auto& [name, delta] : snap.counter_deltas) {
        summed[name] += delta;
      }
    }
    driver.Finish();

    // Every counter of the final publish is covered by the windows, and
    // nothing else was ever emitted. (CounterValues is name-ordered,
    // summed is a name-ordered map: compare wholesale.)
    const auto final_values = final_metrics.CounterValues();
    ASSERT_GT(final_values.size(), 0u);
    EXPECT_TRUE(std::equal(final_values.begin(), final_values.end(),
                           summed.begin(), summed.end()))
        << "windowed deltas disagree with the end-of-run totals";
    // Spot-check the headline instruments by name, for a readable
    // failure when the wholesale comparison ever trips.
    EXPECT_EQ(summed["sim.queries.submitted"],
              final_metrics.CounterValue("sim.queries.submitted"));
    EXPECT_EQ(summed["sim.events.dispatched"],
              final_metrics.CounterValue("sim.events.dispatched"));
    ASSERT_GT(summed["sim.queries.submitted"], 0u);
  }
}

TEST(TrialMetricsTest, CompletedCounterIdenticalAcrossParallelism) {
  Configuration config;
  config.graph_size = 500;
  config.cluster_size = 20;
  config.ttl = 4;
  config.avg_outdegree = 3.1;
  config.graph_type = GraphType::kPowerLaw;
  const ModelInputs inputs = ModelInputs::Default();

  std::vector<std::uint64_t> completed;
  for (const std::size_t parallelism : {1u, 2u, 8u}) {
    TrialOptions options;
    options.num_trials = 6;
    options.seed = 99;
    options.parallelism = parallelism;
    MetricsRegistry m;
    options.metrics = &m;
    RunTrials(config, inputs, options);
    completed.push_back(m.CounterValue("trials.completed"));
    // Wall-clock phase timers recorded one span per trial.
    const auto& timers = m.timers();
    const auto gen = timers.find("trials.generate");
    const auto eval = timers.find("trials.evaluate");
    ASSERT_NE(gen, timers.end());
    ASSERT_NE(eval, timers.end());
    EXPECT_EQ(gen->second.count(), options.num_trials);
    EXPECT_EQ(eval->second.count(), options.num_trials);
    EXPECT_GE(gen->second.total_seconds(), 0.0);
  }
  EXPECT_EQ(completed[0], 6u);
  EXPECT_EQ(completed[0], completed[1]);
  EXPECT_EQ(completed[0], completed[2]);
}

}  // namespace
}  // namespace sppnet
