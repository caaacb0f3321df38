// The streaming serving layer against the pre-refactor batch
// simulator: a run streamed window by window and finalized at the batch
// horizon must land on the SAME pre-overhaul golden report digests as
// Simulator::Run() — the Run()/Start()/RunUntil()/Finalize() split and
// the windowed metric publishes change nothing protocol-visible. On top
// of that the snapshot SEQUENCE itself is pinned: a golden FNV-1a over
// every window's protocol-relevant deltas, so any change to window
// boundaries, counter surfaces or delta arithmetic trips loudly.

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
#include "sppnet/sim/simulator.h"
#include "sppnet/sim/stream.h"

namespace sppnet {
namespace {

std::string ProtocolMetricsJson(const MetricsRegistry& m) {
  const auto engine_specific = [](std::string_view name) {
    return name.rfind("sim.queue.", 0) == 0 ||
           name.rfind("sim.state.", 0) == 0;
  };
  MetricsRegistry filtered;
  for (const auto& [name, counter] : m.counters()) {
    if (!engine_specific(name)) {
      filtered.GetCounter(name).Increment(counter.value());
    }
  }
  for (const auto& [name, gauge] : m.gauges()) {
    if (!engine_specific(name)) filtered.GetGauge(name).Set(gauge.value());
  }
  for (const auto& [name, histogram] : m.histograms()) {
    if (!engine_specific(name)) {
      filtered.GetHistogram(name, histogram.upper_bounds()).Merge(histogram);
    }
  }
  std::ostringstream out;
  WriteDeterministicMetricsJson(out, filtered);
  return out.str();
}

struct GoldenCase {
  const char* name;
  /// Pre-overhaul batch golden (engine_equivalence_test.cc). Never
  /// regenerate to make a failure pass.
  std::uint64_t report_digest;
  /// Snapshot-sequence golden: StreamDriver::snapshot_digest() after
  /// streaming the batch horizon in 12 s windows. Generated at the
  /// introduction of the streaming layer against the batch-equal
  /// reports above; pinned for the same reason. Re-derived once, when
  /// the result cache and its two always-zero sim.cache.* counters were
  /// removed: the values are the old fold with those names skipped.
  std::uint64_t sequence_digest;
  Configuration config;
  std::uint64_t instance_seed;
  SimOptions options;
};

// The three batch goldens with the most serving-layer machinery in
// play: the plain flood baseline, churn (lifespans + recoveries in
// flight across every window boundary) and live in-sim adaptation.
std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"flood_plod", 0xa9c5873452eb3e5full, 0x947634f4e238e664ull,
                 {}, 101, {}};
    c.config.graph_size = 400;
    c.config.cluster_size = 10.0;
    c.config.ttl = 4;
    c.config.avg_outdegree = 4.0;
    c.options.seed = 11;
    cases.push_back(c);
  }
  {
    GoldenCase c{"churn_plod", 0x69a0bd51b6db4f6aull, 0xe8d0b226b0199332ull,
                 {}, 105, {}};
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
    GoldenCase c{"adaptive_plod", 0x006dd28398706a0cull,
                 0x3ef80f7f0a458eaeull, {}, 108, {}};
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
  for (GoldenCase& c : cases) {
    c.options.duration_seconds = 120.0;
    c.options.warmup_seconds = 12.0;
  }
  return cases;
}

NetworkInstance MakeInstance(const GoldenCase& c, const ModelInputs& inputs) {
  Rng rng(c.instance_seed);
  return GenerateInstance(c.config, inputs, rng);
}

class StreamGoldenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamGoldenTest, StreamedRunIsBitIdenticalToTheBatchGolden) {
  const GoldenCase c = GoldenCases()[GetParam()];
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance instance = MakeInstance(c, inputs);

  // 11 windows x 12 s cover warmup (12) + duration (120) exactly; the
  // last boundary 132.0 is the batch horizon, bit for bit.
  StreamOptions stream;
  stream.window_seconds = 12.0;
  SimOptions options = c.options;
  MetricsRegistry streamed_metrics;
  options.metrics = &streamed_metrics;
  StreamDriver driver(instance, c.config, inputs, options, stream);
  std::vector<StreamSnapshot> snapshots;
  for (int w = 0; w < 11; ++w) snapshots.push_back(driver.AdvanceWindow());
  const SimReport streamed = driver.Finish();

  // The streamed report lands on the pre-overhaul batch golden.
  EXPECT_EQ(ReportDigest(streamed), c.report_digest) << c.name;

  // And the batch path agrees field for field within this build,
  // including the post-golden instruments the digest skips.
  SimOptions batch_options = c.options;
  MetricsRegistry batch_metrics;
  batch_options.metrics = &batch_metrics;
  Simulator sim(instance, c.config, inputs, batch_options);
  const SimReport batch = sim.Run();
  EXPECT_EQ(ReportDigest(batch), c.report_digest);
  EXPECT_EQ(streamed.events_scheduled, batch.events_scheduled);
  EXPECT_EQ(streamed.events_dispatched, batch.events_dispatched);
  EXPECT_EQ(streamed.queue_depth_hwm, batch.queue_depth_hwm);
  EXPECT_EQ(streamed.adapt_rounds, batch.adapt_rounds);
  EXPECT_EQ(streamed.adapt_converged, batch.adapt_converged);
  EXPECT_EQ(streamed.final_clusters, batch.final_clusters);
  EXPECT_EQ(streamed.final_ttl, batch.final_ttl);
  EXPECT_EQ(streamed.final_avg_outdegree, batch.final_avg_outdegree);
  EXPECT_EQ(ProtocolMetricsJson(streamed_metrics),
            ProtocolMetricsJson(batch_metrics));

  // Window arithmetic: deltas are a partition of the run.
  std::uint64_t events = 0;
  for (const StreamSnapshot& snap : snapshots) {
    events += snap.events_dispatched_delta;
  }
  EXPECT_EQ(events, streamed.events_dispatched);

  // The snapshot sequence itself is pinned.
  EXPECT_EQ(driver.snapshot_digest(), c.sequence_digest) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllGoldens, StreamGoldenTest,
                         ::testing::Range<std::size_t>(0, 3),
                         [](const auto& info) {
                           return std::string(
                               GoldenCases()[info.param].name);
                         });

TEST(StreamRetirementTest, RetirementDoesNotChangeTheGolden) {
  // The simulator retires a query's state the moment no pending event
  // carries its qid; by construction no reachable protocol state is
  // touched, so the flood golden must hold. The observed retention is
  // the longest submit-to-retire span, a few hop round trips here.
  const GoldenCase c = GoldenCases()[0];
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance instance = MakeInstance(c, inputs);
  StreamOptions stream;
  stream.window_seconds = 12.0;
  StreamDriver driver(instance, c.config, inputs, c.options, stream);
  EXPECT_EQ(driver.effective_retention_seconds(), 0.0);
  for (int w = 0; w < 11; ++w) driver.AdvanceWindow();
  EXPECT_GT(driver.effective_retention_seconds(), 0.0);
  EXPECT_LT(driver.effective_retention_seconds(), 10.0);
  EXPECT_EQ(ReportDigest(driver.Finish()), c.report_digest);
  EXPECT_EQ(driver.snapshot_digest(), c.sequence_digest);
}

TEST(StreamRetirementTest, RetirementHoldsUnderChurnAndAdaptation) {
  // Retirement applies to every configuration: churn keeps lifespans
  // and recoveries in flight across each boundary, and adaptation
  // grows the cluster set mid-run. Both goldens must hold with state
  // retired as each query ends.
  const ModelInputs inputs = ModelInputs::Default();
  for (const std::size_t index : {std::size_t{1}, std::size_t{2}}) {
    const GoldenCase c = GoldenCases()[index];
    SCOPED_TRACE(c.name);
    const NetworkInstance instance = MakeInstance(c, inputs);
    StreamOptions stream;
    stream.window_seconds = 12.0;
    StreamDriver driver(instance, c.config, inputs, c.options, stream);
    for (int w = 0; w < 11; ++w) driver.AdvanceWindow();
    EXPECT_EQ(ReportDigest(driver.Finish()), c.report_digest);
    EXPECT_EQ(driver.snapshot_digest(), c.sequence_digest);
  }
}

TEST(StreamRetirementTest, RetirementHoldsForExpandingRingRetries) {
  // Expanding-ring waves re-submit under fresh qids bound to their root
  // query; each binding holds the root, so retirement must never drop a
  // root a later wave still resolves. Configuration, seeds and digest are the
  // pre-overhaul ring_plod batch golden (engine_equivalence_test.cc).
  Configuration config;
  config.graph_size = 400;
  config.cluster_size = 10.0;
  config.ttl = 5;
  config.avg_outdegree = 4.0;
  SimOptions options;
  options.strategy = SearchStrategy::kExpandingRing;
  options.ring_satisfaction_results = 30;
  options.seed = 13;
  options.duration_seconds = 120.0;
  options.warmup_seconds = 12.0;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(103);
  const NetworkInstance instance = GenerateInstance(config, inputs, rng);
  StreamOptions stream;
  stream.window_seconds = 12.0;
  StreamDriver driver(instance, config, inputs, options, stream);
  for (int w = 0; w < 11; ++w) driver.AdvanceWindow();
  const SimReport streamed = driver.Finish();
  EXPECT_GT(streamed.mean_rings_per_query, 1.0);
  EXPECT_EQ(ReportDigest(streamed), 0xabc7450774b9487full);
}

TEST(ParseQueryTraceTest, ParsesCommentsBlanksAndWhitespace) {
  const QueryTraceParse parsed = ParseQueryTrace(
      "# submissions harvested from a live deployment\n"
      "\n"
      "  0.5 7\r\n"
      "\t12.25   42\n"
      "12.25 3\n"
      "99 0");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.error_line, 0u);
  const std::vector<TraceQuery>& trace = parsed.queries;
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0].time, 0.5);
  EXPECT_EQ(trace[0].user, 7u);
  EXPECT_EQ(trace[1].time, 12.25);
  EXPECT_EQ(trace[1].user, 42u);
  EXPECT_EQ(trace[2].time, 12.25);  // Ties are allowed.
  EXPECT_EQ(trace[2].user, 3u);
  EXPECT_EQ(trace[3].time, 99.0);
  EXPECT_EQ(trace[3].user, 0u);
  EXPECT_TRUE(ParseQueryTrace("").ok());
  EXPECT_TRUE(ParseQueryTrace("").queries.empty());
  EXPECT_TRUE(ParseQueryTrace("# only comments\n\n").ok());
  EXPECT_TRUE(ParseQueryTrace("# only comments\n\n").queries.empty());
}

// A malformed trace is reported, never fatal: the result names the
// first bad line (1-based, counting blank and comment lines) and what
// is wrong with it, and carries no queries. Each input below is one
// way a line can be malformed.
void ExpectTraceError(std::string_view text, std::size_t line,
                      std::string_view error) {
  const QueryTraceParse parsed = ParseQueryTrace(text);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error, error);
  EXPECT_EQ(parsed.error_line, line);
  EXPECT_TRUE(parsed.queries.empty());
}

TEST(ParseQueryTraceErrorTest, LineWithoutUser) {
  ExpectTraceError("0.5 1\n1.0", 2, "trace line is not \"time user\"");
}

TEST(ParseQueryTraceErrorTest, LineWithExtraField) {
  ExpectTraceError("1.0 2 3", 1, "trace line is not \"time user\"");
}

TEST(ParseQueryTraceErrorTest, NonNumericTime) {
  ExpectTraceError("# header\nfast 2", 2, "trace line is not \"time user\"");
}

TEST(ParseQueryTraceErrorTest, NonFiniteTime) {
  ExpectTraceError("nan 2", 1, "trace time must be finite and >= 0");
  ExpectTraceError("inf 2", 1, "trace time must be finite and >= 0");
}

TEST(ParseQueryTraceErrorTest, NegativeTime) {
  ExpectTraceError("-1.0 2", 1, "trace time must be finite and >= 0");
}

TEST(ParseQueryTraceErrorTest, DescendingTimes) {
  ExpectTraceError("5.0 1\n\n4.0 1", 3, "trace times must be nondecreasing");
}

TEST(ParseQueryTraceErrorTest, UserWiderThan32Bits) {
  ExpectTraceError("1.0 4294967296", 1, "trace user does not fit u32");
}

TEST(StreamTraceTest, TraceFedRunsAreDeterministicAndCheckpointable) {
  Configuration config;
  config.graph_size = 300;
  config.cluster_size = 10.0;
  config.ttl = 4;
  config.avg_outdegree = 4.0;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(314);
  const NetworkInstance instance = GenerateInstance(config, inputs, rng);
  SimOptions options;
  options.seed = 21;
  options.duration_seconds = 24.0;
  options.warmup_seconds = 12.0;
  StreamOptions stream;
  stream.window_seconds = 6.0;

  // A dense post-warmup burst: 40 replayed submissions on top of the
  // generated workload.
  std::string trace_text;
  for (int i = 0; i < 40; ++i) {
    trace_text += std::to_string(13.0 + 0.4 * i);
    trace_text += ' ';
    trace_text += std::to_string((i * 37) % 300);
    trace_text += '\n';
  }
  const QueryTraceParse parsed = ParseQueryTrace(trace_text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const std::vector<TraceQuery>& trace = parsed.queries;
  ASSERT_EQ(trace.size(), 40u);

  const auto stream_run = [&](bool feed) {
    StreamDriver driver(instance, config, inputs, options, stream);
    if (feed) driver.FeedTrace(trace);
    for (int w = 0; w < 6; ++w) driver.AdvanceWindow();
    SimReport report = driver.Finish();
    return std::pair(ReportDigest(report), report.queries_submitted);
  };

  const auto [fed_digest, fed_queries] = stream_run(true);
  const auto [replay_digest, replay_queries] = stream_run(true);
  const auto [bare_digest, bare_queries] = stream_run(false);

  // Same trace, same result — trace injection is part of the
  // deterministic event stream, not a side channel.
  EXPECT_EQ(fed_digest, replay_digest);
  EXPECT_EQ(fed_queries, replay_queries);
  // Injection draws from the shared protocol RNG, so the generated
  // Poisson workload shifts under it — the measured count is not
  // bare + 40 exactly, but a 40-query burst must dominate the drift.
  EXPECT_GT(fed_queries, bare_queries);
  EXPECT_NE(fed_digest, bare_digest);

  // Pending trace events live in the serialized event queue: a
  // checkpoint cut BEFORE the tail of the trace replays it faithfully.
  StreamDriver saver(instance, config, inputs, options, stream);
  saver.FeedTrace(trace);
  for (int w = 0; w < 2; ++w) saver.AdvanceWindow();  // Cut at t=12.
  const std::vector<std::uint8_t> bytes = saver.Checkpoint();
  StreamDriver resumer(instance, config, inputs, options, stream);
  ASSERT_TRUE(resumer.Restore(bytes));
  for (int w = 2; w < 6; ++w) resumer.AdvanceWindow();
  SimReport resumed = resumer.Finish();
  EXPECT_EQ(ReportDigest(resumed), fed_digest);
  EXPECT_EQ(resumed.queries_submitted, fed_queries);
}

TEST(StreamTraceDeathTest, LateTraceQueriesAbort) {
  Configuration config;
  config.graph_size = 200;
  config.cluster_size = 10.0;
  config.ttl = 3;
  config.avg_outdegree = 4.0;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(314);
  const NetworkInstance instance = GenerateInstance(config, inputs, rng);
  SimOptions options;
  options.duration_seconds = 12.0;
  options.warmup_seconds = 6.0;
  StreamOptions stream;
  stream.window_seconds = 6.0;
  StreamDriver driver(instance, config, inputs, options, stream);
  driver.AdvanceWindow();
  const TraceQuery late{1.0, 0};  // Predates the emitted window.
  EXPECT_DEATH(driver.FeedTrace({&late, 1}),
               "trace query predates the current window");
  const TraceQuery out_of_range{7.0, 0xffffffffu};
  EXPECT_DEATH(driver.FeedTrace({&out_of_range, 1}),
               "trace user out of range");
}

}  // namespace
}  // namespace sppnet
