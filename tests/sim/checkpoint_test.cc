// ctest-label: threaded
// Resume-equivalence matrix for the streaming serving layer: a run
// checkpointed at window k and restored into a fresh driver must
// continue bit-identically to the uninterrupted run for every
// protocol-relevant observable: the final report digest, the filtered
// per-window counter deltas, the events-dispatched deltas and the
// running snapshot digest. Implementation instruments (sim.queue.*,
// sim.state.*) legitimately differ after a restore (the fresh queue's
// statistics restart) and are excluded, mirroring the
// engine-equivalence contract.
//
// Cut points deliberately include a mid-adaptation-round window
// boundary (probe reports recorded, decision round still pending) and
// a mid-fault-recovery boundary (crashed partners still down, orphaned
// clients waiting, retries backed off) — the states with the most
// serialized machinery in flight.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
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
#include "sppnet/sim/simulator.h"
#include "sppnet/sim/stream.h"

namespace sppnet {
namespace {

// The engine-equivalence field set plus the fields added since — a
// restored run must reproduce the uninterrupted report bit for bit.
// Compared within one run only, so nothing here is pinned.
std::uint64_t ReportDigest(const SimReport& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto mix_d = [&](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  const auto mix_load = [&](const LoadVector& lv) {
    mix_d(lv.in_bps);
    mix_d(lv.out_bps);
    mix_d(lv.proc_hz);
  };
  mix_d(r.measured_seconds);
  for (const LoadVector& lv : r.partner_load) mix_load(lv);
  for (const LoadVector& lv : r.client_load) mix_load(lv);
  mix_load(r.aggregate);
  mix(r.queries_submitted);
  mix(r.responses_delivered);
  mix(r.duplicate_queries);
  mix_d(r.mean_results_per_query);
  mix_d(r.mean_response_hops);
  mix_d(r.mean_first_response_latency);
  mix_d(r.mean_rings_per_query);
  mix(r.partner_failures);
  mix(r.partner_recoveries);
  mix(r.cluster_outages);
  mix_d(r.cluster_outage_fraction);
  mix_d(r.client_disconnected_fraction);
  mix(r.faults_crashes);
  mix(r.faults_messages_dropped);
  mix(r.faults_request_timeouts);
  mix(r.faults_retries);
  mix(r.faults_failover_episodes);
  mix(r.faults_client_rejoins);
  mix(r.queries_succeeded);
  mix(r.queries_failed);
  mix_d(r.query_success_rate);
  mix_d(r.mean_recovery_latency_seconds);
  mix(r.events_scheduled);
  mix(r.events_dispatched);
  mix(r.queue_depth_hwm);
  mix(r.adapt_rounds);
  mix(r.adapt_splits);
  mix(r.adapt_coalesces);
  mix(r.adapt_edges_added);
  mix(r.adapt_ttl_decreases);
  mix(r.adapt_probes_sent);
  mix(r.adapt_reports_received);
  mix(r.adapt_client_moves);
  mix(r.adapt_converged ? 1 : 0);
  mix(r.adapt_converged_round);
  mix(r.final_clusters);
  mix(static_cast<std::uint64_t>(r.final_ttl));
  mix_d(r.final_avg_outdegree);
  return h;
}

bool EngineInternal(const std::string& name) {
  return name.rfind("sim.queue.", 0) == 0 || name.rfind("sim.state.", 0) == 0;
}

/// Protocol-relevant content of one snapshot, as a comparable value.
std::vector<std::pair<std::string, std::uint64_t>> FilteredDeltas(
    const StreamSnapshot& snap) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, delta] : snap.counter_deltas) {
    if (!EngineInternal(name)) out.emplace_back(name, delta);
  }
  return out;
}

struct Scenario {
  const char* name;
  Configuration config;
  std::uint64_t instance_seed = 0;
  SimOptions sim;
  StreamOptions stream;
  std::size_t num_windows = 0;
};

// 8 windows x 6 s = 48 s of simulated time per run; warmup 12 s.
Scenario ChurnScenario() {
  Scenario s;
  s.name = "churn";
  s.config.graph_size = 400;
  s.config.cluster_size = 10.0;
  s.config.ttl = 4;
  s.config.avg_outdegree = 4.0;
  s.instance_seed = 105;
  s.sim.seed = 15;
  s.sim.duration_seconds = 36.0;
  s.sim.warmup_seconds = 12.0;
  s.sim.churn.enable = true;
  s.sim.churn.partner_recovery_seconds = 20.0;
  s.stream.window_seconds = 6.0;
  s.num_windows = 8;
  return s;
}

// Active fault plan with 15 s crash recovery and 2 s request timeouts:
// every interior window boundary has crashed partners mid-recovery,
// orphaned clients accruing disconnected time and retries backed off.
Scenario FaultScenario() {
  Scenario s;
  s.name = "faults";
  s.config.graph_size = 400;
  s.config.cluster_size = 10.0;
  s.config.redundancy = true;
  s.config.ttl = 4;
  s.config.avg_outdegree = 4.0;
  s.instance_seed = 106;
  s.sim.seed = 16;
  s.sim.duration_seconds = 36.0;
  s.sim.warmup_seconds = 12.0;
  s.sim.faults.crash_rate_per_partner = 2e-3;
  s.sim.faults.crash_recovery_seconds = 15.0;
  s.sim.faults.message_drop_probability = 0.01;
  s.sim.faults.max_delay_jitter_seconds = 0.05;
  s.sim.faults.request_timeout_seconds = 2.0;
  s.sim.faults.max_retries = 3;
  s.stream.window_seconds = 6.0;
  s.num_windows = 8;
  return s;
}

// Probe interval 2 s, decision interval 10 s, window 4 s: boundaries at
// 4, 8, 12, ... alternate between mid-round states (probe reports
// recorded, the next decision round pending) and post-round states —
// the checkpoint always carries fresh NeighborReports, streaks,
// cooldowns and the live membership mid-adaptation.
Scenario AdaptiveScenario() {
  Scenario s;
  s.name = "adaptive";
  s.config.graph_size = 400;
  s.config.cluster_size = 4.0;
  s.config.ttl = 5;
  s.config.avg_outdegree = 3.1;
  s.instance_seed = 108;
  s.sim.seed = 18;
  s.sim.duration_seconds = 28.0;
  s.sim.warmup_seconds = 12.0;
  s.sim.adaptive.probe_interval_seconds = 2.0;
  s.sim.adaptive.decision_interval_seconds = 10.0;
  s.sim.adaptive.policy.max_bandwidth_bps = 1.0e7;
  s.sim.adaptive.policy.max_proc_hz = 2.0e6;
  s.stream.window_seconds = 4.0;
  s.num_windows = 10;
  return s;
}

// Pull-with-TTR consistency against 6 s windows, a 5.8 s TTR and a
// 0.3 s hop: the first poll tick fires at t = 5.8, before the window
// boundary at 6.0, but its batched RefreshReply only lands at 6.4 —
// every cut after window 1 checkpoints MID-POLL, with the per-cluster
// pending-change FIFOs non-empty and the in-flight reply event carried
// through the restore. Replication keeps the replica tallies and the
// per-cluster replica counts in the serialized state too.
Scenario ConsistencyScenario() {
  Scenario s;
  s.name = "consistency";
  s.config.graph_size = 400;
  s.config.cluster_size = 10.0;
  s.config.ttl = 4;
  s.config.avg_outdegree = 4.0;
  s.instance_seed = 105;
  s.sim.seed = 19;
  s.sim.duration_seconds = 36.0;
  s.sim.warmup_seconds = 12.0;
  s.sim.hop_latency_seconds = 0.3;
  s.sim.consistency.change_rate_per_client = 0.08;
  s.sim.consistency.scheme = ConsistencyScheme::kPullTtr;
  s.sim.consistency.ttr_seconds = 5.8;
  s.sim.consistency.replication.owner_replication = true;
  s.sim.consistency.replication.path_replication = true;
  s.stream.window_seconds = 6.0;
  s.num_windows = 8;
  return s;
}

struct StreamedRun {
  std::vector<StreamSnapshot> snapshots;
  SimReport report;
  std::uint64_t snapshot_digest = 0;
};

NetworkInstance MakeInstance(const Scenario& s, const ModelInputs& inputs) {
  Rng rng(s.instance_seed);
  return GenerateInstance(s.config, inputs, rng);
}

/// Sharded-discipline options: the scenario's protocol under the
/// conservative-window engine with `num_shards` shards drained by
/// `num_threads` worker threads.
SimOptions ShardedOptions(const Scenario& s, std::size_t num_shards,
                          std::size_t num_threads) {
  SimOptions options = s.sim;
  options.shards.num_shards = num_shards;
  options.shards.num_threads = num_threads;
  return options;
}

/// Streams the scenario start to finish with no interruption.
StreamedRun RunUninterrupted(const Scenario& s, const SimOptions& options) {
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance instance = MakeInstance(s, inputs);
  StreamDriver driver(instance, s.config, inputs, options, s.stream);
  StreamedRun run;
  for (std::size_t w = 0; w < s.num_windows; ++w) {
    run.snapshots.push_back(driver.AdvanceWindow());
  }
  run.report = driver.Finish();
  run.snapshot_digest = driver.snapshot_digest();
  return run;
}

/// Streams `cut` windows under `save_options`, checkpoints, restores
/// into a fresh driver under `resume_options`, and streams the rest
/// there.
StreamedRun RunWithRestore(const Scenario& s, const SimOptions& save_options,
                           const SimOptions& resume_options, std::size_t cut) {
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance instance = MakeInstance(s, inputs);
  StreamedRun run;
  std::vector<std::uint8_t> bytes;
  {
    StreamDriver saver(instance, s.config, inputs, save_options, s.stream);
    for (std::size_t w = 0; w < cut; ++w) {
      run.snapshots.push_back(saver.AdvanceWindow());
    }
    bytes = saver.Checkpoint();
    // The saving driver is destroyed here: the restored run cannot
    // lean on any of its in-memory state.
  }
  StreamDriver resumer(instance, s.config, inputs, resume_options, s.stream);
  EXPECT_TRUE(resumer.Restore(bytes));
  EXPECT_EQ(resumer.windows_emitted(), cut);
  for (std::size_t w = cut; w < s.num_windows; ++w) {
    run.snapshots.push_back(resumer.AdvanceWindow());
  }
  run.report = resumer.Finish();
  run.snapshot_digest = resumer.snapshot_digest();
  return run;
}

void ExpectEquivalent(const StreamedRun& expected, const StreamedRun& actual) {
  EXPECT_EQ(ReportDigest(actual.report), ReportDigest(expected.report));
  EXPECT_EQ(actual.snapshot_digest, expected.snapshot_digest);
  ASSERT_EQ(actual.snapshots.size(), expected.snapshots.size());
  for (std::size_t w = 0; w < expected.snapshots.size(); ++w) {
    SCOPED_TRACE(std::string("window ") + std::to_string(w));
    EXPECT_EQ(actual.snapshots[w].window_end, expected.snapshots[w].window_end);
    EXPECT_EQ(actual.snapshots[w].events_dispatched_delta,
              expected.snapshots[w].events_dispatched_delta);
    EXPECT_EQ(FilteredDeltas(actual.snapshots[w]),
              FilteredDeltas(expected.snapshots[w]));
  }
}

class CheckpointMatrixTest : public ::testing::TestWithParam<std::size_t> {};

Scenario ScenarioByIndex(std::size_t index) {
  switch (index) {
    case 0:
      return ChurnScenario();
    case 1:
      return FaultScenario();
    case 2:
      return AdaptiveScenario();
    default:
      return ConsistencyScenario();
  }
}

TEST_P(CheckpointMatrixTest, RestoreAtEveryTestedCutMatchesUninterrupted) {
  const Scenario s = ScenarioByIndex(GetParam());
  SCOPED_TRACE(s.name);
  const StreamedRun uninterrupted = RunUninterrupted(s, s.sim);
  // Early, middle and late cuts. For the adaptive scenario window 3
  // ends at 12 s (mid-round: probes from t=12 recorded, round at 20 s
  // pending); for the fault scenario every cut has recoveries in
  // flight.
  for (const std::size_t cut :
       {std::size_t{1}, std::size_t{3}, s.num_windows - 1}) {
    SCOPED_TRACE(std::string("cut after window ") + std::to_string(cut));
    ExpectEquivalent(uninterrupted, RunWithRestore(s, s.sim, s.sim, cut));
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, CheckpointMatrixTest,
                         ::testing::Range<std::size_t>(0, 4),
                         [](const auto& info) {
                           return std::string(
                               ScenarioByIndex(info.param).name);
                         });

/// Recomputes the envelope's trailing FNV-1a checksum after a test
/// edited the bytes before it, so only the edit itself is wrong.
void Resign(std::vector<std::uint8_t>& bytes) {
  const std::size_t body = bytes.size() - 8;
  const std::uint64_t checksum =
      Fnv1a64(std::span<const std::uint8_t>(bytes.data(), body));
  for (int i = 0; i < 8; ++i) {
    bytes[body + i] = static_cast<std::uint8_t>(checksum >> (8 * i));
  }
}

TEST(CheckpointRejectionTest, ForeignFingerprintIsRejected) {
  const Scenario s = ChurnScenario();
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance instance = MakeInstance(s, inputs);
  StreamDriver saver(instance, s.config, inputs, s.sim, s.stream);
  saver.AdvanceWindow();
  const std::vector<std::uint8_t> bytes = saver.Checkpoint();

  // A driver with a different protocol seed must refuse the restore.
  SimOptions other = s.sim;
  other.seed = s.sim.seed + 1;
  StreamDriver wrong_seed(instance, s.config, inputs, other, s.stream);
  EXPECT_FALSE(wrong_seed.Restore(bytes));
  EXPECT_EQ(wrong_seed.windows_emitted(), 0u);

  // A different window grid changes the snapshot semantics: refused.
  StreamOptions other_stream = s.stream;
  other_stream.window_seconds = 3.0;
  StreamDriver wrong_grid(instance, s.config, inputs, s.sim, other_stream);
  EXPECT_FALSE(wrong_grid.Restore(bytes));

  // Every layer plan is part of the protocol identity: one differing
  // field of the routing, consistency or capacity plan is refused.
  SimOptions other_routing = s.sim;
  other_routing.routing.refresh_interval_seconds = 30.0;
  SimOptions other_consistency = s.sim;
  other_consistency.consistency.ttr_seconds = 30.0;
  SimOptions other_capacity = s.sim;
  other_capacity.capacity.window_seconds = 20.0;
  for (const SimOptions& options :
       {other_routing, other_consistency, other_capacity}) {
    StreamDriver wrong_plan(instance, s.config, inputs, options, s.stream);
    EXPECT_FALSE(wrong_plan.Restore(bytes));
    EXPECT_EQ(wrong_plan.windows_emitted(), 0u);
  }

  // Corruption is caught by the envelope before any field is decoded.
  std::vector<std::uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  StreamDriver pristine(instance, s.config, inputs, s.sim, s.stream);
  EXPECT_FALSE(pristine.Restore(flipped));
  EXPECT_EQ(pristine.windows_emitted(), 0u);
}

TEST(CheckpointRejectionTest, PreviousFormatVersionIsRejected) {
  // Version 3 payloads carried the legacy qid counter and retirement
  // scan in the engine core; version 4 moves the next qid into the
  // SimState section and drops the scan. Relabel a current checkpoint
  // as version 3 with a valid checksum, so the version field is the
  // only thing wrong with it: the restore must still refuse it rather
  // than misread the payload.
  const Scenario s = ChurnScenario();
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance instance = MakeInstance(s, inputs);
  StreamDriver saver(instance, s.config, inputs, s.sim, s.stream);
  saver.AdvanceWindow();
  std::vector<std::uint8_t> bytes = saver.Checkpoint();
  ASSERT_GE(bytes.size(), 6u + 8u + 8u);
  ASSERT_EQ(kStreamCheckpointVersion, 4);
  // Envelope: u32 magic | u16 version | u64 size | payload | u64 FNV-1a.
  EXPECT_EQ(bytes[4], 4);
  EXPECT_EQ(bytes[5], 0);
  bytes[4] = 3;
  Resign(bytes);
  // The relabelled envelope is well formed under its own version...
  EXPECT_TRUE(CheckpointReader::Open(bytes, kStreamCheckpointMagic, 3)
                  .has_value());
  // ...and refused by the current driver.
  StreamDriver restorer(instance, s.config, inputs, s.sim, s.stream);
  EXPECT_FALSE(restorer.Restore(bytes));
  EXPECT_EQ(restorer.windows_emitted(), 0u);
}

// Version-3 offsets: the envelope header (u32 magic, u16 version, u64
// payload size), the driver's "strm" section (tag and four u64), the
// simulator's "simu" section (tag, u8 engine marker, f64 clock), then
// the u64 pending-event count and the events, each f64 time | u64 seq |
// u32 kind | u32 node | u64 a | u64 b | f64 x.
constexpr std::size_t kEventCountOffset = 14 + 36 + 4 + 1 + 8;
constexpr std::size_t kFirstEventOffset = kEventCountOffset + 8;

std::uint64_t ReadU64(const std::vector<std::uint8_t>& bytes,
                      std::size_t offset) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

TEST(CheckpointRejectionTest, PendingEventsFailingTheValidatorAreRejected) {
  // Both engines run every restored event through one rule before it
  // reaches a queue. Patch one field of the first pending event of a
  // real checkpoint and re-sign the envelope: each patch alone must make
  // both engines refuse the restore.
  const Scenario s = ChurnScenario();
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance instance = MakeInstance(s, inputs);
  const struct {
    const char* what;
    std::size_t field;  // Byte offset within the event.
    std::uint32_t value;
  } patches[] = {
      {"node at TotalNodes()", 20,
       static_cast<std::uint32_t>(instance.TotalPartners() +
                                  instance.TotalClients())},
      // Event kinds are payload values; simulator.cc only appends kinds.
      {"kDigestRefresh with routing off", 16, 24},
      {"kAdaptRound without an adaptive plan", 16, 17},
  };
  for (const SimOptions& options :
       {s.sim, ShardedOptions(s, 2, 2)}) {
    SCOPED_TRACE(options.shards.enabled() ? "sharded" : "legacy");
    ASSERT_FALSE(options.routing.enabled());
    ASSERT_FALSE(options.adaptive.enabled());
    StreamDriver saver(instance, s.config, inputs, options, s.stream);
    saver.AdvanceWindow();
    const std::vector<std::uint8_t> bytes = saver.Checkpoint();
    // The offsets above still describe the payload, and the unpatched
    // checkpoint restores, so each refusal below is the patch's doing.
    ASSERT_GT(ReadU64(bytes, kEventCountOffset), 0u);
    const double first_time =
        std::bit_cast<double>(ReadU64(bytes, kFirstEventOffset));
    ASSERT_GE(first_time, saver.Now());
    ASSERT_LE(first_time, saver.Now() + 10 * s.stream.window_seconds);
    StreamDriver control(instance, s.config, inputs, options, s.stream);
    ASSERT_TRUE(control.Restore(bytes));
    for (const auto& patch : patches) {
      SCOPED_TRACE(patch.what);
      std::vector<std::uint8_t> patched = bytes;
      for (int i = 0; i < 4; ++i) {
        patched[kFirstEventOffset + patch.field + i] =
            static_cast<std::uint8_t>(patch.value >> (8 * i));
      }
      Resign(patched);
      StreamDriver restorer(instance, s.config, inputs, options, s.stream);
      EXPECT_FALSE(restorer.Restore(patched));
      EXPECT_EQ(restorer.windows_emitted(), 0u);
    }
  }
}

TEST(CheckpointRejectionTest, QidFarAboveTheNextQidIsRejected) {
  // Regression: a dense-backend restore used to size its slot arrays to
  // the largest qid a payload named, so a checkpoint naming qid 2^60
  // threw std::length_error out of Restore and ended the process. The
  // SimState section now carries the next qid, and every qid at or
  // above it — in the section or on a pending event — is refused.
  // Patch a real checkpoint in each place, re-sign it, and check the
  // restore fails cleanly and the refusing driver still works.
  const Scenario s = ChurnScenario();
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance instance = MakeInstance(s, inputs);
  constexpr std::uint64_t kHugeQid = std::uint64_t{1} << 60;
  constexpr std::size_t kEventBytes = 48;
  const auto put_u64 = [](std::vector<std::uint8_t>& bytes, std::size_t at,
                          std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  const auto refused = [&](const SimOptions& options,
                           std::vector<std::uint8_t> patched,
                           const std::vector<std::uint8_t>& intact) {
    Resign(patched);
    StreamDriver restorer(instance, s.config, inputs, options, s.stream);
    EXPECT_FALSE(restorer.Restore(patched));
    EXPECT_EQ(restorer.windows_emitted(), 0u);
    ASSERT_TRUE(restorer.Restore(intact));
    restorer.AdvanceWindow();
    EXPECT_EQ(restorer.windows_emitted(), 3u);
  };
  for (const SimOptions& options :
       {s.sim, ShardedOptions(s, 2, 2)}) {
    SCOPED_TRACE(options.shards.enabled() ? "sharded" : "legacy");
    StreamDriver saver(instance, s.config, inputs, options, s.stream);
    saver.AdvanceWindow();
    saver.AdvanceWindow();
    const std::vector<std::uint8_t> bytes = saver.Checkpoint();
    const std::uint64_t events = ReadU64(bytes, kEventCountOffset);

    // A pending event carrying a qid (a query, response or walk hop).
    std::size_t carrier = bytes.size();
    for (std::uint64_t i = 0; i < events && carrier == bytes.size(); ++i) {
      const std::size_t at = kFirstEventOffset + i * kEventBytes;
      const auto kind = static_cast<std::uint32_t>(ReadU64(bytes, at + 16));
      if (kind == 1 || kind == 2 || kind == 21) carrier = at;
    }
    ASSERT_LT(carrier, bytes.size());
    std::vector<std::uint8_t> patched = bytes;
    put_u64(patched, carrier + 24, kHugeQid);
    refused(options, patched, bytes);
    if (options.shards.enabled()) continue;

    // The first duplicate-table entry of the SimState section, which
    // follows the events, the queue's next sequence number, the
    // protocol RNG (four u64, f64, u8) and the latency sum: the "stat"
    // tag, then the floor, next qid, duplicate tally and cluster count,
    // then the entry count and the first entry's qid.
    const std::size_t tag =
        kFirstEventOffset + events * kEventBytes + 8 + 41 + 8;
    ASSERT_EQ(ReadU64(bytes, tag) & 0xffffffffu, 0x74617473u);
    const std::size_t next_qid = ReadU64(bytes, tag + 4 + 8);
    ASSERT_GT(ReadU64(bytes, tag + 4 + 32), 0u);
    ASSERT_LT(ReadU64(bytes, tag + 4 + 40), next_qid);
    patched = bytes;
    put_u64(patched, tag + 4 + 40, kHugeQid);
    refused(options, patched, bytes);
    // Raising the saved next qid along with it hits the window bound
    // instead: the restore still refuses rather than allocating.
    put_u64(patched, tag + 4 + 8, kHugeQid + 1);
    refused(options, patched, bytes);
  }
}

void PutU32At(std::vector<std::uint8_t>& bytes, std::size_t at,
              std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint32_t ReadU32(const std::vector<std::uint8_t>& bytes,
                      std::size_t offset) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

// Checks that `patched` (re-signed here) is refused by a fresh driver
// under `options`, and that the refusing driver still restores the
// intact checkpoint, cut after `cut` windows, and runs on.
void ExpectRefusedThenUsable(const Scenario& s,
                             const NetworkInstance& instance,
                             const SimOptions& options,
                             std::vector<std::uint8_t> patched,
                             const std::vector<std::uint8_t>& intact,
                             std::size_t cut) {
  Resign(patched);
  const ModelInputs inputs = ModelInputs::Default();
  StreamDriver restorer(instance, s.config, inputs, options, s.stream);
  EXPECT_FALSE(restorer.Restore(patched));
  EXPECT_EQ(restorer.windows_emitted(), 0u);
  ASSERT_TRUE(restorer.Restore(intact));
  restorer.AdvanceWindow();
  EXPECT_EQ(restorer.windows_emitted(), cut + 1);
}

TEST(CheckpointRejectionTest, FaultMembershipIdsOutOfRangeAreRejected) {
  // Regression: the fault section's client -> cluster ids and
  // membership lists were restored after a size check only, so a
  // checkpoint naming cluster 2^31 for one client restored, and that
  // client's next rejoin indexed the membership lists at 2^31. Patch
  // one id of a real checkpoint at a time, re-sign it, and check that
  // both engines refuse it and the refusing driver still works.
  const Scenario s = FaultScenario();
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance instance = MakeInstance(s, inputs);
  const std::uint64_t clients = instance.TotalClients();
  const std::uint64_t clusters = instance.NumClusters();
  for (const SimOptions& options : {s.sim, ShardedOptions(s, 2, 2)}) {
    SCOPED_TRACE(options.shards.enabled() ? "sharded" : "legacy");
    StreamDriver saver(instance, s.config, inputs, options, s.stream);
    saver.AdvanceWindow();
    saver.AdvanceWindow();
    const std::vector<std::uint8_t> bytes = saver.Checkpoint();
    // The client -> cluster vector: a u64 count of the clients, one u32
    // cluster id each, then the u64 count of membership lists.
    const std::size_t span = 8 + 4 * clients + 8;
    std::size_t current = bytes.size();
    for (std::size_t at = 0; at + span <= bytes.size(); ++at) {
      if (ReadU64(bytes, at) != clients ||
          ReadU64(bytes, at + span - 8) != clusters) {
        continue;
      }
      bool ids_in_range = true;
      for (std::uint64_t c = 0; c < clients && ids_in_range; ++c) {
        ids_in_range = ReadU32(bytes, at + 8 + 4 * c) < clusters;
      }
      if (!ids_in_range) continue;
      ASSERT_EQ(current, bytes.size()) << "two candidate vectors";
      current = at + 8;
    }
    ASSERT_LT(current, bytes.size());
    // Then the first membership list: its u64 length and member ids.
    const std::size_t first_list = current + 4 * clients + 8;
    ASSERT_GT(ReadU64(bytes, first_list), 0u);
    const std::uint32_t home = ReadU32(bytes, current);

    std::vector<std::uint8_t> patched = bytes;
    PutU32At(patched, current, std::uint32_t{1} << 31);
    ExpectRefusedThenUsable(s, instance, options, patched, bytes, 2);
    // In range, but not the list that holds the client.
    patched = bytes;
    PutU32At(patched, current,
             static_cast<std::uint32_t>((home + 1) % clusters));
    ExpectRefusedThenUsable(s, instance, options, patched, bytes, 2);
    // A member id naming no client.
    patched = bytes;
    PutU32At(patched, first_list + 8, static_cast<std::uint32_t>(clients));
    ExpectRefusedThenUsable(s, instance, options, patched, bytes, 2);
  }
}

TEST(CheckpointRejectionTest, AdaptiveIdsOutOfRangeAreRejected) {
  // The adaptation controller's restore checked vector sizes only, so
  // an out-of-range cluster slot or node id restored and was indexed in
  // the next decision round. Patch one id of a real mid-adaptation
  // checkpoint at a time, re-sign it, and check the restore refuses it
  // and the refusing driver still works.
  const Scenario s = AdaptiveScenario();
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance instance = MakeInstance(s, inputs);
  const std::uint64_t nodes =
      instance.TotalPartners() + instance.TotalClients();
  StreamDriver saver(instance, s.config, inputs, s.sim, s.stream);
  for (int w = 0; w < 3; ++w) saver.AdvanceWindow();
  const std::vector<std::uint8_t> bytes = saver.Checkpoint();
  // The controller section: the "adpt" tag, the rule II RNG (four u64,
  // f64, u8), then the node -> cluster slot ids (u64 count, u32 each),
  // the head flags (u64 count, u8 each) and the slot -> head node ids
  // (u64 count, u32 each).
  constexpr std::size_t kRngBytes = 41;
  std::size_t node_cluster = bytes.size();
  for (std::size_t at = 0; at + 4 + kRngBytes + 8 <= bytes.size(); ++at) {
    if (ReadU32(bytes, at) == 0x74706461u &&  // "adpt"
        ReadU64(bytes, at + 4 + kRngBytes) == nodes) {
      ASSERT_EQ(node_cluster, bytes.size()) << "two candidate sections";
      node_cluster = at + 4 + kRngBytes + 8;
    }
  }
  ASSERT_LT(node_cluster, bytes.size());
  const std::size_t head_count = node_cluster + 4 * nodes + 8 + nodes;
  ASSERT_GE(ReadU64(bytes, head_count), instance.NumClusters());

  std::vector<std::uint8_t> patched = bytes;
  PutU32At(patched, node_cluster, std::uint32_t{1} << 31);
  ExpectRefusedThenUsable(s, instance, s.sim, patched, bytes, 3);
  patched = bytes;
  PutU32At(patched, head_count + 8, static_cast<std::uint32_t>(nodes));
  ExpectRefusedThenUsable(s, instance, s.sim, patched, bytes, 3);
}

// ---- Sharded-discipline checkpoints --------------------------------
//
// The sharded payload is canonical — folded per-shard tallies, pending
// events merged in (time, seq) order, per-domain RNG streams and
// containers sorted by key — so the serialized bytes depend only
// on the simulated history, never on the (S, T) configuration that
// produced them. The tests below hold that to the strongest form:
// byte-identical checkpoints across writers, and restores portable
// across every shard/thread pairing.

struct ShardPair {
  std::size_t shards;
  std::size_t threads;
};

std::string PairLabel(const ShardPair& save, const ShardPair& resume) {
  std::string label = "S";
  label += std::to_string(save.shards);
  label += "T";
  label += std::to_string(save.threads);
  label += " -> S";
  label += std::to_string(resume.shards);
  label += "T";
  label += std::to_string(resume.threads);
  return label;
}

TEST(ShardedCheckpointTest, RestorePortableAcrossShardAndThreadCounts) {
  const Scenario s = FaultScenario();
  const StreamedRun uninterrupted =
      RunUninterrupted(s, ShardedOptions(s, 1, 1));
  const struct {
    ShardPair save;
    ShardPair resume;
  } pairings[] = {
      {{3, 2}, {1, 1}},  // parallel writer -> sequential reader
      {{1, 1}, {8, 8}},  // sequential writer -> wide parallel reader
      {{3, 2}, {8, 2}},  // parallel -> differently parallel
  };
  for (const auto& p : pairings) {
    SCOPED_TRACE(PairLabel(p.save, p.resume));
    ExpectEquivalent(
        uninterrupted,
        RunWithRestore(s, ShardedOptions(s, p.save.shards, p.save.threads),
                       ShardedOptions(s, p.resume.shards, p.resume.threads),
                       4));
  }
}

TEST(ShardedCheckpointTest, CheckpointBytesAreWriterInvariant) {
  // Not merely equivalent-after-restore: the serialized bytes
  // themselves, envelope included, must be identical no matter which
  // (S, T) writer produced them.
  const Scenario s = ChurnScenario();
  const std::size_t cut = 4;
  const auto bytes_for = [&](std::size_t shards, std::size_t threads) {
    const ModelInputs inputs = ModelInputs::Default();
    const NetworkInstance instance = MakeInstance(s, inputs);
    StreamDriver driver(instance, s.config, inputs,
                        ShardedOptions(s, shards, threads), s.stream);
    for (std::size_t w = 0; w < cut; ++w) driver.AdvanceWindow();
    return driver.Checkpoint();
  };
  const std::vector<std::uint8_t> reference = bytes_for(1, 1);
  // The SPCK envelope is unchanged by the sharded discipline: magic,
  // then the u16 version.
  ASSERT_GE(reference.size(), 6u);
  EXPECT_EQ(reference[0], 'S');
  EXPECT_EQ(reference[1], 'P');
  EXPECT_EQ(reference[2], 'C');
  EXPECT_EQ(reference[3], 'K');
  EXPECT_EQ(reference[4], 4);
  EXPECT_EQ(reference[5], 0);
  const ShardPair writers[] = {{2, 1}, {3, 2}, {8, 8}};
  for (const ShardPair& w : writers) {
    SCOPED_TRACE(PairLabel({1, 1}, w));
    const std::vector<std::uint8_t> actual = bytes_for(w.shards, w.threads);
    ASSERT_EQ(actual.size(), reference.size());
    std::size_t first_diff = reference.size();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (actual[i] != reference[i]) {
        first_diff = i;
        break;
      }
    }
    EXPECT_EQ(first_diff, reference.size())
        << "first differing byte at offset " << first_diff << ": "
        << static_cast<int>(actual[first_diff]) << " vs "
        << static_cast<int>(reference[first_diff]);
  }
}

TEST(ShardedCheckpointTest, MidCellCutRestoresBitIdentically) {
  // A 0.07 s lookahead makes every 6 s window boundary land inside an
  // open conservative cell (6 / 0.07 is not integral), so the
  // checkpoint is cut after a partial-cell drain: events below the
  // horizon executed and the outboxes merged, but the cell not yet
  // closed and its control drain still pending. The saved cell index
  // and pending events must reconstruct that exact mid-cell state.
  Scenario s = FaultScenario();
  s.sim.hop_latency_seconds = 0.07;
  const StreamedRun uninterrupted =
      RunUninterrupted(s, ShardedOptions(s, 1, 1));
  const struct {
    ShardPair save;
    ShardPair resume;
  } pairings[] = {
      {{3, 2}, {3, 2}},
      {{3, 2}, {1, 1}},
      {{1, 1}, {8, 2}},
  };
  for (const std::size_t cut : {std::size_t{1}, std::size_t{5}}) {
    for (const auto& p : pairings) {
      SCOPED_TRACE(PairLabel(p.save, p.resume) + " cut after window " +
                   std::to_string(cut));
      ExpectEquivalent(
          uninterrupted,
          RunWithRestore(s, ShardedOptions(s, p.save.shards, p.save.threads),
                         ShardedOptions(s, p.resume.shards, p.resume.threads),
                         cut));
    }
  }
}

TEST(ShardedCheckpointTest, EngineDisciplineMarkerRejectsCrossRestores) {
  // The sharded discipline threads its RNGs per domain, so its event
  // stream is deliberately distinct from the legacy engine's. The
  // stream fingerprint carries the discipline marker: a sharded
  // checkpoint never restores into a legacy driver, nor vice versa.
  const Scenario s = ChurnScenario();
  const ModelInputs inputs = ModelInputs::Default();
  const NetworkInstance instance = MakeInstance(s, inputs);

  StreamDriver sharded(instance, s.config, inputs, ShardedOptions(s, 2, 2),
                       s.stream);
  sharded.AdvanceWindow();
  const std::vector<std::uint8_t> sharded_bytes = sharded.Checkpoint();
  StreamDriver legacy(instance, s.config, inputs, s.sim, s.stream);
  EXPECT_FALSE(legacy.Restore(sharded_bytes));
  EXPECT_EQ(legacy.windows_emitted(), 0u);

  legacy.AdvanceWindow();
  const std::vector<std::uint8_t> legacy_bytes = legacy.Checkpoint();
  StreamDriver sharded_reader(instance, s.config, inputs,
                              ShardedOptions(s, 2, 2), s.stream);
  EXPECT_FALSE(sharded_reader.Restore(legacy_bytes));
  EXPECT_EQ(sharded_reader.windows_emitted(), 0u);
}

TEST(CheckpointParallelismTest, StreamTrialsBitIdenticalAcrossParallelism) {
  // The windowed trial runner folds window-major in trial order: per-
  // window totals, per-trial digests and the merged registry must be
  // bit-identical across parallelism 1, 2 and 8.
  Configuration config;
  config.graph_size = 300;
  config.cluster_size = 10.0;
  config.redundancy = true;
  config.ttl = 4;
  config.avg_outdegree = 4.0;
  const ModelInputs inputs = ModelInputs::Default();

  const auto run = [&](std::size_t parallelism) {
    StreamTrialOptions options;
    options.num_trials = 4;
    options.seed = 77;
    options.parallelism = parallelism;
    options.num_windows = 6;
    options.sim.duration_seconds = 24.0;
    options.sim.warmup_seconds = 12.0;
    options.sim.churn.enable = true;
    options.stream.window_seconds = 6.0;
    return RunStreamTrials(config, inputs, options);
  };

  const StreamTrialReport reference = run(1);
  ASSERT_EQ(reference.snapshot_digests.size(), 4u);
  for (const std::size_t parallelism : {2u, 8u}) {
    SCOPED_TRACE(std::string("parallelism ") + std::to_string(parallelism));
    const StreamTrialReport report = run(parallelism);
    EXPECT_EQ(report.snapshot_digests, reference.snapshot_digests);
    EXPECT_EQ(report.window_events, reference.window_events);
    EXPECT_EQ(report.window_queries, reference.window_queries);
    EXPECT_EQ(report.queries_submitted, reference.queries_submitted);
    EXPECT_EQ(report.responses_delivered, reference.responses_delivered);
  }
}

}  // namespace
}  // namespace sppnet
