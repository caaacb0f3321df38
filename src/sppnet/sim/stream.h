#ifndef SPPNET_SIM_STREAM_H_
#define SPPNET_SIM_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sppnet/io/checkpoint.h"
#include "sppnet/model/config.h"
#include "sppnet/model/instance.h"
#include "sppnet/sim/simulator.h"

namespace sppnet {

class MetricsRegistry;

/// Envelope identity of a stream checkpoint ("SPCK"); rejected by
/// CheckpointReader::Open on any mismatch.
inline constexpr std::uint32_t kStreamCheckpointMagic = 0x4b435053u;
inline constexpr std::uint16_t kStreamCheckpointVersion = 4;

/// Options of the streaming serving layer on top of the simulator.
/// Per-query state needs no option: the simulator retires each query
/// the moment no pending event can reach it any more (DESIGN.md §11),
/// so resident memory stays flat on an unbounded run by itself.
struct StreamOptions {
  /// Simulated seconds per metric window (one snapshot per window).
  double window_seconds = 30.0;

  /// Aborts (SPPNET_CHECK) on a non-positive or non-finite window.
  void Validate() const;
};

/// One windowed metric snapshot: the delta of every published counter
/// over [window_start, window_end), plus the cumulative gauges at the
/// window boundary. Counter deltas are name-ordered; engine-internal
/// instruments (sim.queue.*, sim.state.*) are included in the export
/// but excluded from the equivalence digest, mirroring the
/// ProtocolMetricsJson contract.
struct StreamSnapshot {
  std::uint64_t window_index = 0;
  double window_start = 0.0;
  double window_end = 0.0;
  /// Events dispatched within the window (whole-run instrument: counts
  /// warmup activity too, unlike the sim.* counters).
  std::uint64_t events_dispatched_delta = 0;
  /// Name-ordered per-window counter increments.
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
  /// Name-ordered cumulative gauge values at window_end. Footprint
  /// gauges (scratch bytes, bucket counts) are engine- and
  /// toolchain-dependent; never digested.
  std::vector<std::pair<std::string, double>> gauges;
};

/// One externally fed query submission (trace replay).
struct TraceQuery {
  double time = 0.0;
  std::uint32_t user = 0;
};

/// Outcome of ParseQueryTrace: every query of a well-formed trace, or
/// the first malformed line and what is wrong with it.
struct QueryTraceParse {
  std::vector<TraceQuery> queries;  ///< Empty when !ok().
  std::string error;                ///< Empty on success.
  std::size_t error_line = 0;       ///< 1-based; 0 on success.

  bool ok() const { return error.empty(); }
};

/// Parses a textual query trace: one "time user" pair per line,
/// whitespace-separated; blank lines and lines starting with '#' are
/// skipped. A trace is untrusted input, so a malformed line, a
/// non-finite, negative or descending time, or a user id wider than 32
/// bits is reported in the result rather than aborting.
QueryTraceParse ParseQueryTrace(std::string_view text);

/// Streaming serving layer over one simulator run: ingests an unbounded
/// generated (and/or trace-fed) event stream window by window, emits a
/// StreamSnapshot per window, and checkpoints/restores the full
/// simulator state in the proto/ length-framed discipline. Per-query
/// state retires inside the simulator, exactly when each query ends.
///
/// Determinism contract: the snapshot sequence, the running snapshot
/// digest and the final report are bit-identical to the batch Run()
/// path for every protocol-relevant observable — restoring a checkpoint
/// taken after window k and streaming on yields byte-identical
/// snapshots k+1, k+2, ... across engines, state backends and
/// parallelism (tests/sim/checkpoint_test.cc pins this).
class StreamDriver {
 public:
  /// Builds and Start()s the underlying simulator. The instance,
  /// config and inputs are copied: Restore() rebuilds the simulator
  /// from them. `sim_options.metrics`, when set, receives the final
  /// cumulative publish at Finish(), exactly like batch Run().
  StreamDriver(const NetworkInstance& instance, const Configuration& config,
               const ModelInputs& inputs, const SimOptions& sim_options,
               const StreamOptions& stream_options);
  ~StreamDriver();

  StreamDriver(const StreamDriver&) = delete;
  StreamDriver& operator=(const StreamDriver&) = delete;

  /// Schedules trace queries for future injection. Times must be >= the
  /// current window boundary (aborts otherwise); queries run the normal
  /// submission path when their time arrives.
  void FeedTrace(std::span<const TraceQuery> queries);

  /// Dispatches all events of the next window and returns its snapshot.
  /// Folds the snapshot into the running digest.
  StreamSnapshot AdvanceWindow();

  /// Finalizes the run at the last emitted window boundary and returns
  /// the report. When that boundary equals warmup + duration the report
  /// is bit-identical to batch Run(). At most once; no windows may be
  /// advanced afterwards. Requires >= 1 emitted window.
  SimReport Finish();

  /// Serializes the driver + full simulator state into a checksummed
  /// "SPCK" envelope. Callable between windows of a started, unfinished
  /// run.
  std::vector<std::uint8_t> Checkpoint() const;

  /// Restores from a Checkpoint() buffer into this driver, replacing
  /// the current simulator with one resumed at the checkpointed window.
  /// The checkpoint must come from a scenario with the same protocol
  /// fingerprint (instance shape, seed, plans, window grid); the engine
  /// and state backend of the saving driver may differ from this one.
  /// Returns false (driver unchanged) on any mismatch or corruption.
  bool Restore(std::span<const std::uint8_t> bytes);

  std::uint64_t windows_emitted() const { return windows_emitted_; }
  /// FNV-1a digest over every emitted snapshot's protocol-relevant
  /// content (window index/boundary, events delta, filtered counter
  /// deltas). The resume-equivalence tests compare this across
  /// checkpoint cuts, engines and backends.
  std::uint64_t snapshot_digest() const { return snapshot_digest_; }
  /// Simulation clock of the underlying simulator (last dispatch time).
  double Now() const;
  std::uint64_t events_dispatched() const;
  /// How long per-query state was actually retained: the longest
  /// submit-to-retire span of any query retired so far, in simulated
  /// seconds (Simulator::longest_query_lifetime_seconds; a restored
  /// driver measures from its restore on).
  double effective_retention_seconds() const;

 private:
  std::uint64_t Fingerprint() const;
  void RebuildSimulator();

  NetworkInstance instance_;
  Configuration config_;
  ModelInputs inputs_;
  SimOptions sim_options_;
  StreamOptions stream_options_;

  std::unique_ptr<Simulator> sim_;
  std::uint64_t windows_emitted_ = 0;
  std::uint64_t last_events_dispatched_ = 0;
  std::vector<std::pair<std::string, std::uint64_t>> prev_counters_;
  std::uint64_t snapshot_digest_ = kFnv1aOffset;
  bool finished_ = false;
};

/// Options for repeated streamed runs over fresh instances of one
/// configuration — the streaming mirror of SimTrialOptions. Each trial
/// advances exactly `num_windows` windows and finalizes at the last
/// boundary.
struct StreamTrialOptions {
  std::size_t num_trials = 4;
  std::uint64_t seed = 42;
  /// Worker threads; the folded report (per-window totals, per-trial
  /// digests, merged metrics) is bit-identical to the serial run
  /// regardless of the value (common/trial_runner.h contract).
  std::size_t parallelism = 1;
  std::size_t num_windows = 4;
  /// Per-trial simulation options; `sim.seed` and `sim.metrics` are
  /// overwritten per trial like SimTrialOptions.
  SimOptions sim;
  StreamOptions stream;
  /// Optional sink for the folded per-trial cumulative instruments.
  /// Not owned.
  MetricsRegistry* metrics = nullptr;
};

/// Cross-trial summary of a windowed streaming experiment.
struct StreamTrialReport {
  std::size_t trials = 0;
  std::size_t windows = 0;
  /// Events dispatched per window, summed across trials (folded
  /// window-major via FoldWindows).
  std::vector<std::uint64_t> window_events;
  /// sim.queries.submitted per window, summed across trials.
  std::vector<std::uint64_t> window_queries;
  /// Per-trial snapshot digests, in trial order.
  std::vector<std::uint64_t> snapshot_digests;
  std::uint64_t queries_submitted = 0;
  std::uint64_t responses_delivered = 0;
};

/// Runs `options.num_trials` generate-and-stream rounds and folds the
/// windowed snapshots window-major (trial-minor). Deterministic in
/// (config, inputs, options): bit-identical across parallelism.
StreamTrialReport RunStreamTrials(const Configuration& config,
                                  const ModelInputs& inputs,
                                  const StreamTrialOptions& options);

}  // namespace sppnet

#endif  // SPPNET_SIM_STREAM_H_
