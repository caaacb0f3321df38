#include "sppnet/sim/stream.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sppnet/common/check.h"
#include "sppnet/common/rng.h"
#include "sppnet/common/trial_runner.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/sim/faults.h"

namespace sppnet {
namespace {

// Section tag of the driver's own checkpoint section ("strm").
constexpr std::uint32_t kStreamTag = 0x6d727473u;

/// Engine-internal instruments: included in snapshot exports, excluded
/// from every equivalence digest (the ProtocolMetricsJson contract —
/// calendar statistics and backend footprints legitimately differ
/// across engines, backends, and checkpoint restores).
bool EngineInternal(std::string_view name) {
  return name.starts_with("sim.queue.") || name.starts_with("sim.state.");
}

std::uint64_t MixString(std::uint64_t state, std::string_view s) {
  state = Fnv1aMix64(state, s.size());
  return Fnv1a64(
      std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()),
      state);
}

}  // namespace

void StreamOptions::Validate() const {
  SPPNET_CHECK_MSG(std::isfinite(window_seconds) && window_seconds > 0.0,
                   "stream window must be finite and > 0");
}

QueryTraceParse ParseQueryTrace(std::string_view text) {
  QueryTraceParse result;
  std::vector<TraceQuery>& out = result.queries;
  const auto fail = [&result](std::size_t line, const char* what) {
    result.queries.clear();
    result.error = what;
    result.error_line = line;
    return result;
  };
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    ++line_no;
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() &&
           (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    const std::string buf(line);
    char* after_time = nullptr;
    const double time = std::strtod(buf.c_str(), &after_time);
    char* after_user = nullptr;
    const unsigned long long user =
        std::strtoull(after_time, &after_user, 10);
    const bool parsed = after_time != buf.c_str() && after_user != after_time &&
                        *after_user == '\0';
    if (!parsed) return fail(line_no, "trace line is not \"time user\"");
    if (!std::isfinite(time) || time < 0.0) {
      return fail(line_no, "trace time must be finite and >= 0");
    }
    if (!out.empty() && time < out.back().time) {
      return fail(line_no, "trace times must be nondecreasing");
    }
    if (user > 0xffffffffull) {
      return fail(line_no, "trace user does not fit u32");
    }
    out.push_back(TraceQuery{time, static_cast<std::uint32_t>(user)});
  }
  return result;
}

StreamDriver::StreamDriver(const NetworkInstance& instance,
                           const Configuration& config,
                           const ModelInputs& inputs,
                           const SimOptions& sim_options,
                           const StreamOptions& stream_options)
    : instance_(instance),
      config_(config),
      inputs_(inputs),
      sim_options_(sim_options),
      stream_options_(stream_options) {
  stream_options_.Validate();
  RebuildSimulator();
  sim_->Start();
}

StreamDriver::~StreamDriver() = default;

void StreamDriver::RebuildSimulator() {
  sim_ = std::make_unique<Simulator>(instance_, config_, inputs_,
                                     sim_options_);
}

void StreamDriver::FeedTrace(std::span<const TraceQuery> queries) {
  SPPNET_CHECK_MSG(!finished_, "FeedTrace() after Finish()");
  const double window_floor = static_cast<double>(windows_emitted_) *
                              stream_options_.window_seconds;
  for (const TraceQuery& q : queries) {
    SPPNET_CHECK_MSG(q.time >= window_floor,
                     "trace query predates the current window");
    sim_->InjectQueryAt(q.time, q.user);
  }
}

StreamSnapshot StreamDriver::AdvanceWindow() {
  SPPNET_CHECK_MSG(!finished_, "AdvanceWindow() after Finish()");
  StreamSnapshot snap;
  snap.window_index = windows_emitted_;
  snap.window_start = static_cast<double>(windows_emitted_) *
                      stream_options_.window_seconds;
  const double window_end = static_cast<double>(windows_emitted_ + 1) *
                            stream_options_.window_seconds;
  snap.window_end = window_end;
  sim_->RunUntil(window_end);

  MetricsRegistry scratch;
  sim_->PublishCumulativeMetrics(scratch);
  const auto cumulative = scratch.CounterValues();
  std::vector<std::pair<std::string, std::uint64_t>> current(
      cumulative.begin(), cumulative.end());
  // Both lists are name-sorted; a single merge walk finds each
  // counter's previous value (0 for instruments that first appear in
  // this window — the surface only grows as layers activate).
  std::size_t pi = 0;
  snap.counter_deltas.reserve(current.size());
  for (const auto& [name, value] : current) {
    while (pi < prev_counters_.size() && prev_counters_[pi].first < name) {
      ++pi;
    }
    std::uint64_t prev = 0;
    if (pi < prev_counters_.size() && prev_counters_[pi].first == name) {
      prev = prev_counters_[pi].second;
    }
    SPPNET_CHECK_MSG(value >= prev,
                     "cumulative counters are monotone within a run");
    snap.counter_deltas.emplace_back(name, value - prev);
  }
  prev_counters_ = std::move(current);
  for (const auto& [name, gauge] : scratch.gauges()) {
    snap.gauges.emplace_back(name, gauge.value());
  }

  const std::uint64_t dispatched = sim_->events_dispatched();
  snap.events_dispatched_delta = dispatched - last_events_dispatched_;
  last_events_dispatched_ = dispatched;
  ++windows_emitted_;

  // Fold the protocol-relevant snapshot content into the running
  // digest (gauges and engine internals excluded — see StreamSnapshot).
  std::uint64_t d = snapshot_digest_;
  d = Fnv1aMix64(d, snap.window_index);
  d = Fnv1aMix64(d, std::bit_cast<std::uint64_t>(snap.window_end));
  d = Fnv1aMix64(d, snap.events_dispatched_delta);
  for (const auto& [name, delta] : snap.counter_deltas) {
    if (EngineInternal(name)) continue;
    d = MixString(d, name);
    d = Fnv1aMix64(d, delta);
  }
  snapshot_digest_ = d;
  return snap;
}

SimReport StreamDriver::Finish() {
  SPPNET_CHECK_MSG(!finished_, "Finish() called twice");
  SPPNET_CHECK_MSG(windows_emitted_ > 0, "Finish() requires >= 1 window");
  finished_ = true;
  const double end_time = static_cast<double>(windows_emitted_) *
                          stream_options_.window_seconds;
  return sim_->Finalize(end_time);
}

std::uint64_t StreamDriver::Fingerprint() const {
  std::uint64_t h = kFnv1aOffset;
  const auto mix = [&h](std::uint64_t v) { h = Fnv1aMix64(h, v); };
  const auto mixd = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  // Simulation identity.
  mix(sim_options_.seed);
  mixd(sim_options_.duration_seconds);
  mixd(sim_options_.warmup_seconds);
  mixd(sim_options_.hop_latency_seconds);
  mix(static_cast<std::uint64_t>(sim_options_.strategy));
  mix(sim_options_.churn.enable ? 1 : 0);
  mixd(sim_options_.churn.partner_recovery_seconds);
  mix(sim_options_.ring_satisfaction_results);
  mix(sim_options_.num_walkers);
  mix(sim_options_.walk_ttl);
  // Engine discipline: a sharded-run checkpoint only restores into a
  // sharded simulator (any shard/thread count — the payload is
  // canonical), never into a legacy one, and vice versa.
  mix(sim_options_.shards.enabled() ? 1 : 0);
  // Fault plan.
  const FaultPlan& f = sim_options_.faults;
  mixd(f.crash_rate_per_partner);
  mixd(f.crash_recovery_seconds);
  mixd(f.message_drop_probability);
  mixd(f.max_delay_jitter_seconds);
  mixd(f.request_timeout_seconds);
  mix(static_cast<std::uint64_t>(f.max_retries));
  mixd(f.backoff_base_seconds);
  mixd(f.backoff_factor);
  mixd(f.backoff_cap_seconds);
  // Adaptation plan.
  mixd(sim_options_.adaptive.probe_interval_seconds);
  mixd(sim_options_.adaptive.decision_interval_seconds);
  mixd(sim_options_.adaptive.policy.max_bandwidth_bps);
  mixd(sim_options_.adaptive.policy.max_proc_hz);
  mixd(sim_options_.adaptive.policy.low_utilization);
  mixd(sim_options_.adaptive.policy.suggested_outdegree);
  // Routing plan.
  const RoutingOptions& ro = sim_options_.routing;
  mix(ro.enable ? 1 : 0);
  mix(ro.digest_bits);
  mix(ro.num_hashes);
  mix(ro.radius);
  mixd(ro.refresh_interval_seconds);
  // Consistency plan.
  const ConsistencyPlan& co = sim_options_.consistency;
  mixd(co.change_rate_per_client);
  mix(static_cast<std::uint64_t>(co.scheme));
  mixd(co.ttr_seconds);
  mix(co.replication.owner_replication ? 1 : 0);
  mix(co.replication.path_replication ? 1 : 0);
  mix(co.replication.replication_factor);
  mix(co.replication.max_records_per_push);
  // Capacity plan, including the class mixture the capacities are
  // sampled from.
  const CapacityPlan& ca = sim_options_.capacity;
  mix(ca.enable ? 1 : 0);
  mixd(ca.window_seconds);
  mixd(ca.overload_utilization);
  mix(ca.capacity_aware_election ? 1 : 0);
  mix(ca.demote_overloaded ? 1 : 0);
  mix(ca.distribution.classes().size());
  for (const CapacityDistribution::Class& c : ca.distribution.classes()) {
    mixd(c.fraction);
    mixd(c.capacity.down_bps);
    mixd(c.capacity.up_bps);
    mixd(c.capacity.proc_hz);
  }
  // Workload and instance shape (the engine and state backend are
  // deliberately NOT mixed: checkpoints are portable across them).
  mix(static_cast<std::uint64_t>(config_.ttl));
  mixd(config_.query_rate);
  mixd(config_.update_rate);
  mix(instance_.NumClusters());
  mix(instance_.TotalPartners());
  mix(instance_.TotalClients());
  mix(static_cast<std::uint64_t>(instance_.redundancy_k));
  // Window grid.
  mixd(stream_options_.window_seconds);
  return h;
}

std::vector<std::uint8_t> StreamDriver::Checkpoint() const {
  SPPNET_CHECK_MSG(!finished_, "Checkpoint() after Finish()");
  CheckpointWriter w(kStreamCheckpointMagic, kStreamCheckpointVersion);
  w.BeginSection(kStreamTag);
  w.PutU64(Fingerprint());
  w.PutU64(windows_emitted_);
  w.PutU64(last_events_dispatched_);
  w.PutU64(snapshot_digest_);
  sim_->SaveState(w);
  return w.Finish();
}

bool StreamDriver::Restore(std::span<const std::uint8_t> bytes) {
  std::optional<CheckpointReader> opened = CheckpointReader::Open(
      bytes, kStreamCheckpointMagic, kStreamCheckpointVersion);
  if (!opened.has_value()) return false;
  CheckpointReader r = *opened;
  if (!r.BeginSection(kStreamTag)) return false;
  if (r.GetU64() != Fingerprint()) return false;
  const std::uint64_t windows = r.GetU64();
  const std::uint64_t last_dispatched = r.GetU64();
  const std::uint64_t digest = r.GetU64();
  if (!r.ok()) return false;
  auto sim =
      std::make_unique<Simulator>(instance_, config_, inputs_, sim_options_);
  if (!sim->LoadState(r) || !r.ok() || !r.AtEnd()) return false;
  // Checkpoints are cut at window boundaries, so the saved dispatch
  // count must match the simulator's own restored tally.
  if (sim->events_dispatched() != last_dispatched) return false;
  sim_ = std::move(sim);
  windows_emitted_ = windows;
  last_events_dispatched_ = last_dispatched;
  snapshot_digest_ = digest;
  finished_ = false;
  // Rebase the delta baseline on the restored cumulative surface. The
  // protocol counters restore bit-exactly; the engine-internal ones
  // restart from the fresh engine's own statistics, and rebasing here
  // keeps their subsequent deltas internally consistent.
  MetricsRegistry scratch;
  sim_->PublishCumulativeMetrics(scratch);
  const auto cumulative = scratch.CounterValues();
  prev_counters_.assign(cumulative.begin(), cumulative.end());
  return true;
}

double StreamDriver::Now() const { return sim_->Now(); }

std::uint64_t StreamDriver::events_dispatched() const {
  return sim_->events_dispatched();
}

double StreamDriver::effective_retention_seconds() const {
  return sim_->longest_query_lifetime_seconds();
}

namespace {

/// Everything one streamed trial contributes.
struct StreamTrialObservation {
  std::vector<StreamSnapshot> snapshots;
  SimReport report;
  std::uint64_t digest = 0;
  std::unique_ptr<MetricsRegistry> metrics;
};

StreamTrialObservation RunOneStreamTrial(const Configuration& config,
                                         const ModelInputs& inputs,
                                         Rng trial_rng,
                                         const StreamTrialOptions& options) {
  // Identical derivation to sim_trials.cc: the instance stream and the
  // simulation seed both come from the pre-split trial stream.
  const std::uint64_t sim_seed = trial_rng.NextUint64();
  const NetworkInstance instance = GenerateInstance(config, inputs, trial_rng);

  StreamTrialObservation obs;
  obs.metrics = std::make_unique<MetricsRegistry>();
  SimOptions sim_options = options.sim;
  sim_options.seed = sim_seed;
  sim_options.metrics = obs.metrics.get();
  StreamDriver driver(instance, config, inputs, sim_options, options.stream);
  obs.snapshots.reserve(options.num_windows);
  for (std::size_t w = 0; w < options.num_windows; ++w) {
    obs.snapshots.push_back(driver.AdvanceWindow());
  }
  obs.report = driver.Finish();
  obs.digest = driver.snapshot_digest();
  return obs;
}

}  // namespace

StreamTrialReport RunStreamTrials(const Configuration& config,
                                  const ModelInputs& inputs,
                                  const StreamTrialOptions& options) {
  options.sim.Validate();
  options.stream.Validate();
  SPPNET_CHECK_MSG(options.num_windows >= 1, "need at least one window");

  TrialRunnerOptions runner;
  runner.num_trials = options.num_trials;
  runner.seed = options.seed;
  runner.parallelism = options.parallelism;

  StreamTrialReport report;
  report.trials = options.num_trials;
  report.windows = options.num_windows;
  report.window_events.assign(options.num_windows, 0);
  report.window_queries.assign(options.num_windows, 0);

  std::vector<std::vector<StreamSnapshot>> per_trial_windows(
      options.num_trials);
  const auto fold = [&](StreamTrialObservation obs, std::size_t trial) {
    if (options.metrics != nullptr) {
      options.metrics->GetCounter("stream_trials.completed").Increment();
      options.metrics->MergeFrom(*obs.metrics);
    }
    report.snapshot_digests.push_back(obs.digest);
    report.queries_submitted += obs.report.queries_submitted;
    report.responses_delivered += obs.report.responses_delivered;
    per_trial_windows[trial] = std::move(obs.snapshots);
  };
  RunTrialLoop(
      runner,
      [&](Rng trial_rng, std::size_t) {
        return RunOneStreamTrial(config, inputs, trial_rng, options);
      },
      fold);

  FoldWindows(std::move(per_trial_windows),
              [&](StreamSnapshot snap, std::size_t window, std::size_t) {
                report.window_events[window] += snap.events_dispatched_delta;
                for (const auto& [name, delta] : snap.counter_deltas) {
                  if (name == "sim.queries.submitted") {
                    report.window_queries[window] += delta;
                  }
                }
              });
  return report;
}

}  // namespace sppnet
