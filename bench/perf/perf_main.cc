// sppnet_perf: the repository's performance benchmark. One invocation
// runs one fixed workload through the library's public API and prints
// its metrics as a 3-significant-figure table followed by one JSON line.
//
//   sppnet_perf --workload <flood_1e5|sharded_1e5|serve_1e4|eval_1e5>
//               [--seed S] [--trace]
//
// Without --trace the run reports the end-to-end metrics. With --trace
// it also records spans around every public call (written to
// PERF_TRACE_<workload>.jsonl at exit) and runs the per-layer probes:
// the queue and state kernels, the sharded S1T1 reference, the restore
// and index timings. Spans do not change what runs, so the digest of a
// traced run equals the untraced one. Every run checks its outputs (see
// bench/perf/README.md); a failed check exits nonzero and counts every
// operation as failed.
//
// Every workload is a closed batch of fixed work, timed in segments
// (0.5-simulated-second RunUntil slices, which the streaming contract
// makes bit-identical to one call; stream windows). Each timed call
// shorter than 2 s is followed by the host-speed probe below and
// reported scaled to the reference host speed. Each workload runs a
// fixed number of batches, each from a fresh, untimed set-up; run_s
// sums each segment's fastest time over the batches, and every batch
// must reproduce the first batch's digest.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "sppnet/common/check.h"
#include "sppnet/common/rng.h"
#include "sppnet/index/routing_index.h"
#include "sppnet/io/checkpoint.h"
#include "sppnet/io/json.h"
#include "sppnet/model/config.h"
#include "sppnet/model/evaluator.h"
#include "sppnet/model/instance.h"
#include "sppnet/model/load.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/sim/event_queue.h"
#include "sppnet/sim/sim_state.h"
#include "sppnet/sim/simulator.h"
#include "sppnet/sim/stream.h"

namespace sppnet::perf {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Set-up is repeated this many times per run; setup_s is the median.
// One set-up takes ~0.1 s, short enough for a burst of host load to
// move it 20 %; with 5 repetitions the medians of two sets of ten runs
// differed by up to 20 %.
constexpr int kSetupReps = 15;

// Batches of the timed phase per run, fixed per workload so that every
// binary and every host is judged by the same estimator. Together they
// take about 14 s on the reference host (BENCHMARK.json's run_seconds):
// flood_1e5 ~6 s per batch; sharded_1e5 ~20 s, serve_1e4 ~16 s and
// eval_1e5 ~12 s for one.
constexpr int kFloodBatches = 3;
constexpr int kShardedBatches = 1;
constexpr int kServeBatches = 1;
constexpr int kEvalBatches = 1;

// --- Statistics ----------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double Pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const auto n = static_cast<double>(x.size());
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  return sxx > 0.0 && syy > 0.0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

// --- Spans ---------------------------------------------------------------

/// In-memory span recorder. Spans are recorded only when tracing is on;
/// Time() always returns the wall seconds of the call it wraps, so the
/// untraced and traced runs share one timing path.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Runs fn() as span `name`, a child of the innermost open span.
  template <typename Fn>
  double Time(std::string_view name, Fn&& fn) {
    std::size_t id = 0;
    if (enabled_) {
      id = spans_.size();
      spans_.push_back({std::string(name), 0.0, 0.0,
                        stack_.empty() ? -1 : stack_.back(), {}});
      stack_.push_back(static_cast<long>(id));
    }
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (enabled_) {
      spans_[id].start = Seconds(origin_, t0);
      spans_[id].end = Seconds(origin_, t1);
      stack_.pop_back();
      last_closed_ = id;
    }
    return Seconds(t0, t1);
  }

  /// Attaches a value (a work count, the probe-scaled seconds) to the
  /// span closed last.
  void Annotate(std::string_view key, double value) {
    if (enabled_ && !spans_.empty()) {
      spans_[last_closed_].attrs.emplace_back(std::string(key), value);
    }
  }

  /// One JSON object per line: id, parent (-1 for roots), name,
  /// start_s/end_s from process start, then the span's annotations.
  bool Write(const std::string& path) const {
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonWriter w(os, 0);
      w.BeginObject();
      w.Key("id").Number(static_cast<std::uint64_t>(i));
      w.Key("parent").Number(static_cast<std::int64_t>(s.parent));
      w.Key("name").String(s.name);
      w.Key("start_s").Number(s.start);
      w.Key("end_s").Number(s.end);
      for (const auto& [key, value] : s.attrs) w.Key(key).Number(value);
      w.EndObject();
      os << '\n';
    }
    return static_cast<bool>(os);
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    long parent;
    std::vector<std::pair<std::string, double>> attrs;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<long> stack_;
  std::size_t last_closed_ = 0;
};

// --- Host-speed probe ------------------------------------------------------

/// A fixed probe of how fast the host runs this process right now:
/// linear-probing inserts and lookups in an L2-resident table, branchy
/// integer work like the simulator's dispatch, independent of the
/// library. On a shared host other tenants slow every core by 10-40 %
/// for minutes at a time, and the probe slows with them, so a segment
/// timed right before a probe is reported at the reference host speed:
/// wall x kReferenceSeconds / probe. In the 10-seed measurements behind
/// the benchmark's bounds this cut the spread of the simulator
/// workloads' run_s from 10-39 % to 3-14 %; run_wall_s keeps the
/// unscaled wall time.
class HostProbe {
 public:
  /// The probe's time on an idle 4-vCPU Intel Xeon VM (105 MiB L3), the
  /// host the benchmark's bounds were set on.
  static constexpr double kReferenceSeconds = 1.2e-3;

  /// Calls longer than this keep their wall time: a probe after a long
  /// call does not see the host speed during it (for eval_1e5's single
  /// 10 s call, scaling widened the spread between runs).
  static constexpr double kMaxScaledSeconds = 2.0;

  /// Runs the probe and returns `wall` scaled to the reference host
  /// speed; returns a long call's `wall` unchanged.
  double Scale(double wall) {
    if (wall > kMaxScaledSeconds) return wall;
    const double probe = Run();
    probes_.push_back(probe);
    return wall * kReferenceSeconds / probe;
  }

  /// Median probe seconds over the run: the host speed it saw.
  double MedianSeconds() const { return Median(probes_); }

 private:
  double Run() {
    // The table is cleared (and so brought back into cache) before the
    // clock starts, so how much of it the measured call evicted does
    // not show in the probe time.
    std::fill(table_.begin(), table_.end(), 0);
    const Clock::time_point t0 = Clock::now();
    for (int k = 1; k <= kOps; ++k) {
      state_ ^= state_ << 13;
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
      std::size_t slot = (state_ * 0x9e3779b97f4a7c15ull) >> 49;
      while (table_[slot] != 0 && table_[slot] != state_) {
        slot = (slot + 1) & (table_.size() - 1);
      }
      if ((state_ & 3) == 0) table_[slot] = state_;
      if ((k & 4095) == 0) std::fill(table_.begin(), table_.end(), 0);
    }
    return Seconds(t0, Clock::now());
  }

  static constexpr int kOps = 200000;
  std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(1u << 15);
  std::uint64_t state_ = 0x2545f4914f6cdd1dull;
  std::vector<double> probes_;
};

/// One timed call.
struct Timing {
  double wall = 0.0;  ///< Wall seconds.
  double norm = 0.0;  ///< Wall seconds at the reference host speed.
};

// --- Result --------------------------------------------------------------

struct Result {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t digest = kFnv1aOffset;
  std::uint64_t ops_total = 0;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Count(std::string name, double value) {
    Add(std::move(name), value, "count");
  }
  void Check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
  bool AllChecksPass() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
  }
};

// --- Byte images for digests and bitwise comparisons ---------------------

template <typename T>
void AppendRaw(std::vector<std::uint8_t>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

void AppendLoads(std::vector<std::uint8_t>& out,
                 const std::vector<LoadVector>& loads) {
  for (const LoadVector& l : loads) {
    AppendRaw(out, l.in_bps);
    AppendRaw(out, l.out_bps);
    AppendRaw(out, l.proc_hz);
  }
}

/// Every engine-independent SimReport field the benchmark workloads
/// populate (flood, churn, faults, routing, capacity), so two reports
/// are bitwise equal exactly when their images are.
std::vector<std::uint8_t> ReportImage(const SimReport& r) {
  std::vector<std::uint8_t> out;
  for (const std::uint64_t v :
       {r.events_scheduled, r.events_dispatched, r.queue_depth_hwm,
        r.queries_submitted, r.responses_delivered, r.duplicate_queries,
        r.partner_failures, r.partner_recoveries, r.cluster_outages,
        r.faults_crashes, r.faults_request_timeouts, r.faults_retries,
        r.faults_failover_episodes, r.faults_client_rejoins,
        r.queries_succeeded, r.queries_failed,
        r.routing_suppressed_forwards, r.capacity_windows,
        r.capacity_overload_episodes}) {
    AppendRaw(out, v);
  }
  for (const double v :
       {r.measured_seconds, r.mean_results_per_query, r.mean_response_hops,
        r.mean_first_response_latency, r.cluster_outage_fraction,
        r.client_disconnected_fraction, r.capacity_mean_utilization,
        r.capacity_sp_p99_utilization}) {
    AppendRaw(out, v);
  }
  AppendLoads(out, {r.aggregate});
  AppendLoads(out, r.partner_load);
  AppendLoads(out, r.client_load);
  return out;
}

std::vector<std::uint8_t> LoadsImage(const InstanceLoads& l) {
  std::vector<std::uint8_t> out;
  AppendLoads(out, {l.aggregate});
  AppendLoads(out, l.partner_load);
  AppendLoads(out, l.client_load);
  for (const auto* v :
       {&l.results_per_query, &l.epl_per_source, &l.reach_per_source}) {
    for (const double x : *v) AppendRaw(out, x);
  }
  for (const double v : {l.mean_results, l.mean_epl, l.mean_reach,
                         l.duplicate_msgs_per_sec}) {
    AppendRaw(out, v);
  }
  return out;
}

// --- Workload definitions --------------------------------------------------

struct Bench {
  std::string workload;
  std::uint64_t seed = 7;
  bool trace = false;
  /// Worker threads any workload may use: min(4, nproc).
  std::size_t threads = 1;
  ModelInputs inputs = ModelInputs::Default();
  Tracer tracer{false};
  HostProbe probe;
  Result out;

  /// Times fn() as span `name`, then runs the host-speed probe.
  template <typename Fn>
  Timing Measure(std::string_view name, Fn&& fn) {
    const double wall = tracer.Time(name, std::forward<Fn>(fn));
    const double norm = probe.Scale(wall);
    tracer.Annotate("norm_s", norm);
    return {wall, norm};
  }
};

/// `wall` seconds of a call nested inside `outer`, at the host speed
/// the outer call's probe measured.
double ScaledLike(double wall, const Timing& outer) {
  return wall * outer.norm / outer.wall;
}

/// Per timed segment, the fastest of the batches' times (every batch
/// runs the same segments in the same order, so a burst of contention
/// that slows a segment in only one batch drops out); returns their sum.
/// With one batch this is the plain batch time.
Timing SumOfSegmentMins(const std::vector<std::vector<Timing>>& batches,
                        std::vector<Timing>* mins) {
  *mins = batches.front();
  Timing sum;
  for (std::size_t i = 0; i < mins->size(); ++i) {
    for (const std::vector<Timing>& batch : batches) {
      (*mins)[i].wall = std::min((*mins)[i].wall, batch[i].wall);
      (*mins)[i].norm = std::min((*mins)[i].norm, batch[i].norm);
    }
    sum.wall += (*mins)[i].wall;
    sum.norm += (*mins)[i].norm;
  }
  return sum;
}

std::vector<double> Norms(const std::vector<Timing>& timings) {
  std::vector<double> out;
  for (const Timing& t : timings) out.push_back(t.norm);
  return out;
}

/// The PLOD overlay every simulator workload runs on.
Configuration PlodConfig(std::size_t peers) {
  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = peers;
  config.cluster_size = 10.0;
  config.avg_outdegree = 4.0;
  config.ttl = 4;
  return config;
}

/// The overlay of every instance is drawn from this fixed seed; --seed
/// draws the rest of the instance (cluster populations, file counts,
/// lifespans) and every simulation stream. Overlays of one size drawn
/// from different seeds differ in hub placement, which moves flood
/// reach — and with it run_s and peak RSS — by ±15 % between seeds;
/// that would swamp every bound of the benchmark.
constexpr std::uint64_t kOverlaySeed = 1903;

/// Generates the instance; returns it and its wall seconds.
NetworkInstance Generate(Bench& b, const Configuration& config,
                         double* wall) {
  NetworkInstance inst;
  *wall = b.tracer.Time("model.GenerateInstance", [&] {
    Rng overlay_rng(kOverlaySeed);
    Topology overlay = GenerateInstance(config, b.inputs, overlay_rng).topology;
    Rng rng(b.seed);
    inst = GenerateInstanceWithTopology(std::move(overlay), config, b.inputs,
                                        rng);
  });
  return inst;
}

/// Publishes the legacy engine's queue and per-query state instruments.
/// Only legacy-engine runs may call this: under the sharded discipline
/// sim.queue.* and sim.state.* describe the unused legacy queue and
/// state (16 empty buckets, scan counters and duplicate entries 0), not
/// the per-shard queues and tables that ran.
void AddLegacyEngineMetrics(Result& out, const MetricsRegistry& m) {
  out.Count("sim.queue.depth_hwm", m.GaugeValue("sim.event_queue.depth_hwm"));
  for (const char* name : {"slot_visits", "day_steps", "resizes"}) {
    const std::string key = std::string("sim.queue.") + name;
    out.Count(key, static_cast<double>(m.CounterValue(key)));
  }
  out.Add("sim.state.scratch_bytes", m.GaugeValue("sim.state.scratch_bytes"),
          "B");
  out.Count("sim.state.duplicate_entries",
            static_cast<double>(m.CounterValue("sim.state.duplicate_entries")));
}

/// The end-to-end metrics every workload reports.
void AddEndToEnd(Bench& b, const std::vector<Timing>& setup, const Timing& run,
                 std::uint64_t ops) {
  b.out.ops_total = ops;
  b.out.Add("setup_s", Median(Norms(setup)), "s");
  b.out.Add("run_s", run.norm, "s");
  b.out.Add("run_wall_s", run.wall, "s");
  b.out.Add("queries_per_s", static_cast<double>(ops) / run.norm, "1/s");
}

// --- flood_1e5 / sharded_1e5 -------------------------------------------------

/// 0.6 simulated seconds of warmup (kept out of the report's statistics),
/// then 6 measured seconds, run in 0.5-simulated-second slices.
constexpr double kSimWarmup = 0.6;
constexpr double kSimDuration = 6.0;
constexpr double kSliceSeconds = 0.5;

/// run_s times the RunUntil slices after the first simulated second, and
/// Finalize. The first second holds the sharded engine's startup
/// transient: 10-20 s of wall time depending on the seed (it repeats
/// within 10 % for one seed, and spills into the second slice on some
/// seeds), against ~1 s on the legacy engine. Timed with it,
/// sharded_1e5's run_s spread 27 % over ten seeds, beyond any bound the
/// benchmark may set, so the traced run reports it on its own
/// (sim.startup_s).
constexpr std::size_t kStartupSlices = 2;

/// `shards` == 0 leaves SimOptions' default engine in place.
SimOptions FloodOptions(std::uint64_t seed, std::size_t shards,
                        std::size_t threads) {
  SimOptions options;
  options.seed = seed;
  options.warmup_seconds = kSimWarmup;
  options.duration_seconds = kSimDuration;
  if (shards > 0) {
    options.shards.num_shards = shards;
    options.shards.num_threads = threads;
  }
  return options;
}

struct SimBatch {
  /// Every RunUntil slice, then Finalize.
  std::vector<Timing> segments;
  double publish_s = 0.0;
  SimReport report;
};

/// Runs a started simulator to the horizon in 0.5-simulated-second
/// RunUntil slices, one span each annotated with its event count, then
/// Finalize. A traced batch also times a mid-run PublishCumulativeMetrics
/// into a fresh registry, outside every slice.
SimBatch RunSimBatch(Bench& b, Simulator& sim) {
  SimBatch batch;
  const double horizon = kSimWarmup + kSimDuration;
  int step = 0;
  double t = 0.0;
  while (t < horizon) {
    t = std::min(horizon, kSliceSeconds * ++step);
    const std::uint64_t before = sim.events_dispatched();
    batch.segments.push_back(
        b.Measure("sim.RunUntil", [&] { sim.RunUntil(t); }));
    b.tracer.Annotate("count",
                      static_cast<double>(sim.events_dispatched() - before));
    if (b.trace && step == 7) {
      batch.publish_s = b.Measure("obs.PublishCumulativeMetrics", [&] {
                          MetricsRegistry fresh;
                          sim.PublishCumulativeMetrics(fresh);
                        }).norm;
    }
  }
  batch.segments.push_back(b.Measure(
      "sim.Finalize", [&] { batch.report = sim.Finalize(horizon); }));
  return batch;
}

/// `shards` == 0: flood_1e5 on the default engine; otherwise
/// sharded_1e5 on that many shards.
void RunSimWorkload(Bench& b, std::size_t shards) {
  const Configuration config = PlodConfig(100000);
  MetricsRegistry metrics;
  SimOptions options = FloodOptions(b.seed, shards, b.threads);
  options.metrics = &metrics;

  // Set-up: generate + construct + Start, kSetupReps times; the last
  // repetition's simulator runs the first batch.
  NetworkInstance inst;
  std::unique_ptr<Simulator> sim;
  std::vector<Timing> setup;
  std::vector<double> generate_s;
  std::vector<double> start_s;
  b.tracer.Time("setup", [&] {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      sim.reset();
      double generate = 0.0;
      double start = 0.0;
      const Timing total = b.Measure("setup.rep", [&] {
        inst = Generate(b, config, &generate);
        b.tracer.Time("sim.Simulator", [&] {
          sim = std::make_unique<Simulator>(inst, config, b.inputs, options);
        });
        start = b.tracer.Time("sim.Start", [&] { sim->Start(); });
      });
      setup.push_back(total);
      generate_s.push_back(ScaledLike(generate, total));
      start_s.push_back(ScaledLike(start, total));
    }
  });

  // The batches, each after the first from a fresh simulator. The
  // repeats publish into their own registry, which outlives them.
  const int num_batches = shards > 0 ? kShardedBatches : kFloodBatches;
  std::vector<SimBatch> batches;
  MetricsRegistry repeat_metrics;
  SimOptions repeat_options = options;
  repeat_options.metrics = &repeat_metrics;
  b.tracer.Time("run", [&] {
    for (int i = 0; i < num_batches; ++i) {
      if (i > 0) {
        sim.reset();
        sim = std::make_unique<Simulator>(inst, config, b.inputs,
                                          repeat_options);
        sim->Start();
      }
      batches.push_back(RunSimBatch(b, *sim));
    }
  });
  sim.reset();
  const SimReport& report = batches.front().report;
  const std::vector<std::uint8_t> image = ReportImage(report);
  b.out.digest = Fnv1a64(image);
  bool repeat_same = true;
  std::vector<std::vector<Timing>> timed;
  for (const SimBatch& batch : batches) {
    timed.emplace_back(batch.segments.begin() + kStartupSlices,
                       batch.segments.end());
    repeat_same = repeat_same && ReportImage(batch.report) == image;
  }
  std::vector<Timing> segment_mins;
  const Timing run = SumOfSegmentMins(timed, &segment_mins);
  AddEndToEnd(b, setup, run, report.queries_submitted);

  // Correctness: the paper's model on the same instance predicts the
  // simulated aggregate bandwidth within the repository's 15 % band.
  InstanceLoads model;
  b.tracer.Time("check", [&] {
    EvalOptions eval;
    eval.parallelism = b.threads;
    b.tracer.Time("model.EvaluateInstance", [&] {
      model = EvaluateInstance(inst, config, b.inputs, eval);
    });
  });
  const double deviation =
      report.aggregate.TotalBps() / model.aggregate.TotalBps() - 1.0;
  b.out.Add("sim_vs_model_bw", deviation, "1");
  b.out.Check("sim_vs_model_within_15pct", std::fabs(deviation) <= 0.15);
  b.out.Check("repeat_batches_identical", repeat_same);

  if (!b.trace) return;
  const SimBatch& front = batches.front();
  std::vector<double> slices = Norms(front.segments);
  slices.pop_back();  // Finalize.
  const double startup =
      std::accumulate(slices.begin(), slices.begin() + kStartupSlices, 0.0);
  const auto events = static_cast<double>(report.events_dispatched);
  b.out.Add("model.generate_s", Median(generate_s), "s");
  b.out.Add("sim.start_s", Median(start_s), "s");
  b.out.Add("sim.startup_s", startup, "s");
  b.out.Add("sim.finalize_s", segment_mins.back().norm, "s");
  b.out.Count("sim.events", events);
  b.out.Add("sim.events_per_s", events / (startup + run.norm), "1/s");
  b.out.Add("sim.slice_ms.first", 1e3 * slices.front(), "ms");
  b.out.Add("sim.slice_ms.p50", 1e3 * Median(slices), "ms");
  b.out.Add("sim.slice_ms.max",
            1e3 * *std::max_element(slices.begin(), slices.end()), "ms");
  for (const char* msg : {"query", "response", "join", "update"}) {
    const std::string key = std::string("sim.msg.") + msg + ".sent";
    b.out.Count(key, static_cast<double>(metrics.CounterValue(key)));
  }
  b.out.Add("obs.publish_ms", 1e3 * front.publish_s, "ms");
  // What the engine that ran publishes: the legacy queue and state
  // instruments, or the sharded discipline's cells.
  if (options.shards.enabled()) {
    b.out.Count("sim.shard.cells",
                static_cast<double>(metrics.CounterValue("sim.shard.cells")));
  } else {
    AddLegacyEngineMetrics(b.out, metrics);
  }
  if (shards == 0) return;

  // Sharded: the S1T1 sequential reference must match bit for bit, and
  // its time over run_s's span is the base of the parallel speedup.
  SimReport reference;
  Timing reference_startup;
  Timing reference_run;
  b.tracer.Time("reference_s1t1", [&] {
    SimOptions s1t1 = FloodOptions(b.seed, 1, 1);
    MetricsRegistry scratch;
    s1t1.metrics = &scratch;
    Simulator ref(inst, config, b.inputs, s1t1);
    ref.Start();
    const double horizon = kSimWarmup + kSimDuration;
    reference_startup = b.Measure("sim.RunUntil", [&] {
      ref.RunUntil(kSliceSeconds * kStartupSlices);
    });
    reference_run = b.Measure("sim.RunUntil", [&] {
      ref.RunUntil(horizon);
      reference = ref.Finalize(horizon);
    });
  });
  b.out.Add("sim.shard.s1t1_startup_s", reference_startup.norm, "s");
  b.out.Add("sim.shard.s1t1_run_s", reference_run.norm, "s");
  b.out.Add("sim.shard.speedup", reference_run.norm / run.norm, "x");
  b.out.Check("s1t1_bitwise_equal", ReportImage(reference) == image);
}

// --- serve_1e4 ---------------------------------------------------------------

constexpr int kServeWindows = 300;
constexpr int kCheckpointEvery = 50;
constexpr double kServeWindowSeconds = 2.0;
constexpr double kServeWarmup = 10.0;
constexpr int kRestoreReplayWindows = 3;

SimOptions ServeOptions(std::uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.warmup_seconds = kServeWarmup;
  // The last window boundary is warmup + duration, so Finish() closes
  // the run exactly where batch Run() would.
  options.duration_seconds =
      kServeWindows * kServeWindowSeconds - kServeWarmup;
  options.strategy = SearchStrategy::kRoutedFlood;
  options.churn.enable = true;
  options.churn.partner_recovery_seconds = 20.0;
  options.faults.crash_rate_per_partner = 2e-3;
  options.faults.request_timeout_seconds = 2.0;
  options.capacity.enable = true;
  options.capacity.window_seconds = 10.0;
  return options;
}

struct ServeBatch {
  /// The timed segments: 300 windows, the 6 checkpoints, Finish().
  std::vector<Timing> segments;
  std::vector<double> window_events;
  std::vector<double> checkpoint_bytes;
  std::vector<std::uint64_t> digest_after;
  std::vector<std::uint64_t> events_after;
  std::vector<std::uint8_t> first_checkpoint;
  SimReport report;
  std::uint64_t digest = 0;
};

/// One serving batch: 300 windows with a checkpoint every 50, then
/// Finish(). Per-window bookkeeping stays outside the timed calls; only
/// the first checkpoint's bytes are kept.
ServeBatch Serve(Bench& b, StreamDriver& driver) {
  ServeBatch batch;
  std::vector<Timing> checkpoints;
  for (int w = 1; w <= kServeWindows; ++w) {
    StreamSnapshot snap;
    batch.segments.push_back(b.Measure(
        "stream.AdvanceWindow", [&] { snap = driver.AdvanceWindow(); }));
    b.tracer.Annotate("count",
                      static_cast<double>(snap.events_dispatched_delta));
    batch.window_events.push_back(
        static_cast<double>(snap.events_dispatched_delta));
    batch.digest_after.push_back(driver.snapshot_digest());
    batch.events_after.push_back(driver.events_dispatched());
    if (w % kCheckpointEvery == 0) {
      std::vector<std::uint8_t> bytes;
      checkpoints.push_back(b.Measure("stream.Checkpoint",
                                      [&] { bytes = driver.Checkpoint(); }));
      b.tracer.Annotate("count", static_cast<double>(bytes.size()));
      batch.checkpoint_bytes.push_back(static_cast<double>(bytes.size()));
      if (batch.first_checkpoint.empty()) {
        batch.first_checkpoint = std::move(bytes);
      }
    }
  }
  batch.segments.insert(batch.segments.end(), checkpoints.begin(),
                        checkpoints.end());
  batch.segments.push_back(
      b.Measure("stream.Finish", [&] { batch.report = driver.Finish(); }));
  batch.digest = Fnv1aMix64(driver.snapshot_digest(),
                            Fnv1a64(ReportImage(batch.report)));
  return batch;
}

void RunServeWorkload(Bench& b) {
  const Configuration config = PlodConfig(10000);
  MetricsRegistry metrics;
  SimOptions options = ServeOptions(b.seed);
  options.metrics = &metrics;
  StreamOptions stream;
  stream.window_seconds = kServeWindowSeconds;

  NetworkInstance inst;
  std::unique_ptr<StreamDriver> driver;
  std::vector<Timing> setup;
  std::vector<double> generate_s;
  b.tracer.Time("setup", [&] {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      driver.reset();
      double generate = 0.0;
      const Timing total = b.Measure("setup.rep", [&] {
        inst = Generate(b, config, &generate);
        b.tracer.Time("stream.StreamDriver", [&] {
          driver = std::make_unique<StreamDriver>(inst, config, b.inputs,
                                                  options, stream);
        });
      });
      setup.push_back(total);
      generate_s.push_back(ScaledLike(generate, total));
    }
  });
  const double retention_s = driver->effective_retention_seconds();

  std::vector<ServeBatch> batches;
  MetricsRegistry repeat_metrics;
  SimOptions repeat_options = options;
  repeat_options.metrics = &repeat_metrics;
  b.tracer.Time("run", [&] {
    for (int i = 0; i < kServeBatches; ++i) {
      if (i > 0) {
        driver.reset();
        driver = std::make_unique<StreamDriver>(inst, config, b.inputs,
                                                repeat_options, stream);
      }
      batches.push_back(Serve(b, *driver));
      if (i > 0) {
        std::vector<std::uint8_t>().swap(batches.back().first_checkpoint);
      }
    }
  });
  driver.reset();

  const ServeBatch& first = batches.front();
  const SimReport& report = first.report;
  b.out.digest = first.digest;
  bool repeat_same = true;
  std::vector<std::vector<Timing>> segments;
  for (const ServeBatch& batch : batches) {
    segments.push_back(batch.segments);
    repeat_same = repeat_same && batch.digest == first.digest;
  }
  std::vector<Timing> segment_mins;
  const Timing run = SumOfSegmentMins(segments, &segment_mins);
  const std::vector<double> mins = Norms(segment_mins);
  const std::vector<double> window_s(mins.begin(),
                                     mins.begin() + kServeWindows);
  const std::vector<double> checkpoint_s(mins.begin() + kServeWindows,
                                         mins.end() - 1);
  const double completed =
      static_cast<double>(report.queries_succeeded + report.queries_failed);

  AddEndToEnd(b, setup, run, report.queries_submitted);
  b.out.Add("window_p50_ms", 1e3 * Median(window_s), "ms");
  b.out.Add("checkpoint_ms", 1e3 * Median(checkpoint_s), "ms");
  b.out.Add("query_fail_frac",
            static_cast<double>(report.queries_failed) / completed, "1");
  b.out.Check("repeat_batches_identical", repeat_same);

  // Correctness: a fresh driver restored from the first checkpoint
  // replays the next windows exactly as the uninterrupted run did.
  Timing restore;
  bool restored = false;
  b.tracer.Time("check", [&] {
    StreamDriver resumed(inst, config, b.inputs, ServeOptions(b.seed), stream);
    restore = b.Measure("stream.Restore", [&] {
      restored = resumed.Restore(first.first_checkpoint);
    });
    const auto cut = static_cast<std::size_t>(kCheckpointEvery);
    for (std::size_t w = cut; restored && w < cut + kRestoreReplayWindows;
         ++w) {
      resumed.AdvanceWindow();
      restored = resumed.snapshot_digest() == first.digest_after[w] &&
                 resumed.events_dispatched() == first.events_after[w];
    }
  });
  b.out.Check("restore_replays_identically", restored);

  if (!b.trace) return;
  b.out.Add("model.generate_s", Median(generate_s), "s");
  b.out.Add("stream.window_ms.p95", 1e3 * Percentile(window_s, 0.95), "ms");
  b.out.Add("stream.window_ms.max",
            1e3 * *std::max_element(window_s.begin(), window_s.end()), "ms");
  b.out.Add("stream.retention_s", retention_s, "s");
  b.out.Add("stream.window_events_corr",
            Pearson(window_s, first.window_events), "1");
  const double bytes = Median(first.checkpoint_bytes);
  b.out.Add("io.checkpoint.bytes", bytes, "B");
  b.out.Add("io.checkpoint.write_mib_per_s",
            bytes / (1024.0 * 1024.0) / Median(checkpoint_s), "MiB/s");
  b.out.Add("io.checkpoint.restore_ms", 1e3 * restore.norm, "ms");
  b.out.Count("index.suppressed_forwards",
              static_cast<double>(
                  metrics.CounterValue("sim.routing.suppressed_forwards")));
  if (!options.shards.enabled()) AddLegacyEngineMetrics(b.out, metrics);

  // Index layer from outside: build the digest table the run used, then
  // probe every directed edge for every query class.
  RoutingTable table;
  b.out.Add("index.build_s", b.Measure("index.BuildRoutingTable", [&] {
                               table = BuildRoutingTable(
                                   inst.topology, inst.indexed_files,
                                   b.inputs.query_model, options.routing,
                                   options.seed);
                             }).norm,
            "s");
  const Graph& graph = inst.topology.graph();
  const auto classes =
      static_cast<std::uint32_t>(b.inputs.query_model.num_query_classes());
  std::uint64_t positives = 0;
  std::uint64_t probes = 0;
  const Timing probe = b.Measure("index.EdgeMayLead", [&] {
    for (std::uint32_t u = 0; u < graph.num_nodes(); ++u) {
      const std::size_t degree = graph.Degree(u);
      for (std::size_t i = 0; i < degree; ++i) {
        for (std::uint32_t c = 0; c < classes; ++c) {
          positives += table.EdgeMayLead(u, i, c) ? 1 : 0;
        }
      }
      probes += degree * classes;
    }
  });
  b.out.Add("index.probe_ns", 1e9 * probe.norm / static_cast<double>(probes),
            "ns");
  b.out.Add("index.probe_positive_frac",
            static_cast<double>(positives) / static_cast<double>(probes), "1");
}

// --- eval_1e5 ----------------------------------------------------------------

Configuration EvalConfig(std::size_t peers) {
  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = peers;
  config.cluster_size = 1.0;
  config.avg_outdegree = 3.1;
  config.ttl = 4;
  return config;
}

void RunEvalWorkload(Bench& b) {
  const Configuration config = EvalConfig(100000);
  NetworkInstance inst;
  std::vector<Timing> setup;
  b.tracer.Time("setup", [&] {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      double generate = 0.0;
      setup.push_back(b.Measure(
          "setup.rep", [&] { inst = Generate(b, config, &generate); }));
    }
  });

  struct EvalBatch {
    Timing run;
    InstanceLoads loads;
    double expand_s = 0.0;
    double accumulate_s = 0.0;
    std::uint64_t sources = 0;
    std::uint64_t frontier_entries = 0;
    std::uint64_t reached = 0;
  };
  std::vector<EvalBatch> batches;
  b.tracer.Time("run", [&] {
    for (int i = 0; i < kEvalBatches; ++i) {
      EvalBatch batch;
      MetricsRegistry metrics;
      EvalOptions options;
      options.engine = EvalEngine::kBatched;
      options.parallelism = b.threads;
      options.metrics = &metrics;
      batch.run = b.Measure("model.EvaluateInstance", [&] {
        batch.loads = EvaluateInstance(inst, config, b.inputs, options);
      });
      batch.expand_s = metrics.timers().at("eval.bfs.expand").total_seconds();
      batch.accumulate_s =
          metrics.timers().at("eval.accumulate").total_seconds();
      batch.sources = metrics.CounterValue("eval.sources");
      batch.frontier_entries =
          metrics.CounterValue("eval.bfs.frontier_entries");
      batch.reached = metrics.CounterValue("eval.reached");
      batches.push_back(std::move(batch));
    }
  });

  const EvalBatch& first = batches.front();
  const std::vector<std::uint8_t> image = LoadsImage(first.loads);
  b.out.digest = Fnv1a64(image);
  bool repeat_same = true;
  std::vector<std::vector<Timing>> segments;
  for (const EvalBatch& batch : batches) {
    segments.push_back({batch.run});
    repeat_same = repeat_same && LoadsImage(batch.loads) == image;
  }
  std::vector<Timing> segment_mins;
  const Timing run = SumOfSegmentMins(segments, &segment_mins);
  AddEndToEnd(b, setup, run, first.sources);
  b.out.Add("sources_per_s", static_cast<double>(first.sources) / run.norm,
            "1/s");
  b.out.Check("repeat_batches_identical", repeat_same);

  // Correctness: the batched engine at full parallelism is bitwise equal
  // to the scalar reference on the 10^4-peer instance of the same seed.
  bool identical = false;
  b.tracer.Time("check", [&] {
    const Configuration small = EvalConfig(10000);
    double generate = 0.0;
    const NetworkInstance small_inst = Generate(b, small, &generate);
    EvalOptions batched;
    batched.parallelism = b.threads;
    EvalOptions scalar;
    scalar.engine = EvalEngine::kScalarReference;
    InstanceLoads fast;
    InstanceLoads ref;
    b.tracer.Time("model.EvaluateInstance", [&] {
      fast = EvaluateInstance(small_inst, small, b.inputs, batched);
    });
    b.tracer.Time("model.EvaluateInstance.scalar", [&] {
      ref = EvaluateInstance(small_inst, small, b.inputs, scalar);
    });
    identical = LoadsImage(fast) == LoadsImage(ref);
  });
  b.out.Check("batched_equals_scalar_1e4", identical);

  if (!b.trace) return;
  // The evaluator's phase timers are summed over its workers.
  const double scale = first.run.norm / first.run.wall;
  b.out.Add("model.generate_s", Median(Norms(setup)), "s");
  b.out.Add("model.evaluate_s", run.norm, "s");
  b.out.Add("model.expand_s", first.expand_s * scale, "s");
  b.out.Add("model.accumulate_s", first.accumulate_s * scale, "s");
  b.out.Count("model.frontier_entries",
              static_cast<double>(first.frontier_entries));
  b.out.Count("model.reached", static_cast<double>(first.reached));
}

// --- Kernels (traced runs of every workload) -------------------------------

/// Exp(1) variates from the run seed, drawn before timing starts.
std::vector<double> ExpVariates(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = -std::log1p(-rng.NextDouble());
  return v;
}

/// CalendarQueue hold model: bulk-load `population` events at Exp(1)
/// times, then `ops` times pop the minimum and reschedule it Exp(1)
/// later. Returns the wall seconds of the pop+reschedule loop.
double QueueHoldSeconds(std::size_t population, std::size_t ops, Rng& rng) {
  const std::vector<double> load = ExpVariates(population, rng);
  const std::vector<double> step = ExpVariates(ops, rng);
  CalendarQueue queue;
  SimEvent event;
  for (const double t : load) {
    event.time = t;
    queue.Schedule(event);
  }
  const Clock::time_point t0 = Clock::now();
  for (const double dt : step) {
    event = queue.Pop();
    event.time += dt;
    queue.Schedule(event);
  }
  return Seconds(t0, Clock::now());
}

/// FlatMap64 FindOrInsert of `n` random keys into an empty map, then
/// Find of each; rounds repeat until 10^6 keys were inserted. Returns
/// the median round's wall ns per insert and per find.
std::pair<double, double> StateNs(std::size_t n, Rng& rng) {
  const std::size_t rounds = std::max<std::size_t>(1, 1000000 / n);
  std::vector<double> insert_ns;
  std::vector<double> find_ns;
  std::vector<std::uint64_t> keys(n);
  std::uint64_t sink = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::uint64_t& k : keys) k = rng.NextUint64();
    FlatMap64<std::uint32_t> map;
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      *map.FindOrInsert(keys[i]).first = static_cast<std::uint32_t>(i);
    }
    insert_ns.push_back(1e9 * Seconds(t0, Clock::now()) /
                        static_cast<double>(n));
    t0 = Clock::now();
    for (const std::uint64_t k : keys) sink += *map.Find(k);
    find_ns.push_back(1e9 * Seconds(t0, Clock::now()) /
                      static_cast<double>(n));
  }
  // Every key was found: the sum of the stored indices is fixed.
  SPPNET_CHECK(sink == rounds * (n * (n - 1) / 2));
  return {Median(insert_ns), Median(find_ns)};
}

void RunKernels(Bench& b) {
  Rng rng = Rng::Salted(b.seed, 0x6b65726e656cull);  // "kernel"
  b.tracer.Time("kernels", [&] {
    for (const auto& [label, population] :
         {std::pair<const char*, std::size_t>{"1e3", 1000},
          {"1e4", 10000},
          {"1e5", 100000},
          {"1e6", 1000000}}) {
      // At 10^6 one operation costs ~30 us (the bucket width does not
      // recalibrate within the run), so that size runs 10^5 operations.
      const std::size_t ops = population >= 1000000 ? 100000 : 1000000;
      double loop_s = 0.0;
      b.tracer.Time(std::string("kernel.CalendarQueue.hold.") + label,
                    [&] { loop_s = QueueHoldSeconds(population, ops, rng); });
      b.out.Add(std::string("sim.queue.hold_ns.") + label,
                1e9 * b.probe.Scale(loop_s) / static_cast<double>(ops), "ns");
    }
    for (const auto& [label, n] :
         {std::pair<const char*, std::size_t>{"1e4", 10000},
          {"1e6", 1000000}}) {
      std::pair<double, double> ns;
      b.tracer.Time(std::string("kernel.FlatMap64.") + label,
                    [&] { ns = StateNs(n, rng); });
      const double scale = b.probe.Scale(1.0);
      b.out.Add(std::string("sim.state.insert_ns.") + label, ns.first * scale,
                "ns");
      b.out.Add(std::string("sim.state.find_ns.") + label, ns.second * scale,
                "ns");
    }
  });
}

// --- Output ------------------------------------------------------------------

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void Print(const Bench& b, bool ok) {
  const Result& r = b.out;
  std::printf("\n%-34s %12s  %s\n", "metric", "value", "unit");
  for (const Result::Metric& m : r.metrics) {
    std::printf("%-34s %12.3g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [name, pass] : r.checks) {
    std::printf("check %-28s %12s\n", name.c_str(), pass ? "ok" : "FAILED");
  }
  std::printf("digest %s\n", Hex(r.digest).c_str());

  std::ostringstream os;
  JsonWriter w(os, 0);
  w.BeginObject();
  w.Key("workload").String(b.workload);
  w.Key("seed").Number(b.seed);
  w.Key("trace").Bool(b.trace);
  w.Key("hardware_threads")
      .Number(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.Key("metrics").BeginObject();
  for (const Result::Metric& m : r.metrics) w.Key(m.name).Number(m.value);
  w.EndObject();
  w.Key("units").BeginObject();
  for (const Result::Metric& m : r.metrics) w.Key(m.name).String(m.unit);
  w.EndObject();
  w.Key("checks").BeginObject();
  for (const auto& [name, pass] : r.checks) w.Key(name).Bool(pass);
  w.EndObject();
  w.Key("digest").String(Hex(r.digest));
  w.Key("ops_total").Number(r.ops_total);
  w.Key("ops_failed").Number(ok ? std::uint64_t{0} : r.ops_total);
  w.EndObject();
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <flood_1e5|sharded_1e5|serve_1e4|"
               "eval_1e5> [--seed S] [--trace]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Bench b;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      b.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      b.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace") {
      b.trace = true;
    } else {
      return Usage(argv[0]);
    }
  }
  void (*run)(Bench&) = nullptr;
  if (b.workload == "flood_1e5") {
    run = [](Bench& bench) { RunSimWorkload(bench, 0); };
  } else if (b.workload == "sharded_1e5") {
    run = [](Bench& bench) { RunSimWorkload(bench, 8); };
  } else if (b.workload == "serve_1e4") {
    run = RunServeWorkload;
  } else if (b.workload == "eval_1e5") {
    run = RunEvalWorkload;
  } else {
    return Usage(argv[0]);
  }
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  b.threads = std::min<std::size_t>(4, hardware);
  b.tracer = Tracer(b.trace);

  b.tracer.Time(b.workload, [&] { run(b); });
  if (b.trace) RunKernels(b);
  b.out.Add("host.probe_ms", 1e3 * b.probe.MedianSeconds(), "ms");
  b.out.Add("peak_rss_mib", PeakRssMiB(), "MiB");

  const bool ok = b.out.AllChecksPass();
  if (b.trace) {
    const std::string path = "PERF_TRACE_" + b.workload + ".jsonl";
    if (!b.tracer.Write(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  Print(b, ok);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sppnet::perf

int main(int argc, char** argv) { return sppnet::perf::Main(argc, argv); }
