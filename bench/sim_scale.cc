// Scale sweep for the discrete-event simulator core: flood baseline at
// N = 1e3 ... 1e6 nodes on the legacy single-loop engine (calendar
// queue + dense per-query state), plus the sharded conservative-window
// discipline timed against its own sequential (S=1, T=1) reference.
// The sharded pair is checked bitwise-identical at the SimReport level
// — the in-bench half of the equivalence contract
// (tests/sim/sharded_equivalence_test holds the full matrix and the
// pinned goldens; tests/sim/engine_equivalence_test pins the legacy
// engine).
//
// The sweep reports events/sec (whole run: warmup + measurement) and
// the per-node scratch footprint of the event queue and the per-query
// state, from the sim.queue.* / sim.state.* gauges. Simulated duration
// shrinks as N grows to bound the sweep's wall time; events/sec is
// duration-independent (steady-state event mix). The legacy row stops
// at N = 1e5; the sharded rows cover every size. Sharded wall-clock
// speedup is machine-dependent — it needs real cores to show parallel
// gain — while the identity check holds on any machine.
//
// SPPNET_SIM_SCALE_MAX_N caps the sweep (CI smoke runs set it down;
// smoke mode clamps to 1e4 regardless of the override).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sppnet/common/rng.h"
#include "sppnet/io/table.h"
#include "sppnet/model/instance.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/sim/simulator.h"

namespace sppnet::bench {
namespace {

/// Bitwise SimReport comparison: every field, including the load
/// vectors. Any drift between shard plans is a discipline bug.
bool ReportsIdentical(const SimReport& a, const SimReport& b) {
  if (a.partner_load.size() != b.partner_load.size() ||
      a.client_load.size() != b.client_load.size()) {
    return false;
  }
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  for (std::size_t i = 0; i < a.partner_load.size(); ++i) {
    if (std::memcmp(&a.partner_load[i], &b.partner_load[i],
                    sizeof(LoadVector)) != 0) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.client_load.size(); ++i) {
    if (std::memcmp(&a.client_load[i], &b.client_load[i],
                    sizeof(LoadVector)) != 0) {
      return false;
    }
  }
  return std::memcmp(&a.aggregate, &b.aggregate, sizeof(LoadVector)) == 0 &&
         same(a.measured_seconds, b.measured_seconds) &&
         a.events_scheduled == b.events_scheduled &&
         a.events_dispatched == b.events_dispatched &&
         a.queue_depth_hwm == b.queue_depth_hwm &&
         a.queries_submitted == b.queries_submitted &&
         a.responses_delivered == b.responses_delivered &&
         a.duplicate_queries == b.duplicate_queries &&
         same(a.mean_results_per_query, b.mean_results_per_query) &&
         same(a.mean_response_hops, b.mean_response_hops) &&
         same(a.mean_first_response_latency, b.mean_first_response_latency) &&
         same(a.mean_rings_per_query, b.mean_rings_per_query) &&
         a.partner_failures == b.partner_failures &&
         a.partner_recoveries == b.partner_recoveries &&
         a.cluster_outages == b.cluster_outages &&
         same(a.cluster_outage_fraction, b.cluster_outage_fraction) &&
         same(a.client_disconnected_fraction,
              b.client_disconnected_fraction) &&
         a.faults_crashes == b.faults_crashes &&
         a.faults_messages_dropped == b.faults_messages_dropped &&
         a.faults_request_timeouts == b.faults_request_timeouts &&
         a.faults_retries == b.faults_retries &&
         a.faults_failover_episodes == b.faults_failover_episodes &&
         a.faults_client_rejoins == b.faults_client_rejoins &&
         a.queries_succeeded == b.queries_succeeded &&
         a.queries_failed == b.queries_failed &&
         same(a.query_success_rate, b.query_success_rate) &&
         same(a.mean_recovery_latency_seconds,
              b.mean_recovery_latency_seconds);
}

struct EngineRun {
  const char* label;
  double seconds = 0.0;
  double queue_bytes = 0.0;
  double state_bytes = 0.0;
  SimReport report;
};

/// Best of `reps` runs, timing the event loop only (construction is
/// setup): the runs are bit-identical, so the repeats are a pure noise
/// reduction, not a different workload; the heaviest sizes run once.
/// `shards` == 0 runs the legacy single-loop engine.
EngineRun RunTimed(const NetworkInstance& inst, const Configuration& config,
                   const ModelInputs& inputs, const SimOptions& base,
                   std::size_t shards, std::size_t threads, const char* label,
                   int reps) {
  EngineRun result;
  result.label = label;
  SimOptions options = base;
  options.shards.num_shards = shards;
  options.shards.num_threads = threads;
  for (int rep = 0; rep < reps; ++rep) {
    MetricsRegistry metrics;
    options.metrics = &metrics;
    Simulator sim(inst, config, inputs, options);
    const auto t0 = std::chrono::steady_clock::now();
    result.report = sim.Run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (rep == 0 || seconds < result.seconds) result.seconds = seconds;
    result.queue_bytes = metrics.GaugeValue("sim.queue.scratch_bytes");
    result.state_bytes = metrics.GaugeValue("sim.state.scratch_bytes");
  }
  return result;
}

int Main() {
  Banner("Simulator scale sweep: calendar queue + dense state, N = 1e3-1e6",
         "the discrete-event cross-check must keep pace with the "
         "analytical model so Section 4/6 validation runs at the same N");

  std::size_t max_n = SmokeMode() ? 10000 : 1000000;
  if (const char* cap = std::getenv("SPPNET_SIM_SCALE_MAX_N")) {
    max_n = std::strtoull(cap, nullptr, 10);
  }
  max_n = SmokeMaxN(max_n);

  // The sharded rows: S shards drained by min(S, hardware) threads.
  const std::size_t shard_count = 8;
  const std::size_t hardware = std::max<std::size_t>(
      std::thread::hardware_concurrency(), 1);
  const std::size_t shard_threads = std::min(shard_count, hardware);

  BenchRun run("sim_scale");
  run.Config("graph_type", "power_law");
  run.Config("avg_outdegree", 4.0);
  run.Config("cluster_size", 10.0);
  run.Config("ttl", 4);
  run.Config("strategy", "flood");
  run.Config("max_n", max_n);
  run.Config("shard_count", shard_count);
  run.Config("shard_threads", shard_threads);

  const ModelInputs inputs = ModelInputs::Default();
  TableWriter table({"N", "engine", "run_s", "events", "Kev/s",
                     "queue_B/node", "state_B/node", "speedup"});
  bool sharded_identity_ok = true;
  double best_sharded_speedup = 0.0;

  struct SizePoint {
    std::size_t n;
    double duration;
    bool legacy_row;  // The legacy calendar+dense row runs.
  };
  // Duration shrinks with N to bound the sweep's wall time. Rates
  // (events/sec) are steady-state, so this only trades measurement
  // time, not comparability. At N = 1e6 only the sharded discipline
  // runs, once per configuration.
  const SizePoint kSizes[] = {
      {1000, SmokeSimSeconds(60.0, 10.0), true},
      {10000, SmokeSimSeconds(30.0, 5.0), true},
      {100000, SmokeSimSeconds(10.0, 2.0), true},
      {1000000, 1.5, false},
  };

  for (const SizePoint& point : kSizes) {
    if (point.n > max_n) continue;
    Configuration config;
    config.graph_type = GraphType::kPowerLaw;
    config.graph_size = point.n;
    config.cluster_size = 10.0;
    config.avg_outdegree = 4.0;
    config.ttl = 4;
    Rng rng(1903);  // One fixed instance per size, as in scale_sweep.
    const NetworkInstance inst = GenerateInstance(config, inputs, rng);

    SimOptions base;
    base.duration_seconds = point.duration;
    base.warmup_seconds = point.duration / 10.0;
    base.seed = 7;

    const auto n_nodes = static_cast<double>(point.n);
    const auto add_row = [&](const EngineRun& r, double events,
                             double speedup) {
      table.AddRow(
          {Format(point.n), r.label, Format(r.seconds, 4),
           Format(static_cast<std::size_t>(events)),
           Format(events / r.seconds / 1e3, 2),
           r.queue_bytes > 0.0 ? Format(r.queue_bytes / n_nodes, 2)
                               : std::string("-"),
           r.state_bytes > 0.0 ? Format(r.state_bytes / n_nodes, 2)
                               : std::string("-"),
           speedup > 0.0 ? Format(speedup, 3) : std::string("-")});
    };

    if (point.legacy_row) {
      const EngineRun legacy =
          RunTimed(inst, config, inputs, base, 0, 1, "calendar+dense", 2);
      const double events =
          static_cast<double>(legacy.report.events_dispatched);
      std::printf("\nN=%zu: %.0f events, queue HWM %llu, %.2fs sim time\n",
                  point.n, events,
                  static_cast<unsigned long long>(
                      legacy.report.queue_depth_hwm),
                  point.duration);

      add_row(legacy, events, 0.0);
      run.metrics()
          .GetGauge("sim_scale.events_per_sec.n" + Format(point.n))
          .Set(events / legacy.seconds);
      run.metrics()
          .GetGauge("sim_scale.state_bytes_per_node.n" + Format(point.n))
          .Set(legacy.state_bytes / n_nodes);
    }

    // Sharded discipline: sequential (S=1, T=1) reference vs the
    // parallel plan, bit-identical by contract.
    const int reps = point.n >= 1000000 ? 1 : 2;
    const EngineRun disc_seq = RunTimed(inst, config, inputs, base, 1, 1,
                                        "disc(S1,T1)", reps);
    std::string sharded_label = "sharded(S";
    sharded_label += Format(shard_count);
    sharded_label += ",T";
    sharded_label += Format(shard_threads);
    sharded_label += ")";
    const EngineRun sharded =
        RunTimed(inst, config, inputs, base, shard_count, shard_threads,
                 sharded_label.c_str(), reps);

    if (!ReportsIdentical(disc_seq.report, sharded.report)) {
      sharded_identity_ok = false;
      std::printf("SHARDED IDENTITY VIOLATION at N=%zu: S=%zu T=%zu "
                  "drifted from the sequential reference\n",
                  point.n, shard_count, shard_threads);
    }

    const double sharded_events =
        static_cast<double>(sharded.report.events_dispatched);
    const double sharded_speedup = disc_seq.seconds / sharded.seconds;
    best_sharded_speedup = std::max(best_sharded_speedup, sharded_speedup);
    add_row(disc_seq, sharded_events, 0.0);
    add_row(sharded, sharded_events, sharded_speedup);
    run.metrics()
        .GetGauge("sim_scale.sharded.events_per_sec.n" + Format(point.n))
        .Set(sharded_events / sharded.seconds);
    run.metrics()
        .GetGauge("sim_scale.sharded.speedup.n" + Format(point.n))
        .Set(sharded_speedup);
  }

  std::printf("\n");
  run.Emit(table, "sim_scale");
  run.Config("sharded_identity_ok", sharded_identity_ok ? "true" : "false");
  std::printf("\nSharded discipline bit-identity vs sequential: %s\n",
              sharded_identity_ok ? "OK" : "FAILED");

  // Multi-core smoke gate (CI): with SPPNET_SIM_SCALE_REQUIRE_SPEEDUP
  // set, the sharded discipline must actually beat its sequential
  // (S=1, T=1) reference somewhere in the sweep — a wall-clock check
  // the bit-identity contracts cannot express. Skipped on single-core
  // machines, where no parallel gain is physically possible.
  bool speedup_ok = true;
  if (const char* req = std::getenv("SPPNET_SIM_SCALE_REQUIRE_SPEEDUP");
      req != nullptr && req[0] != '\0' &&
      !(req[0] == '0' && req[1] == '\0')) {
    if (hardware < 2) {
      std::printf("Sharded speedup gate: SKIPPED (1 hardware thread)\n");
    } else {
      speedup_ok = best_sharded_speedup > 1.0;
      std::printf("Sharded speedup gate (T=%zu vs T=1): best %.2fx — %s\n",
                  shard_threads, best_sharded_speedup,
                  speedup_ok ? "OK" : "FAILED");
    }
  }
  return sharded_identity_ok && speedup_ok ? 0 : 1;
}

}  // namespace
}  // namespace sppnet::bench

int main() { return sppnet::bench::Main(); }
