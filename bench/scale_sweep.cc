// Scale sweep for the batched evaluation engine: evaluate wall-time and
// scratch bytes/node at graph sizes 10^4, 10^5 and 10^6 (PLOD, average
// outdegree 3.1, cluster size 1 — the pure super-peer Gnutella overlay,
// every node a flood source). The scalar-reference engine runs
// alongside the bit-parallel one up to 10^5 so the speedup and the
// bit-identity of the two engines are measured, not assumed.
// frontier_entries and bits_per_word (sources carried per (node, word)
// entry: reached pairs / frontier entries) are deterministic counts of
// the kernel's work, the figures the BFS source order moves.
//
// TTL is 4, not the Gnutella default 7: at TTL 7 the outdeg-3.1 PLOD
// flood is supercritical (a 10^6-node instance reaches ~3.4e5 peers
// per source), so all-sources evaluation is ~N * reach = Theta(N^2)
// work for ANY engine — the scalable regime the engine targets is the
// TTL-bounded one, where per-source reach stays roughly flat in N
// (~2-3e3 peers at TTL 4 for all three sizes). EXPERIMENTS.md records
// the measured reach saturation alongside the timings.
//
// SPPNET_SCALE_MAX_N caps the sweep (CI smoke runs set it to 10000).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sppnet/common/rng.h"
#include "sppnet/io/table.h"
#include "sppnet/model/evaluator.h"
#include "sppnet/model/instance.h"
#include "sppnet/obs/metrics.h"

namespace sppnet::bench {
namespace {

double TimerSeconds(const MetricsRegistry& metrics, const char* name) {
  const auto it = metrics.timers().find(name);
  return it == metrics.timers().end() ? 0.0 : it->second.total_seconds();
}

/// Bitwise comparison of two evaluations; any drift is an engine bug.
bool LoadsIdentical(const InstanceLoads& a, const InstanceLoads& b) {
  if (a.partner_load.size() != b.partner_load.size() ||
      a.client_load.size() != b.client_load.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.partner_load.size(); ++i) {
    if (std::memcmp(&a.partner_load[i], &b.partner_load[i],
                    sizeof(LoadVector)) != 0) {
      return false;
    }
  }
  return a.aggregate.in_bps == b.aggregate.in_bps &&
         a.aggregate.out_bps == b.aggregate.out_bps &&
         a.aggregate.proc_hz == b.aggregate.proc_hz &&
         a.mean_results == b.mean_results && a.mean_epl == b.mean_epl &&
         a.mean_reach == b.mean_reach &&
         a.duplicate_msgs_per_sec == b.duplicate_msgs_per_sec;
}

struct EngineRun {
  const char* engine;
  std::size_t parallelism;
  double seconds = 0.0;
  double expand_seconds = 0.0;
  double accumulate_seconds = 0.0;
  double scratch_bytes = 0.0;
  std::uint64_t frontier_entries = 0;  // (node, source word) level entries.
  std::uint64_t reached = 0;           // (source, node) pairs reached.
  InstanceLoads loads;
};

EngineRun RunEngine(const NetworkInstance& inst, const Configuration& config,
                    const ModelInputs& inputs, EvalEngine engine,
                    std::size_t parallelism) {
  EngineRun result;
  result.engine =
      engine == EvalEngine::kBatched ? "batched" : "scalar_ref";
  result.parallelism = parallelism;
  MetricsRegistry metrics;
  EvalOptions options;
  options.engine = engine;
  options.parallelism = parallelism;
  options.metrics = &metrics;
  const auto t0 = std::chrono::steady_clock::now();
  result.loads = EvaluateInstance(inst, config, inputs, options);
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.expand_seconds = TimerSeconds(metrics, "eval.bfs.expand");
  result.accumulate_seconds = TimerSeconds(metrics, "eval.accumulate");
  result.scratch_bytes = metrics.GaugeValue("eval.scratch.bytes");
  result.frontier_entries = metrics.CounterValue("eval.bfs.frontier_entries");
  result.reached = metrics.CounterValue("eval.reached");
  return result;
}

int Main() {
  Banner("Scale sweep: batched evaluation engine, N = 1e4 / 1e5 / 1e6",
         "model evaluation is the scalable path; reach ~ N^0 per source "
         "keeps per-source cost flat as the overlay grows");

  std::size_t max_n = SmokeMode() ? 10000 : 1000000;
  if (const char* cap = std::getenv("SPPNET_SCALE_MAX_N")) {
    max_n = std::strtoull(cap, nullptr, 10);
  }
  // The scalar reference engine re-runs one BFS per source; past 1e5
  // sources that is bench-hostile, so it is only timed up to this size.
  constexpr std::size_t kScalarMaxN = 100000;

  BenchRun run("scale_sweep");
  run.Config("graph_type", "power_law");
  run.Config("avg_outdegree", 3.1);
  run.Config("cluster_size", 1.0);
  run.Config("ttl", 4);
  run.Config("max_n", max_n);
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  run.Config("hardware_threads", hw);

  const ModelInputs inputs = ModelInputs::Default();
  TableWriter table({"N", "engine", "workers", "eval_s", "expand_s",
                     "accum_s", "Ksrc/s", "scratch_B/node", "speedup",
                     "frontier_entries", "bits_per_word"});
  bool identity_ok = true;

  for (const std::size_t n : {std::size_t{10000}, std::size_t{100000},
                              std::size_t{1000000}}) {
    if (n > max_n) continue;
    Configuration config;
    config.graph_type = GraphType::kPowerLaw;
    config.graph_size = n;
    config.cluster_size = 1;
    config.avg_outdegree = 3.1;
    config.ttl = 4;
    Rng rng(1903);  // ICDE 2003 vintage; one fixed instance per size.
    const auto g0 = std::chrono::steady_clock::now();
    const NetworkInstance inst = GenerateInstance(config, inputs, rng);
    const double generate_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - g0)
            .count();
    std::printf("\nN=%zu: generated in %.2fs, mean reach pending...\n", n,
                generate_seconds);

    std::vector<EngineRun> runs;
    if (n <= kScalarMaxN) {
      runs.push_back(
          RunEngine(inst, config, inputs, EvalEngine::kScalarReference, 1));
    }
    runs.push_back(RunEngine(inst, config, inputs, EvalEngine::kBatched, 1));
    if (hw > 1) {
      runs.push_back(RunEngine(inst, config, inputs, EvalEngine::kBatched, hw));
    }

    // All engine runs of one instance must agree bitwise.
    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (!LoadsIdentical(runs[0].loads, runs[i].loads)) {
        identity_ok = false;
        std::printf("IDENTITY VIOLATION: %s p=%zu vs %s p=%zu at N=%zu\n",
                    runs[0].engine, runs[0].parallelism, runs[i].engine,
                    runs[i].parallelism, n);
      }
    }
    std::printf("N=%zu: mean reach %.1f peers, mean EPL %.3f hops\n", n,
                runs[0].loads.mean_reach, runs[0].loads.mean_epl);

    const double scalar_seconds = n <= kScalarMaxN ? runs[0].seconds : 0.0;
    for (const EngineRun& r : runs) {
      const double speedup =
          scalar_seconds > 0.0 ? scalar_seconds / r.seconds : 0.0;
      table.AddRow({Format(n), r.engine, Format(r.parallelism),
                    Format(r.seconds, 4),
                    Format(r.expand_seconds, 3),
                    Format(r.accumulate_seconds, 3),
                    Format(static_cast<double>(n) / r.seconds / 1e3, 4),
                    Format(r.scratch_bytes / static_cast<double>(n), 4),
                    speedup > 0.0 ? Format(speedup, 3) : std::string("-"),
                    Format(r.frontier_entries),
                    Format(static_cast<double>(r.reached) /
                               static_cast<double>(r.frontier_entries),
                           4)});
    }
    run.metrics()
        .GetGauge("scale.scratch_bytes_per_node.n" + Format(n))
        .Set(runs.back().scratch_bytes / static_cast<double>(n));
  }

  std::printf("\n");
  run.Emit(table, "scale");
  run.Config("identity_ok", identity_ok ? "true" : "false");
  std::printf("\nEngine bit-identity across all runs: %s\n",
              identity_ok ? "OK" : "FAILED");
  return identity_ok ? 0 : 1;
}

}  // namespace
}  // namespace sppnet::bench

int main() { return sppnet::bench::Main(); }
