// Sustained streaming throughput: the serving-layer claim that the
// simulator can ingest an unbounded event stream at a flat rate and a
// flat resident footprint. One StreamDriver runs a 1e8-event flood
// workload (2e6 in CI smoke) window by window; the run is split into
// ten event-count deciles and each decile's events/sec and RSS are
// reported. Acceptance (EXPERIMENTS.md): last-decile throughput within
// 10 % of the first decile, RSS flat within 5 % after warmup — the
// state-retirement horizon keeps per-query state bounded, so neither
// time nor memory grows with stream length.
//
// Mid-run, a checkpoint is cut and later restored into a fresh driver;
// the restored driver must replay the following windows byte-for-byte
// (running snapshot digest and per-window event deltas), folding the
// resume-equivalence contract of tests/sim/checkpoint_test.cc into the
// long-run bench itself. Digest violations fail the binary; throughput
// ratios are reported, not asserted (CI smoke numbers are noisy).

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sppnet/common/rng.h"
#include "sppnet/io/table.h"
#include "sppnet/model/instance.h"
#include "sppnet/sim/simulator.h"
#include "sppnet/sim/stream.h"

namespace sppnet::bench {
namespace {

/// Resident set size in bytes, from /proc/self/statm (Linux).
double ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long total = 0;
  long resident = 0;
  const int matched = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (matched != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

struct Decile {
  std::uint64_t events = 0;
  double seconds = 0.0;
  double rss_bytes = 0.0;
  double sim_time = 0.0;
};

int Main() {
  Banner("Sustained streaming throughput: unbounded run, flat memory",
         "the serving layer must hold events/sec and RSS steady over "
         "1e8 events, with checkpoint/restore verified mid-run");

  const bool smoke = SmokeMode();
  std::uint64_t target_events = smoke ? 2'000'000ull : 100'000'000ull;
  if (const char* cap = std::getenv("SPPNET_SUSTAINED_EVENTS")) {
    target_events = std::strtoull(cap, nullptr, 10);
  }

  Configuration config;
  config.graph_type = GraphType::kPowerLaw;
  config.graph_size = 10000;
  config.cluster_size = 10.0;
  config.avg_outdegree = 4.0;
  config.ttl = 4;
  const ModelInputs inputs = ModelInputs::Default();
  Rng rng(1903);
  const NetworkInstance instance = GenerateInstance(config, inputs, rng);

  SimOptions options;
  options.seed = 7;
  options.warmup_seconds = 10.0;
  // The measurement window must outlast the stream: the driver keeps
  // ingesting for as many windows as the event target needs.
  options.duration_seconds = 1e9;
  options.churn.enable = true;
  options.churn.partner_recovery_seconds = 20.0;

  // ~175k events per simulated second at this size: 2 s windows give
  // the decile accounting fine enough grain even in smoke mode, and a
  // few hundred windows on the full run.
  StreamOptions stream;
  stream.window_seconds = 2.0;

  BenchRun run("sustained_throughput");
  run.Config("graph_size", config.graph_size);
  run.Config("strategy", "flood");
  run.Config("enable_churn", "true");
  run.Config("window_seconds", stream.window_seconds);
  run.Config("target_events", static_cast<std::size_t>(target_events));
  run.Config("smoke", smoke ? "true" : "false");

  StreamDriver driver(instance, config, inputs, options, stream);

  // Window history for the in-run restore verification: the running
  // digest and cumulative event count after every window (u64 pairs —
  // bounded bookkeeping, unlike the snapshots themselves).
  std::vector<std::uint64_t> digest_after;
  std::vector<std::uint64_t> events_after;
  std::vector<std::uint8_t> checkpoint_bytes;
  std::uint64_t checkpoint_window = 0;

  const std::uint64_t per_decile = target_events / 10;
  std::vector<Decile> deciles(10);
  std::size_t decile = 0;
  std::uint64_t decile_start_events = 0;
  auto decile_start = std::chrono::steady_clock::now();

  while (decile < 10) {
    driver.AdvanceWindow();
    digest_after.push_back(driver.snapshot_digest());
    events_after.push_back(driver.events_dispatched());

    // Cut the checkpoint early, around the first decile boundary: the
    // retained buffer is then part of the post-warmup RSS baseline
    // instead of a mid-run step the flatness ratio would misread as
    // growth.
    if (checkpoint_bytes.empty() &&
        driver.events_dispatched() >= per_decile) {
      checkpoint_window = driver.windows_emitted();
      checkpoint_bytes = driver.Checkpoint();
    }

    const std::uint64_t done = driver.events_dispatched();
    if (done - decile_start_events >= per_decile &&
        (decile + 1 < 10 || done >= target_events)) {
      const auto now = std::chrono::steady_clock::now();
      Decile& d = deciles[decile];
      d.events = done - decile_start_events;
      d.seconds = std::chrono::duration<double>(now - decile_start).count();
      d.rss_bytes = ResidentBytes();
      d.sim_time = driver.Now();
      decile_start_events = done;
      decile_start = now;
      ++decile;
    }
  }

  const std::uint64_t total_windows = driver.windows_emitted();
  // How long per-query state was held: the longest submit-to-retire
  // span the simulator observed over the whole stream (retirement is
  // exact, so this is a measurement, not a configured horizon).
  run.Config("retention_seconds", driver.effective_retention_seconds());

  TableWriter table({"decile", "events", "wall_s", "Kev/s", "RSS_MiB",
                     "sim_t"});
  for (std::size_t i = 0; i < deciles.size(); ++i) {
    const Decile& d = deciles[i];
    table.AddRow({Format(i + 1), Format(d.events), Format(d.seconds, 3),
                  Format(static_cast<double>(d.events) / d.seconds / 1e3, 2),
                  Format(d.rss_bytes / (1024.0 * 1024.0), 1),
                  Format(d.sim_time, 0)});
    run.metrics()
        .GetGauge("stream.events_per_sec.decile" + Format(i + 1))
        .Set(static_cast<double>(d.events) / d.seconds);
    run.metrics()
        .GetGauge("stream.rss_bytes.decile" + Format(i + 1))
        .Set(d.rss_bytes);
  }
  run.Emit(table, "deciles");

  const double first_rate =
      static_cast<double>(deciles.front().events) / deciles.front().seconds;
  const double last_rate =
      static_cast<double>(deciles.back().events) / deciles.back().seconds;
  const double rate_ratio = last_rate / first_rate;
  // RSS is judged after warmup: decile 2 vs decile 10 (decile 1 still
  // includes allocator ramp-up and first-touch of the dense arrays).
  const double rss_ratio = deciles.back().rss_bytes / deciles[1].rss_bytes;
  run.Config("events_per_sec_last_over_first", rate_ratio);
  run.Config("rss_last_over_post_warmup", rss_ratio);
  run.metrics().GetGauge("stream.windows").Set(
      static_cast<double>(total_windows));
  run.metrics().GetGauge("stream.events_total").Set(
      static_cast<double>(driver.events_dispatched()));

  std::printf("\n%llu events over %llu windows (%.0f simulated seconds)\n",
              static_cast<unsigned long long>(driver.events_dispatched()),
              static_cast<unsigned long long>(total_windows), driver.Now());
  std::printf("throughput last/first decile: %.3f (target within 0.90-1.10 "
              "on full runs)\n",
              rate_ratio);
  std::printf("RSS last/post-warmup decile:  %.3f (target within 0.95-1.05 "
              "on full runs)\n",
              rss_ratio);

  // --- In-run checkpoint/restore verification ---------------------
  // Restore the mid-run cut into a fresh driver and replay up to three
  // windows; its running digest and event counts must land exactly on
  // the recorded history of the uninterrupted run.
  bool restore_ok = !checkpoint_bytes.empty();
  if (restore_ok) {
    StreamDriver resumed(instance, config, inputs, options, stream);
    restore_ok = resumed.Restore(checkpoint_bytes);
    const std::uint64_t replay_until =
        std::min<std::uint64_t>(checkpoint_window + 3, total_windows);
    for (std::uint64_t w = checkpoint_window;
         restore_ok && w < replay_until; ++w) {
      resumed.AdvanceWindow();
      restore_ok = resumed.snapshot_digest() == digest_after[w] &&
                   resumed.events_dispatched() == events_after[w];
      if (!restore_ok) {
        std::printf("RESTORE DIVERGENCE at window %llu\n",
                    static_cast<unsigned long long>(w + 1));
      }
    }
  }
  run.Config("restore_ok", restore_ok ? "true" : "false");
  std::printf("checkpoint at window %llu, restore replay: %s\n",
              static_cast<unsigned long long>(checkpoint_window),
              restore_ok ? "bit-identical" : "FAILED");

  return restore_ok ? 0 : 1;
}

}  // namespace
}  // namespace sppnet::bench

int main() { return sppnet::bench::Main(); }
