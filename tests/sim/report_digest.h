#ifndef SPPNET_TESTS_SIM_REPORT_DIGEST_H_
#define SPPNET_TESTS_SIM_REPORT_DIGEST_H_

// The one generator of the pinned SimReport digests shared by the
// engine-equivalence, sharded-equivalence and stream suites.

#include <cstdint>
#include <cstring>

#include "sppnet/sim/simulator.h"

namespace sppnet {

// FNV-1a over the bit patterns of every report field that existed
// before the calendar-queue / dense-state overhaul, in declaration
// order. The whole-run event totals added later are compared across
// engine matrices separately, not digested. Must match the generator
// that produced the pinned digests byte for byte.
inline std::uint64_t ReportDigest(const SimReport& r) {
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
  // The result-cache hit count, since removed with the cache; it was 0
  // in every remaining golden, so mixing 0 keeps every pin unchanged.
  mix(0);
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
  return h;
}

}  // namespace sppnet

#endif  // SPPNET_TESTS_SIM_REPORT_DIGEST_H_
