#include "sppnet/transfer/transfer.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "sppnet/common/check.h"
#include "sppnet/common/distributions.h"
#include "sppnet/sim/event_queue.h"

namespace sppnet {
namespace {

enum : std::uint32_t {
  kRequestArrival = 0,
  kTransferComplete,
};

struct PendingRequest {
  std::uint32_t requester = 0;
  double request_time = 0.0;
  double size_bytes = 0.0;
};

struct ServerState {
  std::uint32_t busy_slots = 0;
  std::deque<PendingRequest> queue;
  double upload_bytes = 0.0;
  double saturated_since = -1.0;
  double saturated_seconds = 0.0;
  bool served = false;
};

}  // namespace

TransferReport SimulateTransfers(std::size_t num_peers,
                                 const CapacityDistribution& capacities,
                                 const TransferOptions& options) {
  SPPNET_CHECK(num_peers >= 2);
  SPPNET_CHECK(options.upload_slots >= 1);
  Rng rng(options.seed);

  std::vector<PeerCapacity> caps;
  caps.reserve(num_peers);
  for (std::size_t i = 0; i < num_peers; ++i) {
    caps.push_back(capacities.Sample(rng));
  }
  std::vector<ServerState> servers(num_peers);

  // Which owner a requester downloads from: search returns the owners
  // of matching files, and popular content concentrates on popular
  // peers — modeled as a Zipf choice over the population.
  const ZipfDistribution server_choice(num_peers, 0.8);
  const LogNormalDistribution file_size = LogNormalDistribution::FromMeanAndMedian(
      options.mean_file_mb * 1e6,
      options.mean_file_mb * 1e6 / std::exp(0.5 * options.file_size_sigma *
                                            options.file_size_sigma));

  const double arrival_rate =
      options.download_rate_per_user * static_cast<double>(num_peers);
  SPPNET_CHECK(arrival_rate > 0.0);

  CalendarQueue queue;
  double now = 0.0;
  const auto exp_delay = [&rng](double rate) {
    return -std::log(1.0 - rng.NextDouble()) / rate;
  };
  {
    SimEvent e;
    e.time = exp_delay(arrival_rate);
    e.kind = kRequestArrival;
    queue.Schedule(e);
  }

  TransferReport report;
  std::vector<double> completions;
  std::vector<double> planned;
  std::vector<double> waits;

  const auto mark_saturation = [&](std::size_t s) {
    ServerState& server = servers[s];
    const bool saturated = server.busy_slots >= options.upload_slots;
    if (saturated && server.saturated_since < 0.0) {
      server.saturated_since = now;
    } else if (!saturated && server.saturated_since >= 0.0) {
      server.saturated_seconds += now - server.saturated_since;
      server.saturated_since = -1.0;
    }
  };

  const auto start_transfer = [&](std::size_t s, const PendingRequest& req) {
    ServerState& server = servers[s];
    ++server.busy_slots;
    server.served = true;
    server.upload_bytes += req.size_bytes;
    mark_saturation(s);
    // Static per-slot budgeting (the paper's style of provisioning):
    // the server grants uplink/slots to each transfer, the requester
    // caps it at its downlink.
    const double rate_bps =
        std::min(caps[s].up_bps / static_cast<double>(options.upload_slots),
                 caps[req.requester].down_bps);
    const double duration = req.size_bytes * 8.0 / std::max(rate_bps, 1.0);
    planned.push_back(duration);
    waits.push_back(now - req.request_time);
    SimEvent e;
    e.time = now + duration;
    e.kind = kTransferComplete;
    e.node = static_cast<std::uint32_t>(s);
    e.x = req.request_time;
    queue.Schedule(e);
  };

  while (!queue.empty() && queue.NextTime() <= options.duration_seconds) {
    const SimEvent e = queue.Pop();
    now = e.time;
    switch (e.kind) {
      case kRequestArrival: {
        // Next arrival.
        SimEvent next;
        next.time = now + exp_delay(arrival_rate);
        next.kind = kRequestArrival;
        queue.Schedule(next);

        PendingRequest req;
        req.requester = static_cast<std::uint32_t>(rng.NextBounded(num_peers));
        req.request_time = now;
        req.size_bytes = file_size.Sample(rng);
        std::size_t server = server_choice.Sample(rng);
        if (server == req.requester) server = (server + 1) % num_peers;
        ++report.requests;

        if (servers[server].busy_slots < options.upload_slots) {
          start_transfer(server, req);
        } else {
          servers[server].queue.push_back(req);
        }
        break;
      }
      case kTransferComplete: {
        const std::size_t s = e.node;
        ServerState& server = servers[s];
        SPPNET_CHECK(server.busy_slots > 0);
        --server.busy_slots;
        mark_saturation(s);
        ++report.completed;
        completions.push_back(now - e.x);
        // Admit the next queued request whose requester is still
        // patient; drop the ones that gave up in the meantime.
        while (!server.queue.empty() &&
               server.busy_slots < options.upload_slots) {
          const PendingRequest req = server.queue.front();
          server.queue.pop_front();
          if (now - req.request_time > options.patience_seconds) {
            ++report.abandoned;
            continue;
          }
          start_transfer(s, req);
        }
        break;
      }
      default:
        SPPNET_CHECK_MSG(false, "unknown transfer event");
    }
  }

  // Requests still waiting past their patience at the end count as
  // abandoned; patient ones are simply censored (neither bucket).
  now = options.duration_seconds;
  for (std::size_t s = 0; s < num_peers; ++s) {
    mark_saturation(s);
    for (const PendingRequest& req : servers[s].queue) {
      if (now - req.request_time > options.patience_seconds) {
        ++report.abandoned;
      }
    }
  }

  report.completion_seconds = Summarize(completions);
  report.planned_duration_seconds = Summarize(planned);
  report.wait_seconds = Summarize(waits);
  double upload_sum = 0.0;
  std::size_t serving = 0;
  double saturated_often = 0.0;
  for (std::size_t s = 0; s < num_peers; ++s) {
    const ServerState& server = servers[s];
    if (!server.served) continue;
    ++serving;
    const double bps =
        server.upload_bytes * 8.0 / options.duration_seconds;
    upload_sum += bps;
    report.max_upload_bps = std::max(report.max_upload_bps, bps);
    if (server.saturated_seconds >= 0.5 * options.duration_seconds) {
      saturated_often += 1.0;
    }
  }
  if (serving > 0) {
    report.mean_upload_bps = upload_sum / static_cast<double>(serving);
    report.often_saturated_fraction =
        saturated_often / static_cast<double>(serving);
  }
  return report;
}

}  // namespace sppnet
