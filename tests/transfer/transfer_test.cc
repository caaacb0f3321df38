#include "sppnet/transfer/transfer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace sppnet {
namespace {

TransferOptions FastOptions() {
  TransferOptions options;
  options.duration_seconds = 2000.0;
  options.download_rate_per_user = 5e-3;  // Busy enough to queue.
  return options;
}

TEST(TransferTest, CompletesTransfers) {
  const CapacityDistribution caps = CapacityDistribution::Default();
  const TransferReport r = SimulateTransfers(300, caps, FastOptions());
  EXPECT_GT(r.requests, 0u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.completion_seconds.mean, 0.0);
  EXPECT_GT(r.mean_upload_bps, 0.0);
  EXPECT_GE(r.max_upload_bps, r.mean_upload_bps);
}

TEST(TransferTest, DeterministicForSameSeed) {
  const CapacityDistribution caps = CapacityDistribution::Default();
  const TransferReport a = SimulateTransfers(200, caps, FastOptions());
  const TransferReport b = SimulateTransfers(200, caps, FastOptions());
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.completion_seconds.mean, b.completion_seconds.mean);
}

TEST(TransferTest, WaitsShrinkWithMoreSlots) {
  const CapacityDistribution caps = CapacityDistribution::Default();
  TransferOptions few = FastOptions();
  few.upload_slots = 1;
  TransferOptions many = FastOptions();
  many.upload_slots = 8;
  const TransferReport r_few = SimulateTransfers(300, caps, few);
  const TransferReport r_many = SimulateTransfers(300, caps, many);
  EXPECT_GT(r_few.wait_seconds.mean, r_many.wait_seconds.mean);
}

TEST(TransferTest, BiggerFilesTakeLonger) {
  // Compare the uncensored planned service times: completion stats are
  // right-censored by the window (huge files never finish inside it).
  const CapacityDistribution caps = CapacityDistribution::Default();
  TransferOptions small = FastOptions();
  small.mean_file_mb = 1.0;
  TransferOptions large = FastOptions();
  large.mean_file_mb = 16.0;
  const TransferReport r_small = SimulateTransfers(300, caps, small);
  const TransferReport r_large = SimulateTransfers(300, caps, large);
  EXPECT_GT(r_large.planned_duration_seconds.median,
            8.0 * r_small.planned_duration_seconds.median);
}

TEST(TransferTest, ImpatientRequestersAbandon) {
  const CapacityDistribution caps = CapacityDistribution::Default();
  TransferOptions overloaded = FastOptions();
  overloaded.download_rate_per_user = 0.05;  // Far beyond capacity.
  overloaded.upload_slots = 1;
  overloaded.patience_seconds = 120.0;
  const TransferReport r = SimulateTransfers(200, caps, overloaded);
  EXPECT_GT(r.abandoned, 0u);
  EXPECT_GT(r.often_saturated_fraction, 0.0);
}

// FNV-1a over the bit patterns of every TransferReport field, in
// declaration order: the pin below fails on any change to the report.
std::uint64_t TransferDigest(const TransferReport& r) {
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
  const auto mix_summary = [&](const Summary& s) {
    mix(s.count);
    for (const double v :
         {s.mean, s.stddev, s.min, s.max, s.median, s.p90, s.p99}) {
      mix_d(v);
    }
  };
  mix(r.requests);
  mix(r.completed);
  mix(r.abandoned);
  mix_summary(r.completion_seconds);
  mix_summary(r.planned_duration_seconds);
  mix_summary(r.wait_seconds);
  mix_d(r.mean_upload_bps);
  mix_d(r.max_upload_bps);
  mix_d(r.often_saturated_fraction);
  return h;
}

TEST(TransferTest, ReportIsPinnedForFixedSeeds) {
  // Two seeds of a queueing, abandoning run: every report field is
  // digested, so a change to the event order or to any statistic shows.
  const CapacityDistribution caps = CapacityDistribution::Default();
  TransferOptions options = FastOptions();
  options.upload_slots = 2;
  options.patience_seconds = 300.0;
  const struct {
    std::uint64_t seed;
    std::uint64_t digest;
  } kPins[] = {
      {29, 0x4725957f67b82b21ull},
      {7, 0xdc81cd527a6dad8cull},
  };
  for (const auto& pin : kPins) {
    options.seed = pin.seed;
    const TransferReport r = SimulateTransfers(300, caps, options);
    EXPECT_GT(r.abandoned, 0u) << "seed " << pin.seed;
    EXPECT_EQ(TransferDigest(r), pin.digest)
        << "seed " << pin.seed << " digest 0x" << std::hex
        << TransferDigest(r);
  }
}

TEST(TransferTest, AccountingIsConsistent) {
  const CapacityDistribution caps = CapacityDistribution::Default();
  const TransferReport r = SimulateTransfers(250, caps, FastOptions());
  // Every completed transfer waited first; counts line up.
  EXPECT_EQ(r.wait_seconds.count >= r.completion_seconds.count, true);
  EXPECT_LE(r.completed + r.abandoned, r.requests);
}

}  // namespace
}  // namespace sppnet
