// Hardening suite for the length-framed checkpoint codec
// (io/checkpoint.*): a checkpoint that survived the disk or the wire
// intact round-trips bit-exactly, and EVERY corrupted variant —
// truncation at any byte offset, any single bit flip, a foreign magic
// or version — is rejected up front by CheckpointReader::Open, before
// a single field is decoded. Malformed field-level payloads (huge
// vector counts, tag drift, over-reads) fail cleanly through ok(),
// never through a crash or a huge allocation.

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/io/checkpoint.h"
#include "sppnet/sim/stream.h"

namespace sppnet {
namespace {

constexpr std::uint32_t kMagic = 0x74736554u;  // "Test"
constexpr std::uint16_t kVersion = 3;
constexpr std::uint32_t kTagA = 0x61616161u;
constexpr std::uint32_t kTagB = 0x62626262u;

std::vector<std::uint8_t> SampleCheckpoint() {
  CheckpointWriter w(kMagic, kVersion);
  w.BeginSection(kTagA);
  w.PutU8(0x5a);
  w.PutU32(0xdeadbeefu);
  w.PutU64(0x0123456789abcdefull);
  w.PutBool(true);
  w.PutBool(false);
  w.PutDouble(-0.0);
  w.PutDouble(1.0 / 3.0);
  w.PutString("query trace");
  w.PutString("");
  w.BeginSection(kTagB);
  w.PutU8Vector({1, 2, 3});
  w.PutU32Vector({});
  w.PutU64Vector({0xffffffffffffffffull, 0});
  w.PutDoubleVector({3.5, -2.25, 0.0});
  return w.Finish();
}

TEST(CheckpointCodecTest, RoundTripsBitExactly) {
  const std::vector<std::uint8_t> bytes = SampleCheckpoint();
  std::optional<CheckpointReader> opened =
      CheckpointReader::Open(bytes, kMagic, kVersion);
  ASSERT_TRUE(opened.has_value());
  CheckpointReader& r = *opened;
  EXPECT_TRUE(r.BeginSection(kTagA));
  EXPECT_EQ(r.GetU8(), 0x5a);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.GetBool());
  EXPECT_FALSE(r.GetBool());
  const double neg_zero = r.GetDouble();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // Bit pattern, not a text trip.
  EXPECT_EQ(r.GetDouble(), 1.0 / 3.0);
  EXPECT_EQ(r.GetString(), "query trace");
  EXPECT_EQ(r.GetString(), "");
  EXPECT_TRUE(r.BeginSection(kTagB));
  EXPECT_EQ(r.GetU8Vector(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.GetU32Vector(), (std::vector<std::uint32_t>{}));
  EXPECT_EQ(r.GetU64Vector(),
            (std::vector<std::uint64_t>{0xffffffffffffffffull, 0}));
  EXPECT_EQ(r.GetDoubleVector(), (std::vector<double>{3.5, -2.25, 0.0}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CheckpointCodecTest, TruncationAtEveryByteOffsetIsRejected) {
  const std::vector<std::uint8_t> bytes = SampleCheckpoint();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_FALSE(CheckpointReader::Open(prefix, kMagic, kVersion).has_value())
        << "truncated to " << len << " of " << bytes.size() << " bytes";
  }
}

TEST(CheckpointCodecTest, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> bytes = SampleCheckpoint();
  bytes.push_back(0x00);
  EXPECT_FALSE(CheckpointReader::Open(bytes, kMagic, kVersion).has_value());
}

TEST(CheckpointCodecTest, EverySingleBitFlipIsRejected) {
  const std::vector<std::uint8_t> pristine = SampleCheckpoint();
  // Every bit of every byte — header, payload and the checksum trailer
  // itself all participate in the integrity check.
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bytes = pristine;
      bytes[i] = static_cast<std::uint8_t>(bytes[i] ^ (1u << bit));
      EXPECT_FALSE(CheckpointReader::Open(bytes, kMagic, kVersion).has_value())
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(CheckpointCodecTest, WrongMagicAndVersionAreRejected) {
  const std::vector<std::uint8_t> bytes = SampleCheckpoint();
  EXPECT_FALSE(
      CheckpointReader::Open(bytes, kMagic + 1, kVersion).has_value());
  EXPECT_FALSE(
      CheckpointReader::Open(bytes, kMagic, kVersion + 1).has_value());
  // A stream checkpoint's own identity is enforced the same way.
  EXPECT_FALSE(CheckpointReader::Open(bytes, kStreamCheckpointMagic,
                                      kStreamCheckpointVersion)
                   .has_value());
}

TEST(CheckpointCodecTest, EmptyBufferIsRejected) {
  EXPECT_FALSE(CheckpointReader::Open({}, kMagic, kVersion).has_value());
}

TEST(CheckpointCodecTest, SectionTagMismatchPoisonsTheReader) {
  CheckpointWriter w(kMagic, kVersion);
  w.BeginSection(kTagA);
  w.PutU64(42);
  const std::vector<std::uint8_t> bytes = w.Finish();
  std::optional<CheckpointReader> opened =
      CheckpointReader::Open(bytes, kMagic, kVersion);
  ASSERT_TRUE(opened.has_value());
  EXPECT_FALSE(opened->BeginSection(kTagB));
  EXPECT_FALSE(opened->ok());
  // Poisoned readers keep returning zero values, never trap.
  EXPECT_EQ(opened->GetU64(), 0u);
}

TEST(CheckpointCodecTest, OverReadFailsCleanlyWithZeroValues) {
  CheckpointWriter w(kMagic, kVersion);
  w.PutU32(7);
  const std::vector<std::uint8_t> bytes = w.Finish();
  std::optional<CheckpointReader> opened =
      CheckpointReader::Open(bytes, kMagic, kVersion);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->GetU32(), 7u);
  EXPECT_TRUE(opened->AtEnd());
  EXPECT_EQ(opened->GetU64(), 0u);
  EXPECT_FALSE(opened->ok());
  EXPECT_EQ(opened->GetString(), "");
  EXPECT_TRUE(opened->GetDoubleVector().empty());
}

TEST(CheckpointCodecTest, HugeVectorCountFailsWithoutAllocating) {
  // A checksum-valid envelope whose payload CLAIMS a vector of 2^61
  // doubles: the element count passes the frame check only if the
  // reader multiplies it out before allocating.
  CheckpointWriter w(kMagic, kVersion);
  w.PutU64(1ull << 61);  // Vector length prefix with no elements behind it.
  const std::vector<std::uint8_t> bytes = w.Finish();
  std::optional<CheckpointReader> opened =
      CheckpointReader::Open(bytes, kMagic, kVersion);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->GetDoubleVector().empty());
  EXPECT_FALSE(opened->ok());
}

TEST(CheckpointCodecTest, HugeStringLengthFailsWithoutAllocating) {
  CheckpointWriter w(kMagic, kVersion);
  w.PutU64(1ull << 61);
  const std::vector<std::uint8_t> bytes = w.Finish();
  std::optional<CheckpointReader> opened =
      CheckpointReader::Open(bytes, kMagic, kVersion);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->GetString(), "");
  EXPECT_FALSE(opened->ok());
}

TEST(CheckpointCodecTest, PayloadSizeMatchesWriterAccounting) {
  CheckpointWriter w(kMagic, kVersion);
  EXPECT_EQ(w.payload_size(), 0u);
  w.PutU8(1);
  w.PutU32(2);
  w.PutU64(3);
  w.PutDouble(4.0);
  EXPECT_EQ(w.payload_size(), 1u + 4u + 8u + 8u);
  const std::vector<std::uint8_t> bytes = w.Finish();
  // magic(4) + version(2) + size(8) + payload + checksum(8).
  EXPECT_EQ(bytes.size(), 4u + 2u + 8u + 21u + 8u);
}

TEST(CheckpointCodecDeathTest, MalformedStreamOptionsAbort) {
  {
    StreamOptions o;
    o.window_seconds = 0.0;
    EXPECT_DEATH(o.Validate(), "stream window must be finite and > 0");
  }
  {
    StreamOptions o;
    o.window_seconds = -5.0;
    EXPECT_DEATH(o.Validate(), "stream window must be finite and > 0");
  }
  {
    StreamOptions o;
    o.window_seconds = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(o.Validate(), "stream window must be finite and > 0");
  }
  {
    StreamOptions o;
    o.window_seconds = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(o.Validate(), "stream window must be finite and > 0");
  }
}

TEST(CheckpointCodecTest, Fnv1aPrimitivesMatchEachOther) {
  // Fnv1aMix64 must equal Fnv1a64 over the value's little-endian bytes
  // — the stream layer relies on mixing scalars and byte spans into
  // one digest interchangeably.
  const std::uint64_t v = 0x1122334455667788ull;
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu);
  }
  EXPECT_EQ(Fnv1aMix64(kFnv1aOffset, v), Fnv1a64(le, kFnv1aOffset));
}

}  // namespace
}  // namespace sppnet
