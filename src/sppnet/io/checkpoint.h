#ifndef SPPNET_IO_CHECKPOINT_H_
#define SPPNET_IO_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sppnet/common/rng.h"
#include "sppnet/proto/wire.h"

namespace sppnet {

/// FNV-1a 64-bit parameters, shared by the checkpoint checksum and the
/// streaming layer's snapshot digests.
inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// Folds `bytes` into a running FNV-1a 64-bit state.
std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t state = kFnv1aOffset);

/// Folds one 64-bit value (little-endian bytes) into an FNV-1a state.
inline std::uint64_t Fnv1aMix64(std::uint64_t state, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    state ^= (v >> (8 * i)) & 0xffu;
    state *= kFnv1aPrime;
  }
  return state;
}

/// Length-framed checkpoint writer in the proto/ wire discipline.
///
/// Layout: u32 magic | u16 version | u64 payload size | payload |
/// u64 FNV-1a checksum over every preceding byte. Sections inside the
/// payload are tagged (BeginSection) so reader and writer drift is
/// caught structurally rather than by silent misinterpretation.
class CheckpointWriter {
 public:
  CheckpointWriter(std::uint32_t magic, std::uint16_t version)
      : magic_(magic), version_(version) {}

  /// Writes a section tag; the reader must consume the same tag at the
  /// same offset.
  void BeginSection(std::uint32_t tag) { payload_.PutU32(tag); }

  void PutU8(std::uint8_t v) { payload_.PutU8(v); }
  void PutU32(std::uint32_t v) { payload_.PutU32(v); }
  void PutU64(std::uint64_t v) { payload_.PutU64(v); }
  void PutBool(bool v) { payload_.PutU8(v ? 1 : 0); }
  /// Doubles travel as their IEEE-754 bit pattern: restore is
  /// bit-exact, never a formatted round-trip.
  void PutDouble(double v);
  /// u64 length prefix + raw bytes.
  void PutString(std::string_view s);

  void PutU8Vector(const std::vector<std::uint8_t>& v);
  void PutU32Vector(const std::vector<std::uint32_t>& v);
  void PutU64Vector(const std::vector<std::uint64_t>& v);
  void PutDoubleVector(const std::vector<double>& v);

  std::size_t payload_size() const { return payload_.size(); }

  /// Seals the envelope: header + payload + trailing checksum. The
  /// writer is spent afterwards.
  std::vector<std::uint8_t> Finish();

 private:
  std::uint32_t magic_;
  std::uint16_t version_;
  ByteWriter payload_;
};

/// Validating checkpoint reader. Open() verifies magic, version, frame
/// length and checksum up front and returns std::nullopt on any
/// mismatch — a truncated, bit-flipped or foreign buffer is rejected
/// before a single field is decoded. Getters after a successful Open
/// follow the ByteReader idiom: they return zero values once the
/// payload is exhausted or a section tag mismatches, and the caller
/// checks ok() once at the end.
///
/// The reader aliases `bytes`; the buffer must outlive it.
class CheckpointReader {
 public:
  static std::optional<CheckpointReader> Open(
      std::span<const std::uint8_t> bytes, std::uint32_t magic,
      std::uint16_t version);

  /// Consumes a section tag; a mismatch poisons the reader.
  bool BeginSection(std::uint32_t tag);

  std::uint8_t GetU8();
  std::uint32_t GetU32();
  std::uint64_t GetU64();
  bool GetBool() { return GetU8() != 0; }
  double GetDouble();
  std::string GetString();

  std::vector<std::uint8_t> GetU8Vector();
  std::vector<std::uint32_t> GetU32Vector();
  std::vector<std::uint64_t> GetU64Vector();
  std::vector<double> GetDoubleVector();

  bool ok() const { return !failed_; }
  bool AtEnd() const { return reader_.AtEnd(); }

 private:
  explicit CheckpointReader(std::span<const std::uint8_t> payload)
      : reader_(payload) {}

  /// Returns false (and poisons the reader) unless `count` elements of
  /// `elem_size` bytes are still available — malformed counts fail
  /// cleanly instead of attempting a huge allocation.
  bool CheckAvailable(std::uint64_t count, std::size_t elem_size);

  ByteReader reader_;
  bool failed_ = false;
};

/// An RNG stream's full state (xoshiro words plus the cached Gaussian
/// spare), so a restored stream continues bit-identically.
void PutRng(CheckpointWriter& w, const Rng& rng);
/// Counterpart of PutRng; leaves `rng` untouched once `r` has failed.
void GetRng(CheckpointReader& r, Rng& rng);

}  // namespace sppnet

#endif  // SPPNET_IO_CHECKPOINT_H_
