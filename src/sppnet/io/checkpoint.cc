#include "sppnet/io/checkpoint.h"

#include <bit>
#include <cstddef>

namespace sppnet {
namespace {

constexpr std::size_t kHeaderBytes =
    sizeof(std::uint32_t) + sizeof(std::uint16_t) + sizeof(std::uint64_t);
constexpr std::size_t kChecksumBytes = sizeof(std::uint64_t);

}  // namespace

std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t state) {
  for (const std::uint8_t b : bytes) {
    state ^= b;
    state *= kFnv1aPrime;
  }
  return state;
}

void CheckpointWriter::PutDouble(double v) {
  payload_.PutU64(std::bit_cast<std::uint64_t>(v));
}

void CheckpointWriter::PutString(std::string_view s) {
  payload_.PutU64(s.size());
  payload_.PutBytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void CheckpointWriter::PutU8Vector(const std::vector<std::uint8_t>& v) {
  payload_.PutU64(v.size());
  payload_.PutBytes(v);
}

void CheckpointWriter::PutU32Vector(const std::vector<std::uint32_t>& v) {
  payload_.PutU64(v.size());
  for (const std::uint32_t x : v) payload_.PutU32(x);
}

void CheckpointWriter::PutU64Vector(const std::vector<std::uint64_t>& v) {
  payload_.PutU64(v.size());
  for (const std::uint64_t x : v) payload_.PutU64(x);
}

void CheckpointWriter::PutDoubleVector(const std::vector<double>& v) {
  payload_.PutU64(v.size());
  for (const double x : v) payload_.PutU64(std::bit_cast<std::uint64_t>(x));
}

std::vector<std::uint8_t> CheckpointWriter::Finish() {
  ByteWriter envelope;
  envelope.PutU32(magic_);
  envelope.PutU16(version_);
  envelope.PutU64(payload_.size());
  envelope.PutBytes(payload_.bytes());
  const std::uint64_t checksum = Fnv1a64(envelope.bytes());
  envelope.PutU64(checksum);
  return envelope.Take();
}

std::optional<CheckpointReader> CheckpointReader::Open(
    std::span<const std::uint8_t> bytes, std::uint32_t magic,
    std::uint16_t version) {
  if (bytes.size() < kHeaderBytes + kChecksumBytes) return std::nullopt;
  ByteReader header(bytes);
  if (header.GetU32() != magic) return std::nullopt;
  if (header.GetU16() != version) return std::nullopt;
  const std::uint64_t payload_size = *header.GetU64();
  if (payload_size != bytes.size() - kHeaderBytes - kChecksumBytes) {
    return std::nullopt;
  }
  const std::span<const std::uint8_t> body =
      bytes.first(bytes.size() - kChecksumBytes);
  ByteReader trailer(bytes.subspan(bytes.size() - kChecksumBytes));
  if (Fnv1a64(body) != *trailer.GetU64()) return std::nullopt;
  return CheckpointReader(
      bytes.subspan(kHeaderBytes, static_cast<std::size_t>(payload_size)));
}

bool CheckpointReader::BeginSection(std::uint32_t tag) {
  if (GetU32() != tag) failed_ = true;
  return !failed_;
}

// Failure is sticky across ALL getters: once a section tag mismatched
// or a read ran past the payload, every later value is a zero, never a
// reinterpretation of unrelated bytes (tests/io/checkpoint_codec_test).
std::uint8_t CheckpointReader::GetU8() {
  if (failed_) return 0;
  const auto v = reader_.GetU8();
  if (!v.has_value()) failed_ = true;
  return v.value_or(0);
}

std::uint32_t CheckpointReader::GetU32() {
  if (failed_) return 0;
  const auto v = reader_.GetU32();
  if (!v.has_value()) failed_ = true;
  return v.value_or(0);
}

std::uint64_t CheckpointReader::GetU64() {
  if (failed_) return 0;
  const auto v = reader_.GetU64();
  if (!v.has_value()) failed_ = true;
  return v.value_or(0);
}

double CheckpointReader::GetDouble() {
  return std::bit_cast<double>(GetU64());
}

bool CheckpointReader::CheckAvailable(std::uint64_t count,
                                      std::size_t elem_size) {
  if (failed_ || count > reader_.remaining() / elem_size) {
    failed_ = true;
    return false;
  }
  return true;
}

std::string CheckpointReader::GetString() {
  const std::uint64_t size = GetU64();
  if (!CheckAvailable(size, 1)) return {};
  std::string s;
  s.reserve(static_cast<std::size_t>(size));
  for (std::uint64_t i = 0; i < size; ++i) {
    s.push_back(static_cast<char>(GetU8()));
  }
  return s;
}

std::vector<std::uint8_t> CheckpointReader::GetU8Vector() {
  const std::uint64_t size = GetU64();
  if (!CheckAvailable(size, 1)) return {};
  std::vector<std::uint8_t> v(static_cast<std::size_t>(size));
  for (auto& x : v) x = GetU8();
  return v;
}

std::vector<std::uint32_t> CheckpointReader::GetU32Vector() {
  const std::uint64_t size = GetU64();
  if (!CheckAvailable(size, sizeof(std::uint32_t))) return {};
  std::vector<std::uint32_t> v(static_cast<std::size_t>(size));
  for (auto& x : v) x = GetU32();
  return v;
}

std::vector<std::uint64_t> CheckpointReader::GetU64Vector() {
  const std::uint64_t size = GetU64();
  if (!CheckAvailable(size, sizeof(std::uint64_t))) return {};
  std::vector<std::uint64_t> v(static_cast<std::size_t>(size));
  for (auto& x : v) x = GetU64();
  return v;
}

std::vector<double> CheckpointReader::GetDoubleVector() {
  const std::uint64_t size = GetU64();
  if (!CheckAvailable(size, sizeof(double))) return {};
  std::vector<double> v(static_cast<std::size_t>(size));
  for (auto& x : v) x = GetDouble();
  return v;
}

void PutRng(CheckpointWriter& w, const Rng& rng) {
  const Rng::State st = rng.SaveState();
  for (const std::uint64_t word : st.s) w.PutU64(word);
  w.PutDouble(st.gauss_spare);
  w.PutBool(st.has_gauss_spare);
}

void GetRng(CheckpointReader& r, Rng& rng) {
  Rng::State st;
  for (std::uint64_t& word : st.s) word = r.GetU64();
  st.gauss_spare = r.GetDouble();
  st.has_gauss_spare = r.GetBool();
  if (r.ok()) rng.RestoreState(st);
}

}  // namespace sppnet
