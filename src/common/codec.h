#ifndef CASPER_COMMON_CODEC_H_
#define CASPER_COMMON_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/geometry.h"
#include "src/common/result.h"

/// \file
/// The little-endian byte-codec substrate shared by the wire-message
/// protocol (src/casper/messages.cc) and the page-based storage tier
/// (src/storage/): little-endian load/store primitives, a Writer/Reader
/// pair built on them over length-prefixed, fixed-width fields, and the
/// frame seal, a trailing 64-bit XXH64 checksum (Checksum64).
/// Every sealed frame — a wire message or a storage header — carries a
/// trailing checksum of its body, so a corrupted byte inside a raw
/// double is a typed decode failure instead of a silently different
/// valid value. Decoders validate every length prefix and that the
/// buffer is fully consumed; truncated or mistyped buffers fail with
/// InvalidArgument instead of crashing.

namespace casper::wire {

inline constexpr size_t kChecksumBytes = 8;

/// Little-endian loads and stores. Record offsets inside a frame carry
/// no alignment guarantee, so these never reinterpret_cast (an
/// unaligned typed access is UB): a little-endian host copies the bytes
/// with memcpy, which compiles to one unaligned move, and any other
/// host assembles them byte by byte.
inline uint64_t LoadU64LE(const char* p) {
  uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
  }
  return v;
}

inline uint32_t LoadU32LE(const char* p) {
  uint32_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
  }
  return v;
}

inline void StoreU64LE(char* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
  }
}

inline double LoadF64LE(const char* p) {
  const uint64_t bits = LoadU64LE(p);
  double v;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

inline void StoreF64LE(char* p, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  StoreU64LE(p, bits);
}

/// The seal's 64-bit checksum: XXH64 with seed 0. Four independent
/// multiply-rotate lanes consume 32-byte stripes, 8 bytes per lane per
/// step; the tail is folded in 8, 4 and 1 bytes at a time, the length
/// is mixed in, and a final avalanche spreads every input bit over the
/// whole result. An error-detecting code, not a MAC: it catches
/// corruption, not an adversary.
inline uint64_t Checksum64(std::string_view bytes) {
  constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
  constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
  constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;
  const auto round = [](uint64_t acc, uint64_t lane) {
    return std::rotl(acc + lane * kP2, 31) * kP1;
  };
  const auto merge = [&round](uint64_t h, uint64_t acc) {
    return (h ^ round(0, acc)) * kP1 + kP4;
  };

  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  uint64_t h = kP5;
  if (bytes.size() >= 32) {
    uint64_t v1 = kP1 + kP2;
    uint64_t v2 = kP2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = round(v1, LoadU64LE(p));
      v2 = round(v2, LoadU64LE(p + 8));
      v3 = round(v3, LoadU64LE(p + 16));
      v4 = round(v4, LoadU64LE(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge(merge(merge(merge(h, v1), v2), v3), v4);
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ round(0, LoadU64LE(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (LoadU32LE(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ (static_cast<uint8_t>(*p) * kP5), 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

/// Append the body's checksum, little-endian.
inline std::string Seal(std::string body) {
  const uint64_t sum = Checksum64(body);
  body.resize(body.size() + kChecksumBytes);
  StoreU64LE(body.data() + body.size() - kChecksumBytes, sum);
  return body;
}

/// Verify and strip the trailing checksum, returning the frame body.
/// `what` names the frame type in the error message.
inline Result<std::string_view> Unseal(std::string_view frame,
                                       const char* what) {
  if (frame.size() < kChecksumBytes + 1) {
    return Status::InvalidArgument(std::string("truncated ") + what +
                                   " frame");
  }
  const std::string_view body =
      frame.substr(0, frame.size() - kChecksumBytes);
  if (LoadU64LE(frame.data() + body.size()) != Checksum64(body)) {
    return Status::InvalidArgument(std::string("checksum mismatch in ") +
                                   what + " frame");
  }
  return body;
}

class Writer {
 public:
  /// `capacity` is the caller's estimate of the frame size, seal
  /// included: one allocation instead of a regrow per doubling.
  explicit Writer(size_t capacity = 0) { out_.reserve(capacity); }

  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) { StoreU64LE(Extend(8), v); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void F64(double v) { StoreF64LE(Extend(8), v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void P(const Point& p) {
    F64(p.x);
    F64(p.y);
  }
  void R(const Rect& r) {
    P(r.min);
    P(r.max);
  }
  void Count(size_t n) { U64(static_cast<uint64_t>(n)); }
  void Str(std::string_view s) {
    Count(s.size());
    out_.append(s);
  }

  /// Grow the output by `n` bytes and return their start, for the caller
  /// to fill — the encode-side twin of Reader::Skip. The pointer is valid
  /// until the next write.
  char* Extend(size_t n) {
    out_.resize(out_.size() + n);
    return out_.data() + out_.size() - n;
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t U8() {
    if (pos_ + 1 > bytes_.size()) return Fail<uint8_t>();
    return static_cast<uint8_t>(bytes_[pos_++]);
  }
  uint32_t U32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(U8()) << (8 * i);
    return v;
  }
  uint64_t U64() {
    const char* p = Skip(8);
    return p != nullptr ? LoadU64LE(p) : 0;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  double F64() {
    const char* p = Skip(8);
    return p != nullptr ? LoadF64LE(p) : 0.0;
  }
  bool Bool() {
    const uint8_t v = U8();
    if (v > 1) failed_ = true;
    return v != 0;
  }
  Point P() {
    Point p;
    p.x = F64();
    p.y = F64();
    return p;
  }
  Rect R() {
    Rect r;
    r.min = P();
    r.max = P();
    return r;
  }

  /// Length prefix for a container whose records occupy at least
  /// `min_record_bytes` each — a hostile length cannot force an
  /// allocation larger than the buffer itself.
  size_t Count(size_t min_record_bytes) {
    const uint64_t n = U64();
    if (failed_ || n > Remaining() / min_record_bytes) {
      failed_ = true;
      return 0;
    }
    return static_cast<size_t>(n);
  }

  std::string Str() {
    const size_t n = Count(1);
    if (failed_) return std::string();
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  bool Tag(uint8_t expected) { return U8() == expected && !failed_; }

  /// Advance past `n` bytes and return their start — the decoders'
  /// window onto a record block. Null (and failed) when fewer than `n`
  /// bytes remain.
  const char* Skip(size_t n) {
    if (n > Remaining()) {
      failed_ = true;
      return nullptr;
    }
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  size_t Remaining() const { return bytes_.size() - pos_; }
  bool failed() const { return failed_; }

  Status Finish(const char* what) {
    if (failed_ || pos_ != bytes_.size()) {
      return Status::InvalidArgument(std::string("malformed ") + what +
                                     " message");
    }
    return Status::OK();
  }

 private:
  template <typename T>
  T Fail() {
    failed_ = true;
    return T{};
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace casper::wire

#endif  // CASPER_COMMON_CODEC_H_
