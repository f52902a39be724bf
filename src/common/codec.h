#ifndef CASPER_COMMON_CODEC_H_
#define CASPER_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/geometry.h"
#include "src/common/result.h"

/// \file
/// The little-endian byte-codec substrate shared by the wire-message
/// protocol (src/casper/messages.cc) and the page-based storage tier
/// (src/storage/): byte-wise little-endian load/store primitives, a
/// Writer/Reader pair built on them over length-prefixed, fixed-width
/// fields, and the FNV-1a-64 frame seal.
/// Every sealed frame — a wire message or a storage header — carries a
/// trailing checksum of its body, so a corrupted byte inside a raw
/// double is a typed decode failure instead of a silently different
/// valid value. Decoders validate every length prefix and that the
/// buffer is fully consumed; truncated or mistyped buffers fail with
/// InvalidArgument instead of crashing.

namespace casper::wire {

inline constexpr size_t kChecksumBytes = 8;

/// Little-endian loads and stores, assembled byte by byte (never
/// reinterpret_cast: record offsets inside a frame carry no alignment
/// guarantee, and an unaligned typed access would be UB).
inline uint64_t LoadU64LE(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

inline void StoreU64LE(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
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

inline uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Append the body's checksum, little-endian.
inline std::string Seal(std::string body) {
  const uint64_t sum = Fnv1a64(body);
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
  if (LoadU64LE(frame.data() + body.size()) != Fnv1a64(body)) {
    return Status::InvalidArgument(std::string("checksum mismatch in ") +
                                   what + " frame");
  }
  return body;
}

class Writer {
 public:
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
