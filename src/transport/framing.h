#ifndef CASPER_TRANSPORT_FRAMING_H_
#define CASPER_TRANSPORT_FRAMING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/result.h"

/// \file
/// Stream framing for the socket transport: the wire messages of
/// src/casper/messages.h are already self-checksummed (`Seal`), but a
/// byte *stream* needs boundaries. Each frame is
///
///     +--------+--------+=====================+
///     | magic  | length |   sealed payload    |
///     |  u32LE |  u32LE |   `length` bytes    |
///     +--------+--------+=====================+
///
/// The magic word rejects desynchronized or non-protocol peers at the
/// first header instead of feeding garbage to the message decoders; the
/// length prefix is bounds-checked against a configured maximum *before
/// any allocation or read*, so a hostile 4 GiB announcement costs the
/// server 8 bytes, not memory. Payload integrity stays where it already
/// lives: the trailing Checksum64 seal inside the payload.
///
/// FrameDecoder is the receive half: append whatever chunk the socket
/// produced (a byte, a split frame, five coalesced frames) and pop
/// complete payloads. Framing violations — bad magic, zero or oversized
/// length — poison the decoder with a typed kDataLoss: a byte stream
/// that lost sync cannot be trusted again, the connection must be torn
/// down and re-established.

namespace casper::transport {

inline constexpr uint32_t kFrameMagic = 0xCA5FE01Du;
inline constexpr size_t kFrameHeaderBytes = 8;
inline constexpr size_t kDefaultMaxFrameBytes = 4u << 20;  // 4 MiB

/// Wrap one sealed message payload in a stream frame.
std::string EncodeFrame(std::string_view payload);

class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Buffer a chunk read from the stream (any split is fine).
  void Append(std::string_view bytes);

  /// Pop the next complete payload: a value when a whole frame is
  /// buffered, nullopt when more bytes are needed, kDataLoss when the
  /// stream violated framing (the decoder stays poisoned afterwards).
  Result<std::optional<std::string>> Next();

  /// Unconsumed bytes currently buffered.
  size_t buffered() const { return buf_.size() - pos_; }

  /// A frame header or body is partially received — the slow-loris
  /// signal: a peer may idle *between* frames forever, but holding a
  /// frame open is accounted against the partial-frame timeout.
  bool mid_frame() const { return buffered() > 0; }

  bool poisoned() const { return poisoned_; }

 private:
  size_t max_frame_bytes_;
  std::string buf_;
  size_t pos_ = 0;  // Consumed prefix of buf_, compacted opportunistically.
  bool poisoned_ = false;
};

}  // namespace casper::transport

#endif  // CASPER_TRANSPORT_FRAMING_H_
