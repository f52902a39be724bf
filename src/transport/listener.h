#ifndef CASPER_TRANSPORT_LISTENER_H_
#define CASPER_TRANSPORT_LISTENER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/stopwatch.h"
#include "src/obs/casper_metrics.h"
#include "src/transport/channel.h"
#include "src/transport/framing.h"

/// \file
/// The server half of the real transport: a poll()-driven event loop
/// that accepts N client connections on one TCP/Unix-domain address,
/// reassembles length-prefixed frames, and dispatches each request
/// payload to a handler (a ServerEndpoint, or anything else with the
/// bytes-in/bytes-out contract) on a bounded worker pool.
///
/// Admission control and supervision, in the order a frame meets them:
///
///   accept  -> connection cap (close, `cap`), ban check (close,
///              `banned` + casper_net_ban_rejects_total)
///   stream  -> framing violation poisons the connection (close,
///              `frame_error`); oversized length prefixes are rejected
///              from the 8-byte header, before any allocation
///   frame   -> per-peer rate/byte window; a violation is answered with
///              a typed kUnavailable ack and counts a strike — at the
///              strike threshold the peer is banned for ban_seconds
///   queue   -> per-connection in-flight watermark; above it the frame
///              is shed with a typed kUnavailable ack
///              (casper_net_shed_total) instead of queueing unboundedly
///   time    -> idle connections are closed at idle_timeout; a peer
///              holding a frame *open* (slow loris) is closed at the
///              much shorter partial_frame_timeout
///
/// Shutdown drains gracefully: stop accepting, shed new frames, finish
/// in-flight work, flush responses, then close — bounded by
/// drain_timeout_seconds.
///
/// Peer identity for rate/ban bookkeeping is the source IP for TCP.
/// Unix-domain sockets carry no address, so each connection is its own
/// peer: banning a UDS flooder closes its connection and clears its
/// strikes — a fresh connection starts clean, which is the honest
/// semantics available on that transport.

namespace casper::transport {

/// The application seam: one request payload in, one response payload
/// out. Must be thread-safe — the listener invokes it from its worker
/// pool. A failed Result is converted to a typed AckMsg addressed to
/// the request's idempotency key.
using SocketHandler =
    std::function<Result<std::string>(std::string_view, const CallContext&)>;

struct ListenerOptions {
  int worker_threads = 4;
  size_t max_connections = 256;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Per-connection admitted-but-unanswered frames above which new
  /// frames are shed with a typed kUnavailable ack.
  size_t inbound_queue_watermark = 64;

  double idle_timeout_seconds = 300.0;
  double partial_frame_timeout_seconds = 10.0;  ///< Slow-loris bound.

  /// Per-peer DoS limits over a sliding window; 0 disables a limit.
  double rate_window_seconds = 1.0;
  size_t max_requests_per_window = 0;
  size_t max_bytes_per_window = 0;
  int strike_threshold = 3;  ///< Violations before a ban.
  double ban_seconds = 30.0;

  double drain_timeout_seconds = 5.0;

  /// Server-side candidate-list cache handed to the handler (the
  /// socket deployment's home for what CallContext carried in-process).
  processor::ConcurrentQueryCache* cache = nullptr;
  obs::CasperMetrics* metrics = nullptr;  ///< null -> Default().
};

struct ListenerStats {
  uint64_t accepted = 0;
  uint64_t active = 0;
  uint64_t frames = 0;
  uint64_t frame_errors = 0;
  uint64_t shed = 0;
  uint64_t rate_limited = 0;
  uint64_t bans = 0;
  uint64_t ban_rejects = 0;
  uint64_t cap_rejects = 0;
  uint64_t idle_closed = 0;
  uint64_t slowloris_closed = 0;
};

class SocketListener {
 public:
  /// Bind, listen, and start the event loop + workers. `address` is
  /// `unix:/path` or `host:port` (port 0 = ephemeral; the actual port
  /// is visible in bound_address()).
  static Result<std::unique_ptr<SocketListener>> Start(
      const std::string& address, SocketHandler handler,
      ListenerOptions options = {});

  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Graceful drain: stop accepting, shed new frames, finish in-flight
  /// work and flush responses (bounded by drain_timeout_seconds), then
  /// close every connection. Idempotent.
  void Shutdown();

  const std::string& bound_address() const { return bound_address_; }
  ListenerStats stats() const;

 private:
  struct Conn;
  struct WorkItem {
    uint64_t conn_id;
    std::string payload;
  };
  enum class CloseReason : size_t {
    kEof = 0,
    kError = 1,
    kIdle = 2,
    kSlowLoris = 3,
    kFrameError = 4,
    kBanned = 5,
    kCap = 6,
    kDrain = 7,
  };

  SocketListener(int listen_fd, std::string bound_address, bool is_unix,
                 SocketHandler handler, ListenerOptions options);

  double Now() const { return watch_.ElapsedSeconds(); }
  void Wake();
  void LoopMain();
  void WorkerMain();
  void AcceptPending();
  void ReadFrom(const std::shared_ptr<Conn>& conn);
  void FlushTo(const std::shared_ptr<Conn>& conn);
  void HandleTick();
  void CloseConn(const std::shared_ptr<Conn>& conn, CloseReason reason);
  void QueueAck(const std::shared_ptr<Conn>& conn, uint64_t request_id,
                const Status& status);
  void QueuePayload(const std::shared_ptr<Conn>& conn,
                    std::string_view payload);
  /// True when the frame was admitted; false when it was shed, rate
  /// limited, or got the peer banned (the conn may be gone after this).
  bool AdmitFrame(const std::shared_ptr<Conn>& conn, std::string payload);
  void BanPeer(const std::shared_ptr<Conn>& conn);
  bool DrainComplete();

  const int listen_fd_;
  const std::string bound_address_;
  const bool is_unix_;
  const SocketHandler handler_;
  const ListenerOptions options_;
  obs::CasperMetrics* const metrics_;
  Stopwatch watch_;

  int wake_fds_[2] = {-1, -1};
  std::thread loop_;
  std::vector<std::thread> workers_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> loop_done_{false};
  double drain_deadline_seconds_ = 0.0;  // Loop-thread only.

  // Connection registry: mutated by the loop thread only; workers take
  // the lock to look up a conn and append its response.
  mutable std::mutex conns_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;

  // Loop-thread-only peer bookkeeping (strike/ban state survives the
  // offending connection for addressable peers).
  std::unordered_map<std::string, int> strikes_;
  std::unordered_map<std::string, double> bans_;  // key -> banned until

  // Bounded handoff to the worker pool.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  bool stop_workers_ = false;
  std::atomic<size_t> pending_{0};  ///< Admitted, not yet answered.

  mutable std::mutex stats_mu_;
  ListenerStats stats_;
  std::atomic<bool> shut_down_{false};
};

/// Wraps a handler with the concurrency contract the in-process
/// deployment got from the facade's locking: maintenance messages
/// (upserts, removes, snapshots) run exclusively, queries run shared.
/// A real multi-client listener cannot rely on its *clients* to
/// serialize writes, so the boundary enforces it. Copyable into a
/// SocketHandler.
class SerializedHandler {
 public:
  explicit SerializedHandler(SocketHandler inner)
      : mu_(std::make_shared<std::shared_mutex>()),
        inner_(std::move(inner)) {}

  Result<std::string> operator()(std::string_view request,
                                 const CallContext& context) const;

 private:
  std::shared_ptr<std::shared_mutex> mu_;
  SocketHandler inner_;
};

}  // namespace casper::transport

#endif  // CASPER_TRANSPORT_LISTENER_H_
