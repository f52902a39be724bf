#include "src/transport/listener.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "src/casper/messages.h"
#include "src/transport/net_util.h"

namespace casper::transport {
namespace {

/// One poll tick: timers (idle / slow-loris / ban expiry) are checked
/// at this cadence, so timeouts are accurate to ~this granularity.
constexpr int kTickMillis = 50;

}  // namespace

/// Per-connection state. Field ownership:
///  - loop-thread only: decoder, timers, rate window (no lock),
///  - loop + workers:   `out`, `close_after_flush` (under out_mu),
///                      `in_flight` (atomic).
/// The fd is closed by the loop thread alone; workers never touch it.
struct SocketListener::Conn {
  int fd = -1;
  uint64_t id = 0;
  std::string peer_key;

  FrameDecoder decoder;
  double last_activity = 0.0;
  double partial_since = -1.0;  ///< >= 0 while a frame is held open.
  double window_start = 0.0;
  size_t window_requests = 0;
  size_t window_bytes = 0;

  std::atomic<size_t> in_flight{0};
  std::mutex out_mu;
  std::string out;
  bool close_after_flush = false;

  explicit Conn(size_t max_frame_bytes) : decoder(max_frame_bytes) {}
};

Result<std::unique_ptr<SocketListener>> SocketListener::Start(
    const std::string& address, SocketHandler handler,
    ListenerOptions options) {
  Result<net::ParsedAddress> parsed = net::ParseAddress(address);
  if (!parsed.ok()) return parsed.status();
  std::string bound;
  Result<int> fd = net::ListenOn(parsed.value(), /*backlog=*/128, &bound);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<SocketListener>(
      new SocketListener(fd.value(), std::move(bound),
                         parsed->is_unix, std::move(handler), options));
}

SocketListener::SocketListener(int listen_fd, std::string bound_address,
                               bool is_unix, SocketHandler handler,
                               ListenerOptions options)
    : listen_fd_(listen_fd),
      bound_address_(std::move(bound_address)),
      is_unix_(is_unix),
      handler_(std::move(handler)),
      options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : obs::CasperMetrics::Default()) {
  if (pipe(wake_fds_) == 0) {
    net::SetNonBlocking(wake_fds_[0]);
    net::SetNonBlocking(wake_fds_[1]);
  }
  const int workers = std::max(1, options_.worker_threads);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  loop_ = std::thread([this] { LoopMain(); });
}

SocketListener::~SocketListener() { Shutdown(); }

void SocketListener::Wake() {
  if (wake_fds_[1] >= 0) {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = write(wake_fds_[1], &byte, 1);
  }
}

void SocketListener::Shutdown() {
  if (shut_down_.exchange(true)) return;
  draining_.store(true);
  Wake();
  if (loop_.joinable()) loop_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_workers_ = true;
    queue_.clear();  // Past the drain deadline nothing is owed answers.
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  close(listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
}

// --- Worker pool -----------------------------------------------------------

void SocketListener::WorkerMain() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return stop_workers_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    CallContext context;
    context.cache = options_.cache;
    Result<std::string> response = handler_(item.payload, context);
    std::string bytes =
        response.ok()
            ? *std::move(response)
            : Encode(AckMsg::For(RequestIdOf(item.payload),
                                 response.status()));
    std::shared_ptr<Conn> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      auto it = conns_.find(item.conn_id);
      if (it != conns_.end()) conn = it->second;
    }
    if (conn != nullptr) {
      QueuePayload(conn, bytes);
      conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
    }
    const size_t left = pending_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    metrics_->net_inbound_queue_depth->Set(static_cast<double>(left));
    Wake();  // The loop must notice the fresh response bytes.
  }
}

// --- Outbound --------------------------------------------------------------

void SocketListener::QueuePayload(const std::shared_ptr<Conn>& conn,
                                  std::string_view payload) {
  std::string frame = EncodeFrame(payload);
  std::lock_guard<std::mutex> lock(conn->out_mu);
  conn->out.append(frame);
  metrics_->net_frames_written_total->Increment();
}

void SocketListener::QueueAck(const std::shared_ptr<Conn>& conn,
                              uint64_t request_id, const Status& status) {
  QueuePayload(conn, Encode(AckMsg::For(request_id, status)));
}

void SocketListener::FlushTo(const std::shared_ptr<Conn>& conn) {
  bool close_when_done = false;
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    while (!conn->out.empty()) {
      const ssize_t n = send(conn->fd, conn->out.data(), conn->out.size(),
                             MSG_NOSIGNAL);
      if (n > 0) {
        metrics_->net_bytes_written_total->Increment(
            static_cast<uint64_t>(n));
        conn->out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      conn->out.clear();
      conn->close_after_flush = true;  // Unwritable peer: give up.
      break;
    }
    drained = conn->out.empty();
    close_when_done = conn->close_after_flush;
  }
  if (drained && close_when_done) CloseConn(conn, CloseReason::kError);
}

// --- Close / ban -----------------------------------------------------------

void SocketListener::CloseConn(const std::shared_ptr<Conn>& conn,
                               CloseReason reason) {
  // Book-keeping strictly before close(): the close is the only signal
  // some peers get, and a peer reacting to its EOF must already see the
  // matching counters.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (conns_.erase(conn->id) == 0) return;  // Already closed.
    metrics_->net_connections_active->Set(static_cast<double>(conns_.size()));
  }
  metrics_->net_connections_closed_total[static_cast<size_t>(reason)]
      ->Increment();
  close(conn->fd);
}

void SocketListener::BanPeer(const std::shared_ptr<Conn>& conn) {
  bans_[conn->peer_key] = Now() + options_.ban_seconds;
  strikes_.erase(conn->peer_key);
  metrics_->net_bans_total->Increment();
  metrics_->net_banned_peers->Set(static_cast<double>(bans_.size()));
  CloseConn(conn, CloseReason::kBanned);
}

// --- Inbound ---------------------------------------------------------------

bool SocketListener::AdmitFrame(const std::shared_ptr<Conn>& conn,
                                std::string payload) {
  const uint64_t request_id = RequestIdOf(payload);
  metrics_->net_frames_read_total->Increment();

  // Per-peer rate limits, oldest gate first: a flooder's frames are
  // refused with a typed ack so a well-behaved retry layer backs off,
  // and repeat offenders lose the connection (and, where the transport
  // names peers, the right to reconnect for ban_seconds).
  ++conn->window_requests;
  const bool over_rate = options_.max_requests_per_window > 0 &&
                         conn->window_requests >
                             options_.max_requests_per_window;
  const bool over_bytes =
      options_.max_bytes_per_window > 0 &&
      conn->window_bytes > options_.max_bytes_per_window;
  if (over_rate || over_bytes) {
    metrics_->net_rate_limited_total->Increment();
    QueueAck(conn, request_id,
             Status::Unavailable(over_rate ? "rate limit exceeded"
                                           : "byte limit exceeded"));
    if (++strikes_[conn->peer_key] >= options_.strike_threshold) {
      BanPeer(conn);
    }
    return false;
  }

  if (draining_.load(std::memory_order_relaxed)) {
    QueueAck(conn, request_id, Status::Unavailable("server draining"));
    return false;
  }

  // Bounded inbound queue: above the watermark the frame is shed, not
  // buffered — overload degrades into typed kUnavailable acks instead
  // of unbounded memory and latency.
  if (conn->in_flight.load(std::memory_order_acquire) >=
      options_.inbound_queue_watermark) {
    metrics_->net_shed_total->Increment();
    QueueAck(conn, request_id,
             Status::Unavailable("server overloaded; request shed"));
    return false;
  }

  conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
  const size_t depth = pending_.fetch_add(1, std::memory_order_acq_rel) + 1;
  metrics_->net_inbound_queue_depth->Set(static_cast<double>(depth));
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(WorkItem{conn->id, std::move(payload)});
  }
  queue_cv_.notify_one();
  return true;
}

void SocketListener::ReadFrom(const std::shared_ptr<Conn>& conn) {
  char chunk[1 << 16];
  const ssize_t n = recv(conn->fd, chunk, sizeof(chunk), 0);
  if (n == 0) {
    CloseConn(conn, CloseReason::kEof);
    return;
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    CloseConn(conn, CloseReason::kError);
    return;
  }
  const double now = Now();
  conn->last_activity = now;
  metrics_->net_bytes_read_total->Increment(static_cast<uint64_t>(n));
  if (now - conn->window_start > options_.rate_window_seconds) {
    conn->window_start = now;
    conn->window_requests = 0;
    conn->window_bytes = 0;
  }
  conn->window_bytes += static_cast<size_t>(n);
  conn->decoder.Append(std::string_view(chunk, static_cast<size_t>(n)));
  for (;;) {
    Result<std::optional<std::string>> next = conn->decoder.Next();
    if (!next.ok()) {
      // Framing violation: the stream cannot be resynchronized. No ack
      // can be addressed (there is no trustworthy request id); the
      // close itself is the signal.
      CloseConn(conn, CloseReason::kFrameError);
      return;
    }
    if (!next.value().has_value()) break;
    if (!AdmitFrame(conn, *std::move(next.value()))) {
      // The frame was refused; the conn may have been banned away.
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.count(conn->id) == 0) return;
    }
  }
  if (!conn->decoder.mid_frame()) {
    conn->partial_since = -1.0;
  } else if (conn->partial_since < 0.0) {
    conn->partial_since = now;
  }
}

void SocketListener::AcceptPending() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN, or a transient accept error.
    net::SetNonBlocking(fd);
    if (draining_.load()) {
      close(fd);
      continue;
    }
    size_t active;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      active = conns_.size();
    }
    if (active >= options_.max_connections) {
      metrics_
          ->net_connections_closed_total[static_cast<size_t>(
              CloseReason::kCap)]
          ->Increment();
      close(fd);  // After the counters: the close is the peer's signal.
      continue;
    }
    auto conn = std::make_shared<Conn>(options_.max_frame_bytes);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->peer_key = net::PeerKey(fd, is_unix_, conn->id);
    const auto ban = bans_.find(conn->peer_key);
    if (ban != bans_.end() && Now() < ban->second) {
      metrics_->net_ban_rejects_total->Increment();
      metrics_
          ->net_connections_closed_total[static_cast<size_t>(
              CloseReason::kBanned)]
          ->Increment();
      close(fd);  // After the counters: the close is the peer's signal.
      continue;
    }
    conn->last_activity = Now();
    conn->window_start = conn->last_activity;
    metrics_->net_connections_accepted_total->Increment();
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_[conn->id] = conn;
    metrics_->net_connections_active->Set(static_cast<double>(conns_.size()));
  }
}

// --- Timers ----------------------------------------------------------------

void SocketListener::HandleTick() {
  const double now = Now();
  for (auto it = bans_.begin(); it != bans_.end();) {
    it = now >= it->second ? bans_.erase(it) : std::next(it);
  }
  metrics_->net_banned_peers->Set(static_cast<double>(bans_.size()));

  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) conns.push_back(conn);
  }
  for (const std::shared_ptr<Conn>& conn : conns) {
    if (conn->partial_since >= 0.0 &&
        now - conn->partial_since >
            options_.partial_frame_timeout_seconds) {
      // Slow loris: the peer is holding a frame open. Idle *between*
      // frames is legitimate; idle *inside* one is hostage-taking.
      CloseConn(conn, CloseReason::kSlowLoris);
      continue;
    }
    if (options_.idle_timeout_seconds > 0.0 &&
        conn->in_flight.load(std::memory_order_acquire) == 0 &&
        now - conn->last_activity > options_.idle_timeout_seconds) {
      CloseConn(conn, CloseReason::kIdle);
    }
  }
}

// --- Event loop ------------------------------------------------------------

bool SocketListener::DrainComplete() {
  if (pending_.load(std::memory_order_acquire) > 0) return false;
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& [id, conn] : conns_) {
    std::lock_guard<std::mutex> out_lock(conn->out_mu);
    if (!conn->out.empty()) return false;
  }
  return true;
}

void SocketListener::LoopMain() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Conn>> polled;
  while (true) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining) {
      if (drain_deadline_seconds_ == 0.0) {
        drain_deadline_seconds_ = Now() + options_.drain_timeout_seconds;
      }
      if (DrainComplete() || Now() >= drain_deadline_seconds_) break;
    }

    fds.clear();
    polled.clear();
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& [id, conn] : conns_) {
        short events = POLLIN;
        {
          std::lock_guard<std::mutex> out_lock(conn->out_mu);
          if (!conn->out.empty()) events |= POLLOUT;
        }
        fds.push_back(pollfd{conn->fd, events, 0});
        polled.push_back(conn);
      }
    }
    poll(fds.data(), fds.size(), kTickMillis);

    if (fds[1].revents & POLLIN) {
      char sink[256];
      while (read(wake_fds_[0], sink, sizeof(sink)) > 0) {
      }
    }
    for (size_t i = 0; i < polled.size(); ++i) {
      const short revents = fds[i + 2].revents;
      const std::shared_ptr<Conn>& conn = polled[i];
      if (revents & (POLLERR | POLLNVAL)) {
        CloseConn(conn, CloseReason::kError);
        continue;
      }
      if (revents & POLLOUT) FlushTo(conn);
      if (revents & (POLLIN | POLLHUP)) ReadFrom(conn);
    }
    // Responses may have landed on connections poll() reported idle;
    // flush whatever is writable now rather than next tick.
    for (const std::shared_ptr<Conn>& conn : polled) {
      bool has_out;
      {
        std::lock_guard<std::mutex> out_lock(conn->out_mu);
        has_out = !conn->out.empty();
      }
      bool still_open;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        still_open = conns_.count(conn->id) > 0;
      }
      if (has_out && still_open) FlushTo(conn);
    }
    if (!draining && (fds[0].revents & POLLIN)) AcceptPending();
    HandleTick();
  }

  // Past the drain point: everything still open goes down together.
  std::vector<std::shared_ptr<Conn>> leftovers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, conn] : conns_) leftovers.push_back(conn);
  }
  for (const std::shared_ptr<Conn>& conn : leftovers) {
    FlushTo(conn);
    CloseConn(conn, CloseReason::kDrain);
  }
  loop_done_.store(true);
}

// --- SerializedHandler -----------------------------------------------------

Result<std::string> SerializedHandler::operator()(
    std::string_view request, const CallContext& context) const {
  Result<MessageTag> tag = TagOf(request);
  const bool maintenance =
      tag.ok() && (tag.value() == MessageTag::kRegionUpsert ||
                   tag.value() == MessageTag::kRegionRemove ||
                   tag.value() == MessageTag::kSnapshot);
  if (maintenance) {
    std::unique_lock<std::shared_mutex> lock(*mu_);
    return inner_(request, context);
  }
  std::shared_lock<std::shared_mutex> lock(*mu_);
  return inner_(request, context);
}

}  // namespace casper::transport
