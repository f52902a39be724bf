#include "casperbench/workloads.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "casperbench/gates.h"
#include "casperbench/tracing.h"
#include "src/casper/batch_query_engine.h"
#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/common/stats.h"
#include "src/network/moving_objects.h"
#include "src/network/network_generator.h"
#include "src/transport/listener.h"
#include "src/transport/socket_channel.h"

namespace casperbench {
namespace {

using casper::Point;
using casper::QueryRequest;
using casper::QueryResponse;
using casper::Rect;
using casper::Result;
using casper::Status;
using casper::server::BatchQueryRequest;
using Clock = std::chrono::steady_clock;

constexpr size_t kKinds = casper::obs::kQueryKindCount;

/// Latency statistics are taken per slice of a phase's wall time; the
/// median over slices is reported.
constexpr int kSlices = 10;

/// uds_mixed request cycle: one density map and ten of each other kind.
constexpr uint64_t kUdsCycle = 61;

/// The read workloads move only users [0, kMovers) between query
/// blocks: a small working set, so their update timings depend less on
/// how hard other tenants press on the shared last-level cache.
constexpr uint64_t kMovers = 2048;

/// Traced queries and updates per run (the span file stays a few MB).
constexpr uint64_t kMaxTracedQueries = 3000;
constexpr uint64_t kMaxTracedUpdates = 10000;

/// moving_city traces about one update in this many; the rest run
/// untraced.
constexpr uint64_t kTraceEveryUpdate = 4;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Moves the benchmark over the CPUs it may run on, one at a time.
/// The CPUs of a shared machine run at different speeds (other tenants
/// load their hardware siblings), and a lone busy thread can stay on one
/// CPU for a whole run, so that CPU would set the run's timings. Moving
/// a closed loop to the next CPU every kDwell of its work makes every
/// time slice, and so every run, see the same mix.
///
/// With `whole_process` every thread of the process moves together, so
/// they all share one CPU. uds_mixed uses it: its query crosses the
/// caller, the batch workers, the listener loop and the listener workers,
/// and spread over several vCPUs each hand-off may have to wake a halted
/// vCPU, which a busy host does tens of milliseconds late; on one CPU
/// the hand-offs are plain context switches. Restore, or the destructor,
/// gives the threads their mask back.
class CpuRotation {
 public:
  /// Long enough that the caches a move leaves behind cost little, short
  /// enough that a time slice visits every CPU several times.
  static constexpr std::chrono::milliseconds kDwell{200};

  explicit CpuRotation(bool whole_process) : whole_process_(whole_process) {
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Restore() {
    if (!cpus_.empty()) Apply(mask_);
  }
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    Apply(one);
  }
  /// Next(), once kDwell has passed since the last move.
  void Poll() {
    if (cpus_.size() < 2) return;
    const Clock::time_point now = Clock::now();
    if (now < move_at_) return;
    Next();
    move_at_ = now + kDwell;
  }

 private:
  void Apply(const cpu_set_t& set) {
    if (!whole_process_) {
      sched_setaffinity(0, sizeof(set), &set);
      return;
    }
    // Threads started later inherit their creator's mask.
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) return;
    while (const dirent* task = readdir(tasks)) {
      const pid_t tid = static_cast<pid_t>(std::atol(task->d_name));
      if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
    }
    closedir(tasks);
  }

  const bool whole_process_;
  cpu_set_t mask_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  Clock::time_point move_at_{};
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// --- Seeded inputs ---------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Element `i` of the seeded stream `stream`: random access, so a traced
/// phase can replay exactly the requests an untraced phase sent.
uint64_t Hash(uint64_t seed, uint64_t stream, uint64_t i) {
  return Mix(Mix(seed ^ Mix(stream)) + i);
}

double Unit(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

/// `v` reflected back into [lo, hi], for steps shorter than the interval.
/// A reflected random walk keeps the movers uniform; clamping would pile
/// them up on the border over a run.
double Reflect(double v, double lo, double hi) {
  if (v < lo) return 2.0 * lo - v;
  if (v > hi) return 2.0 * hi - v;
  return v;
}

// --- Samples ---------------------------------------------------------------

/// Samples of one operation, cut into equal slices of the phase's wall
/// time. Statistics are computed per slice and the median over slices
/// is reported, so a slow spell of a shared machine moves a few slices
/// rather than the result. Adjacent slices are merged until each holds
/// at least kMinSliceSamples, so a p99 always has three samples beyond
/// it; only uds_mixed, at ~300 batches a slice, comes near that.
class Samples {
 public:
  static constexpr size_t kMinSliceSamples = 300;

  void Reset(double seconds) {
    slice_seconds_ = seconds / kSlices;
    slices_.assign(kSlices, Slice{});
  }

  /// One sample taken `at` seconds into the phase, covering `ops`
  /// completed operations.
  void Add(double at, double micros, size_t ops = 1) {
    const size_t i = std::min<size_t>(
        slices_.size() - 1, static_cast<size_t>(at / slice_seconds_));
    slices_[i].micros.Add(micros);
    slices_[i].ops += ops;
  }

  size_t samples() const {
    size_t n = 0;
    for (const Slice& s : slices_) n += s.micros.count();
    return n;
  }

  double Quantile(double q) const {
    casper::SummaryStats per_group;
    for (const Slice& g : Groups()) {
      if (g.micros.count() > 0) per_group.Add(g.micros.Quantile(q));
    }
    return per_group.Quantile(0.5);
  }

  /// Completed operations per second of time spent waiting for them.
  double OpsPerSecond() const {
    casper::SummaryStats per_group;
    for (const Slice& g : Groups()) {
      if (g.micros.sum() > 0.0) per_group.Add(g.ops / g.micros.sum() * 1e6);
    }
    return per_group.Quantile(0.5);
  }

 private:
  struct Slice {
    casper::SummaryStats micros;
    size_t ops = 0;
  };

  std::vector<Slice> Groups() const {
    const size_t n = std::clamp<size_t>(samples() / kMinSliceSamples, 1,
                                        slices_.size());
    std::vector<Slice> groups(n);
    for (size_t i = 0; i < slices_.size(); ++i) {
      Slice& g = groups[i * n / slices_.size()];
      g.micros.Merge(slices_[i].micros);
      g.ops += slices_[i].ops;
    }
    return groups;
  }

  double slice_seconds_ = 1.0;
  std::vector<Slice> slices_;
};

// --- Workload specs --------------------------------------------------------

enum class Kind { kBigLists, kUdsMixed, kMovingCity };

struct Spec {
  Kind kind = Kind::kBigLists;
  size_t users = 0;
  size_t targets = 0;
  int height = 9;
  size_t batch = 0;           ///< uds_mixed: queries per batch.
  size_t round_queries = 0;   ///< Queries (or batches) per round...
  size_t round_updates = 0;   ///< ...then this many location updates.
  size_t reads_per_tick = 0;  ///< moving_city: reads after each tick.
  /// candidates_per_query averages over the first this-many queries, so
  /// it repeats exactly for a seed, and peak memory is read when they are
  /// done. An untraced run goes on past its seconds until they are.
  uint64_t candidates_prefix = 0;
  uint64_t sample_every = 1;  ///< One answer in this many is gated...
  size_t sample_cap = 0;      ///< ...up to this many per run.
};

Spec SpecFor(const std::string& name, bool tiny) {
  Spec spec;
  if (name == "big_lists") {
    spec.kind = Kind::kBigLists;
    spec.users = tiny ? 2000 : 40000;
    spec.targets = tiny ? 20000 : 1000000;
    spec.height = 8;
    spec.round_queries = tiny ? 50 : 1000;
    spec.round_updates = tiny ? 2000 : 300000;
    spec.candidates_prefix = 5 * spec.round_queries;
    spec.sample_every = 37;
    spec.sample_cap = 96;
  } else if (name == "uds_mixed") {
    spec.kind = Kind::kUdsMixed;
    spec.users = tiny ? 1000 : 10000;
    spec.targets = tiny ? 1000 : 10000;
    spec.batch = kUdsCycle;
    // Long rounds: the first batches after a sync run on cold caches,
    // and they must stay well below 1% of samples or they set p99.
    spec.round_queries = tiny ? 5 : 300;
    spec.round_updates = tiny ? 2000 : 150000;
    spec.candidates_prefix = spec.round_queries * spec.batch;
    spec.sample_every = 53;
    spec.sample_cap = 140;
  } else {
    spec.kind = Kind::kMovingCity;
    spec.users = tiny ? 1000 : 10000;
    spec.targets = tiny ? 1000 : 10000;
    spec.reads_per_tick = tiny ? 20 : 200;
    spec.candidates_prefix = 30 * spec.reads_per_tick;
    spec.sample_every = 50;
    spec.sample_cap = 1000;
  }
  return spec;
}

/// moving_city's city. The recipe of bench_common.h's SimulatedCity
/// (24x24 road network, 1 s ticks, 60 warm-up ticks to spread objects
/// along edges), except that ticks are not kept — a kept tick history
/// would grow peak memory with run length — and the road map is one
/// fixed city: the seed draws the traffic, not the streets.
struct City {
  static constexpr uint64_t kMapSeed = 42;

  City(size_t objects, uint64_t seed) {
    casper::network::NetworkGeneratorOptions map_options;
    map_options.rows = 24;
    map_options.cols = 24;
    auto map = casper::network::NetworkGenerator(map_options).Generate(kMapSeed);
    CASPER_DCHECK(map.ok());
    network = std::make_unique<casper::network::RoadNetwork>(
        std::move(map).value());
    casper::network::SimulatorOptions sim_options;
    sim_options.object_count = objects;
    sim_options.tick_seconds = 1.0;
    simulator = std::make_unique<casper::network::MovingObjectSimulator>(
        network.get(), sim_options, seed ^ 0x9e3779b9);
    for (int i = 0; i < 60; ++i) simulator->Tick();
  }

  std::unique_ptr<casper::network::RoadNetwork> network;
  std::unique_ptr<casper::network::MovingObjectSimulator> simulator;
};

struct Inputs {
  Truth truth;  ///< Positions at registration.
  std::unique_ptr<City> city;  ///< moving_city.
};

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs inputs;
  Truth& truth = inputs.truth;
  const Rect space = casper::anonymizer::PyramidConfig{}.space;
  casper::Rng rng(seed);
  if (spec.kind == Kind::kMovingCity) {
    inputs.city = std::make_unique<City>(spec.users, seed);
  }
  for (size_t uid = 0; uid < spec.users; ++uid) {
    if (inputs.city != nullptr) {
      truth.positions.push_back(casper::ClampToRect(
          inputs.city->simulator->PositionOf(uid), space));
    } else {
      truth.positions.push_back(rng.PointIn(space));
    }
    casper::anonymizer::PrivacyProfile profile;
    if (spec.kind == Kind::kBigLists) {
      profile.k = static_cast<uint32_t>(rng.UniformInt(1, 50));
    } else {
      profile = casper::workload::SampleProfile(
          casper::workload::ProfileDistribution{}, space.Area(), &rng);
    }
    truth.profiles.push_back(profile);
  }
  truth.targets =
      casper::workload::UniformPublicTargets(spec.targets, space, &rng);
  return inputs;
}

// --- Deployment ------------------------------------------------------------

/// One loaded instance of the system under test, with a metrics bundle
/// of its own. uds_mixed puts the server tier behind a SocketListener
/// on a Unix-domain socket reached through a SocketChannel; the other
/// workloads use the in-process facade, routed through the
/// benchmark-owned handler only when traced.
class Deployment {
 public:
  /// Builds and loads the deployment: the set-up the benchmark times.
  static Result<std::unique_ptr<Deployment>> Create(
      const Spec& spec, const Truth& truth, bool traced,
      const std::string& scratch_dir);

  ~Deployment() {
    service_.reset();  // Its channel talks to the listener.
    if (listener_ != nullptr) listener_->Shutdown();
    listener_.reset();
    if (!socket_path_.empty()) std::remove(socket_path_.c_str());
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  casper::CasperService& service() { return *service_; }
  /// The server tier the wire traffic reaches.
  casper::server::QueryServer& server() {
    return remote_server_ != nullptr ? *remote_server_
                                     : service_->query_server();
  }
  casper::obs::CasperMetrics& metrics() { return metrics_; }
  TraceContext& trace() { return trace_; }
  SpanLog& spans() { return spans_; }
  TapChannel* tap() { return tap_; }

 private:
  Deployment() = default;

  casper::obs::MetricsRegistry registry_;
  casper::obs::CasperMetrics metrics_{&registry_};
  SpanLog spans_;
  TraceContext trace_;
  std::string socket_path_;
  std::unique_ptr<casper::server::QueryServer> remote_server_;
  std::unique_ptr<ServerHandler> handler_;
  std::unique_ptr<casper::transport::SocketListener> listener_;
  TapChannel* tap_ = nullptr;                // Owned by service_.
  HandlerChannel* local_channel_ = nullptr;  // Owned by service_.
  std::unique_ptr<casper::CasperService> service_;
};

Result<std::unique_ptr<Deployment>> Deployment::Create(
    const Spec& spec, const Truth& truth, bool traced,
    const std::string& scratch_dir) {
  std::unique_ptr<Deployment> d(new Deployment());
  Deployment* self = d.get();
  d->trace_.log = traced ? &d->spans_ : nullptr;

  casper::CasperOptions options;
  options.pyramid.height = spec.height;
  options.auto_sync_private_data = spec.kind == Kind::kMovingCity;
  options.metrics = &d->metrics_;
  // A stall of a shared machine must not turn into failed queries.
  options.resilience.retry.deadline_seconds = 2.0;

  if (spec.kind == Kind::kUdsMixed) {
    casper::server::QueryServerOptions server_options;
    server_options.density_extent = options.pyramid.space;
    server_options.metrics = &d->metrics_;
    d->remote_server_ =
        std::make_unique<casper::server::QueryServer>(server_options);
    d->handler_ =
        std::make_unique<ServerHandler>(d->remote_server_.get(), &d->trace_);
    static std::atomic<int> sockets{0};
    d->socket_path_ = scratch_dir + "/casperbench-" +
                      std::to_string(getpid()) + "-" +
                      std::to_string(sockets.fetch_add(1)) + ".sock";
    const std::string address = "unix:" + d->socket_path_;
    casper::transport::ListenerOptions listener_options;
    listener_options.worker_threads = 2;
    listener_options.metrics = &d->metrics_;
    ServerHandler* handler = d->handler_.get();
    CASPER_ASSIGN_OR_RETURN(
        listener,
        casper::transport::SocketListener::Start(
            address,
            casper::transport::SerializedHandler(
                [handler](std::string_view request,
                          const casper::transport::CallContext& context) {
                  return handler->Handle(request, context);
                }),
            listener_options));
    d->listener_ = std::move(listener);
    options.channel_decorator = [self, address](casper::transport::Channel*)
        -> std::unique_ptr<casper::transport::Channel> {
      casper::transport::SocketChannelOptions socket_options;
      socket_options.metrics = &self->metrics_;
      auto tap = std::make_unique<TapChannel>(
          std::make_unique<casper::transport::SocketChannel>(address,
                                                             socket_options),
          &self->trace_);
      self->tap_ = tap.get();
      return tap;
    };
  } else if (traced) {
    options.channel_decorator = [self](casper::transport::Channel*)
        -> std::unique_ptr<casper::transport::Channel> {
      auto local = std::make_unique<HandlerChannel>();
      self->local_channel_ = local.get();
      auto tap = std::make_unique<TapChannel>(std::move(local), &self->trace_);
      self->tap_ = tap.get();
      return tap;
    };
  }

  d->service_ = std::make_unique<casper::CasperService>(options);
  if (d->local_channel_ != nullptr) {
    d->handler_ = std::make_unique<ServerHandler>(
        &d->service_->query_server(), &d->trace_);
    d->local_channel_->handler = d->handler_.get();
  }

  for (uint64_t uid = 0; uid < truth.positions.size(); ++uid) {
    CASPER_RETURN_IF_ERROR(d->service_->RegisterUser(
        uid, truth.profiles[uid], truth.positions[uid]));
  }
  d->server().SetPublicTargets(truth.targets);
  if (spec.kind == Kind::kUdsMixed) {
    CASPER_RETURN_IF_ERROR(d->service_->SyncPrivateData());
  }
  return d;
}

// --- Helpers over answers --------------------------------------------------

/// Candidate records shipped for an answer (QueryResponse or
/// BatchPayload), as casper::RecordCount counts them on the wire.
template <typename Variant>
size_t Records(const Variant& answer) {
  return std::visit(
      [](const auto& a) -> size_t {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return 0;
        } else if constexpr (std::is_same_v<T,
                                            casper::processor::RangeCountResult>) {
          return a.overlapping.size();
        } else if constexpr (std::is_same_v<T, casper::processor::DensityMap>) {
          return static_cast<size_t>(a.cols()) * static_cast<size_t>(a.rows());
        } else if constexpr (std::is_same_v<
                                 T, casper::processor::PublicNNCandidates>) {
          return a.candidates.size();
        } else {
          return a.server_answer.candidates.size();
        }
      },
      answer);
}

std::optional<QueryResponse> ToResponse(casper::server::BatchPayload payload) {
  return std::visit(
      [](auto&& p) -> std::optional<QueryResponse> {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return std::nullopt;
        } else {
          return QueryResponse(std::move(p));
        }
      },
      std::move(payload));
}

// --- Runner ----------------------------------------------------------------

/// Accumulators of the traced phase, beyond its spans.
struct TraceFacts {
  uint64_t queries = 0;
  double untraced_us = 0.0;
  double records[kKinds] = {};
  uint64_t per_kind[kKinds] = {};
  double response_bytes = 0.0;
  double records_total = 0.0;
  double cloak_area = 0.0;
  uint64_t cloaks = 0;
  casper::anonymizer::MaintenanceStats pyramid_before;
  casper::anonymizer::MaintenanceStats pyramid_after;
  uint64_t rebuilds = 0;
};

class Runner {
 public:
  explicit Runner(const RunOptions& options)
      : options_(options),
        spec_(SpecFor(options.workload, options.tiny)),
        cpus_(spec_.kind == Kind::kUdsMixed) {}

  Report Run();

 private:
  BatchQueryRequest RequestAt(uint64_t i) const;
  /// The i-th update of the read workloads: a user and a short move.
  std::pair<uint64_t, Point> MoveAt(uint64_t i) const;
  bool Sampled(uint64_t i) const {
    return kept_checks_ < spec_.sample_cap &&
           Hash(options_.seed, 0x5A, i) % spec_.sample_every == 0;
  }

  void RoundPhase(double seconds);
  void QueryOnce(Clock::time_point start);
  void QueryBatch(Clock::time_point start,
                  casper::server::BatchQueryEngine* engine);
  void UpdateOnce(Clock::time_point start, bool traced);
  void CityPhase(double seconds, bool traced);
  void TracedQueries(double seconds);
  void TracedUpdates(double seconds);
  void TraceOne(uint64_t i, const QueryRequest& request);

  void CountCandidates(uint64_t i, size_t records) {
    if (i >= spec_.candidates_prefix) return;
    candidates_sum_ += static_cast<double>(records);
    candidates_n_ += 1;
  }
  /// Called after each block of untraced queries with the number issued
  /// so far. Samples peak memory once the prefix is done: the system's
  /// memory grows with the work done (pseudonyms rotate on every
  /// publication), so it is read after a fixed amount of work, not
  /// after however much work the run's seconds allowed.
  void QueriesIssued(uint64_t n) {
    if (!prefix_done_ && n >= spec_.candidates_prefix) {
      prefix_done_ = true;
      peak_rss_mb_ = PeakRssMb();
    }
  }
  void Keep(const QueryRequest& request, QueryResponse response) {
    kept_.emplace_back(request, std::move(response));
    ++kept_checks_;
  }
  void CheckKept();
  void Census();
  void Violation(std::string what) {
    std::fprintf(stderr, "casperbench: violation: %s\n", what.c_str());
    report_.violations.push_back(std::move(what));
  }

  void Add(const char* name, double value, const char* unit) {
    report_.metrics.push_back(Metric{name, value, unit});
  }
  void EndToEndMetrics(const casper::SummaryStats& setups);
  void LayerMetrics();

  const RunOptions options_;
  const Spec spec_;
  CpuRotation cpus_;
  Inputs inputs_;
  Truth truth_;  ///< Current ground truth: positions move.
  std::unique_ptr<Deployment> deployment_;
  Report report_;

  Samples queries_;
  Samples updates_;
  double candidates_sum_ = 0.0;
  uint64_t candidates_n_ = 0;
  bool prefix_done_ = false;
  double peak_rss_mb_ = 0.0;
  std::vector<std::pair<QueryRequest, QueryResponse>> kept_;
  size_t kept_checks_ = 0;
  uint64_t query_no_ = 0;  ///< Next index of the request stream.
  uint64_t move_no_ = 0;   ///< Next index of the update stream.
  uint64_t tick_ = 0;
  uint64_t update_no_ = 0;

  // uds_mixed batch engine, per batch.
  double cloak_share_sum_ = 0.0;
  double pool_utilization_sum_ = 0.0;
  uint64_t batches_ = 0;

  uint64_t trace_request_ = 0;
  uint64_t traced_queries_ = 0;
  uint64_t traced_updates_ = 0;
  TraceFacts facts_;
};

BatchQueryRequest Runner::RequestAt(uint64_t i) const {
  const uint64_t seed = options_.seed;
  const uint64_t uid = Hash(seed, 1, i) % spec_.users;
  const double x = Unit(Hash(seed, 2, i));
  const double y = Unit(Hash(seed, 3, i));
  const double radius = 0.01;  // 1% of the unit space's width.
  const double side = 0.05;    // Public range-count windows.
  const Rect window(x * (1.0 - side), y * (1.0 - side),
                    x * (1.0 - side) + side, y * (1.0 - side) + side);
  switch (spec_.kind) {
    case Kind::kBigLists:
      switch (i % 3) {
        case 0:
          return BatchQueryRequest::NearestPublic(uid);
        case 1:
          return BatchQueryRequest::KNearestPublic(uid, 5);
        default:
          return BatchQueryRequest::RangePublic(uid, radius);
      }
    case Kind::kUdsMixed:
      // A density map scans the whole private store (~50x any other
      // kind), so it is one query in each cycle of kUdsCycle; the other
      // six kinds share the rest evenly.
      if (i % kUdsCycle == kUdsCycle - 1) {
        return BatchQueryRequest::Density(16, 16);
      }
      switch (i % kUdsCycle % 6) {
        case 0:
          return BatchQueryRequest::NearestPublic(uid);
        case 1:
          return BatchQueryRequest::KNearestPublic(uid, 5);
        case 2:
          return BatchQueryRequest::RangePublic(uid, radius);
        case 3:
          return BatchQueryRequest::NearestPrivate(uid);
        case 4:
          return BatchQueryRequest::PublicNearest(Point{x, y});
        default:
          return BatchQueryRequest::PublicRange(window);
      }
    case Kind::kMovingCity:
      return i % 2 == 0 ? BatchQueryRequest::NearestPrivate(uid)
                        : BatchQueryRequest::PublicRange(window);
  }
  return BatchQueryRequest::NearestPublic(uid);
}

std::pair<uint64_t, Point> Runner::MoveAt(uint64_t i) const {
  const uint64_t uid =
      Hash(options_.seed, 4, i) % std::min<uint64_t>(spec_.users, kMovers);
  const double step = 0.02;
  const Point& from = truth_.positions[uid];
  const double dx = step * (2.0 * Unit(Hash(options_.seed, 5, i)) - 1.0);
  const double dy = step * (2.0 * Unit(Hash(options_.seed, 6, i)) - 1.0);
  const Rect space = casper::anonymizer::PyramidConfig{}.space;
  return {uid, Point{Reflect(from.x + dx, space.min.x, space.max.x),
                     Reflect(from.y + dy, space.min.y, space.max.y)}};
}

/// big_lists and uds_mixed run in rounds: a block of queries, then a
/// block of location updates through the facade; uds_mixed then
/// re-syncs the private store, untimed, as the paper's batch model does
/// after movement. Rounds spread both operations over the whole run,
/// so every time slice holds samples of each.
void Runner::RoundPhase(double seconds) {
  queries_.Reset(seconds);
  updates_.Reset(seconds);
  std::unique_ptr<casper::server::BatchQueryEngine> engine;
  if (spec_.batch > 0) {
    casper::server::BatchEngineOptions engine_options;
    engine_options.threads = 2;
    engine_options.metrics = &deployment_->metrics();
    engine = std::make_unique<casper::server::BatchQueryEngine>(
        &deployment_->service(), engine_options);
  }
  const Clock::time_point start = Clock::now();
  while (Since(start) < seconds || !prefix_done_) {
    for (size_t q = 0; q < spec_.round_queries; ++q) {
      if (engine != nullptr) {
        QueryBatch(start, engine.get());
      } else {
        QueryOnce(start);
      }
    }
    QueriesIssued(query_no_);
    CheckKept();  // Positions hold still until the updates.
    for (size_t u = 0; u < spec_.round_updates; ++u) UpdateOnce(start, false);
    if (spec_.kind == Kind::kUdsMixed) {
      const Status synced = deployment_->service().SyncPrivateData();
      if (!synced.ok()) Violation("sync: " + synced.ToString());
    }
  }
}

/// big_lists: one client calling Execute back to back.
void Runner::QueryOnce(Clock::time_point start) {
  const uint64_t i = query_no_++;
  const QueryRequest request = RequestAt(i).ToRequest();
  cpus_.Poll();
  const double at = Since(start);
  const Clock::time_point t0 = Clock::now();
  Result<QueryResponse> answer = deployment_->service().Execute(request);
  queries_.Add(at, Since(t0) * 1e6);
  report_.attempted += 1;
  if (!answer.ok()) {
    report_.failed += 1;
    return;
  }
  CountCandidates(i, Records(*answer));
  if (Sampled(i)) Keep(request, std::move(answer).value());
}

/// uds_mixed: one caller issuing a fixed-size batch through a 2-worker
/// engine; the latency sample is the whole batch, since every answer
/// arrives with it.
void Runner::QueryBatch(Clock::time_point start,
                        casper::server::BatchQueryEngine* engine) {
  std::vector<BatchQueryRequest> batch(spec_.batch);
  for (size_t j = 0; j < batch.size(); ++j) batch[j] = RequestAt(query_no_ + j);
  cpus_.Poll();
  const double at = Since(start);
  const Clock::time_point t0 = Clock::now();
  casper::server::BatchResult result = engine->Execute(batch);
  queries_.Add(at, Since(t0) * 1e6, result.summary.ok_count);
  report_.attempted += batch.size();
  report_.failed += result.summary.error_count;
  cloak_share_sum_ += result.summary.cloak_seconds / result.summary.wall_seconds;
  pool_utilization_sum_ += deployment_->metrics().pool_utilization->Value();
  batches_ += 1;
  for (size_t j = 0; j < batch.size(); ++j) {
    const uint64_t i = query_no_++;
    casper::server::BatchQueryResponse& slot = result.responses[j];
    if (!slot.ok()) continue;
    CountCandidates(i, Records(slot.payload));
    if (!Sampled(i)) continue;
    std::optional<QueryResponse> response = ToResponse(std::move(slot.payload));
    if (response.has_value()) Keep(batch[j].ToRequest(), *std::move(response));
  }
}

/// One location update through the facade (or, when traced, through
/// AnonymizerTier::UpdateLocation with a timed sink).
void Runner::UpdateOnce(Clock::time_point start, bool traced) {
  casper::CasperService& service = deployment_->service();
  const auto [uid, to] = MoveAt(move_no_++);
  cpus_.Poll();
  const double at = Since(start);
  const Clock::time_point t0 = Clock::now();
  const Status status =
      traced ? TracedUpdate(&service, &deployment_->trace(), ++trace_request_,
                            uid, to)
             : service.UpdateUserLocation(uid, to);
  if (!traced) updates_.Add(at, Since(t0) * 1e6);
  report_.attempted += 1;
  if (!status.ok()) {
    report_.failed += 1;
  } else {
    truth_.positions[uid] = to;
  }
}

void Runner::TracedUpdates(double seconds) {
  const Clock::time_point start = Clock::now();
  for (; traced_updates_ < kMaxTracedUpdates && Since(start) < seconds;
       ++traced_updates_) {
    UpdateOnce(start, true);
  }
}

/// moving_city: each tick moves every user through UpdateUserLocation,
/// then a read batch of buddy NN and public range counts follows.
void Runner::CityPhase(double seconds, bool traced) {
  casper::CasperService& service = deployment_->service();
  const Rect space = service.options().pyramid.space;
  if (!traced) {
    queries_.Reset(seconds);
    updates_.Reset(seconds);
  }
  const Clock::time_point start = Clock::now();
  const auto traced_all = [this] {
    return traced_queries_ >= kMaxTracedQueries &&
           traced_updates_ >= kMaxTracedUpdates;
  };
  while ((Since(start) < seconds || (!traced && !prefix_done_)) &&
         !(traced && traced_all())) {
    const std::vector<casper::network::LocationUpdate> tick =
        inputs_.city->simulator->Tick();
    for (const casper::network::LocationUpdate& u : tick) {
      const Point to = casper::ClampToRect(u.position, space);
      cpus_.Poll();
      const double at = Since(start);
      const Clock::time_point t0 = Clock::now();
      // A seeded sample, not every n-th update: the private store
      // repacks on a fixed cadence that a stride could alias with.
      const bool trace_this =
          traced && traced_updates_ < kMaxTracedUpdates &&
          Hash(options_.seed, 7, update_no_) % kTraceEveryUpdate == 0;
      traced_updates_ += trace_this ? 1 : 0;
      const Status status =
          trace_this ? TracedUpdate(&service, &deployment_->trace(),
                                    ++trace_request_, u.uid, to)
                     : service.UpdateUserLocation(u.uid, to);
      if (!traced) updates_.Add(at, Since(t0) * 1e6);
      ++update_no_;
      report_.attempted += 1;
      if (!status.ok()) {
        report_.failed += 1;
      } else {
        truth_.positions[u.uid] = to;
      }
    }
    for (uint64_t j = 0; j < spec_.reads_per_tick; ++j) {
      const uint64_t i = tick_ * spec_.reads_per_tick + j;
      const QueryRequest request = RequestAt(i).ToRequest();
      cpus_.Poll();
      if (traced) {
        if (traced_queries_ < kMaxTracedQueries) TraceOne(i, request);
        continue;
      }
      const double at = Since(start);
      const Clock::time_point t0 = Clock::now();
      Result<QueryResponse> answer = service.Execute(request);
      queries_.Add(at, Since(t0) * 1e6);
      report_.attempted += 1;
      if (!answer.ok()) {
        report_.failed += 1;
      } else {
        CountCandidates(i, Records(*answer));
        if (Sampled(i)) Keep(request, std::move(answer).value());
      }
    }
    if (!traced) QueriesIssued((tick_ + 1) * spec_.reads_per_tick);
    CheckKept();  // Positions hold still until the next tick.
    ++tick_;
  }
}

void Runner::TracedQueries(double seconds) {
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0;
       Since(start) < seconds && traced_queries_ < kMaxTracedQueries; ++i) {
    cpus_.Poll();
    TraceOne(i, RequestAt(i).ToRequest());
  }
}

/// The same request untraced (CasperService::Execute) and traced, in
/// alternating order so neither side always runs on warm caches; the
/// two answers must agree.
void Runner::TraceOne(uint64_t i, const QueryRequest& request) {
  casper::CasperService& service = deployment_->service();
  std::optional<Result<QueryResponse>> untraced;
  std::optional<Result<QueryResponse>> traced;
  TracedQuery facts;
  const auto run_untraced = [&] {
    const Clock::time_point t0 = Clock::now();
    untraced.emplace(service.Execute(request));
    facts_.untraced_us += Since(t0) * 1e6;
  };
  const auto run_traced = [&] {
    traced.emplace(TracedExecute(&service, deployment_->tap(),
                                 &deployment_->trace(), ++trace_request_,
                                 request, &facts));
  };
  if (i % 2 == 0) {
    run_untraced();
    run_traced();
  } else {
    run_traced();
    run_untraced();
  }
  traced_queries_ += 1;
  report_.attempted += 2;
  report_.failed += (untraced->ok() ? 0 : 1) + (traced->ok() ? 0 : 1);
  if (!untraced->ok() || !traced->ok()) return;
  if (!SameAnswer(**untraced, **traced)) {
    Violation("traced answer differs from untraced (request " +
              std::to_string(i) + ")");
  }
  const size_t kind = static_cast<size_t>(facts.kind);
  facts_.queries += 1;
  facts_.records[kind] += static_cast<double>(facts.records);
  facts_.per_kind[kind] += 1;
  facts_.records_total += static_cast<double>(facts.records);
  facts_.response_bytes += static_cast<double>(facts.response_bytes);
  if (casper::IsCloakedKind(facts.kind)) {
    facts_.cloak_area += facts.cloak_area;
    facts_.cloaks += 1;
  }
}

void Runner::CheckKept() {
  for (const auto& [request, response] : kept_) {
    report_.gate_checks += 1;
    std::string error =
        CheckAnswer(truth_, deployment_->service(), request, response);
    if (!error.empty()) Violation(std::move(error));
  }
  kept_.clear();
}

/// Every registered user has exactly one stored region: a whole-space
/// public range count sees all of them.
void Runner::Census() {
  casper::CasperService& service = deployment_->service();
  Result<QueryResponse> answer =
      service.Execute(casper::PublicRangeQ{service.options().pyramid.space});
  report_.gate_checks += 1;
  if (!answer.ok()) {
    Violation("census: " + answer.status().ToString());
    return;
  }
  const auto& count = std::get<casper::processor::RangeCountResult>(*answer);
  if (count.possible != truth_.positions.size() ||
      service.user_count() != truth_.positions.size()) {
    Violation("census: " + std::to_string(count.possible) +
              " stored regions for " + std::to_string(truth_.positions.size()) +
              " registered users");
  }
}

void Runner::EndToEndMetrics(const casper::SummaryStats& setups) {
  report_.query_samples = queries_.samples();
  report_.update_samples = updates_.samples();
  Add("query_p50_us", queries_.Quantile(0.50), "us");
  Add("query_p99_us", queries_.Quantile(0.99), "us");
  Add("query_qps", queries_.OpsPerSecond(), "1/s");
  Add("update_per_s", updates_.OpsPerSecond(), "1/s");
  Add("update_p50_us", updates_.Quantile(0.50), "us");
  Add("update_p99_us", updates_.Quantile(0.99), "us");
  Add("candidates_per_query",
      candidates_n_ > 0 ? candidates_sum_ / candidates_n_ : 0.0, "count");
  Add("setup_s", setups.Quantile(0.5), "s");
  Add("peak_rss_mb", peak_rss_mb_, "MB");
}

void Runner::LayerMetrics() {
  const std::map<std::string, SpanTotals> spans =
      Summarize(deployment_->spans().spans());
  const auto get = [&spans](const std::string& key) -> const SpanTotals& {
    static const SpanTotals kNone;
    auto it = spans.find(key);
    return it == spans.end() ? kNone : it->second;
  };
  const auto mean_self_us = [&](const std::string& key) {
    const SpanTotals& t = get(key);
    return t.count > 0 ? t.self_ns / t.count / 1e3 : 0.0;
  };
  const auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };

  const SpanTotals& roots = get("query/query");
  const double n_queries = static_cast<double>(roots.count);
  const double root_ns = roots.total_ns;
  const double decode_ns = get("codec.decode/codec.decode").total_ns;
  const double encode_ns = get("query/codec.encode").total_ns;
  const double decode_query_ns = get("query/codec.decode_query").total_ns;

  Add("anonymizer.cloak_us", mean_self_us("query/anonymizer.cloak"), "us");
  Add("anonymizer.update_us", mean_self_us("update/anonymizer.update"), "us");
  const casper::anonymizer::MaintenanceStats& a = facts_.pyramid_before;
  const casper::anonymizer::MaintenanceStats& b = facts_.pyramid_after;
  const double moves = static_cast<double>(b.location_updates - a.location_updates);
  Add("anonymizer.splits_per_update", per(b.splits - a.splits, moves), "count");
  Add("anonymizer.merges_per_update", per(b.merges - a.merges, moves), "count");
  Add("anonymizer.cloak_area_frac",
      per(facts_.cloak_area, facts_.cloaks) /
          casper::anonymizer::PyramidConfig{}.space.Area(),
      "ratio");

  Add("casper.strip_us", mean_self_us("query/casper.strip"), "us");
  Add("casper.refine_us", mean_self_us("query/casper.refine"), "us");

  Add("codec.encode_us", per(encode_ns, n_queries) / 1e3, "us");
  Add("codec.decode_us", per(decode_ns, n_queries) / 1e3, "us");
  Add("codec.ns_per_record", per(encode_ns + decode_ns, facts_.records_total),
      "ns/record");
  Add("codec.bytes_per_query", per(facts_.response_bytes, facts_.queries),
      "bytes");
  Add("codec.share", per(encode_ns + decode_ns + decode_query_ns, root_ns),
      "ratio");

  // ResilientClient::Execute self time, less the decode passes it makes
  // inside (timed by the replay, see TapChannel).
  Add("transport.client_us",
      per(get("query/transport.client").self_ns - decode_ns, n_queries) / 1e3,
      "us");
  Add("transport.roundtrip_us", mean_self_us("query/transport.channel"), "us");
  casper::obs::CasperMetrics& m = deployment_->metrics();
  Add("transport.retries",
      static_cast<double>(m.transport_retries_total->Value()), "count");
  Add("transport.failures",
      static_cast<double>(m.transport_failures_total->Value()), "count");

  for (size_t k = 0; k < kKinds; ++k) {
    const std::string label = casper::obs::kQueryKindLabels[k];
    const SpanTotals& t = get("query/server.execute." + label);
    report_.metrics.push_back(Metric{"server.execute_us." + label,
                                     per(t.total_ns, t.count) / 1e3, "us"});
  }
  for (size_t k = 0; k < kKinds; ++k) {
    report_.metrics.push_back(
        Metric{std::string("server.candidates.") + casper::obs::kQueryKindLabels[k],
               per(facts_.records[k], facts_.per_kind[k]), "count"});
  }
  Add("server.handle_us", mean_self_us("query/server.handle"), "us");
  const SpanTotals& apply = get("update/server.apply");
  Add("server.apply_us", per(apply.total_ns, apply.count) / 1e3, "us");
  Add("server.apply_p99_us", apply.durations_ns.Quantile(0.99) / 1e3, "us");
  Add("spatial.rebuilds_per_1k_updates",
      per(static_cast<double>(facts_.rebuilds), moves) * 1e3, "count");

  Add("batch.cloak_phase_share", per(cloak_share_sum_, batches_), "ratio");
  Add("batch.pool_utilization", per(pool_utilization_sum_, batches_), "ratio");
  const double hits = static_cast<double>(m.cache_hits_total->Value());
  const double misses = static_cast<double>(m.cache_misses_total->Value());
  Add("cache.hit_rate", per(hits, hits + misses), "ratio");

  const double traced_us = per(root_ns, n_queries) / 1e3;
  const double untraced_us = per(facts_.untraced_us, facts_.queries);
  Add("trace.traced_us", traced_us, "us");
  Add("trace.untraced_us", untraced_us, "us");
  Add("trace.overhead_frac", untraced_us > 0 ? traced_us / untraced_us - 1.0 : 0.0,
      "ratio");
  Add("trace.coverage_frac",
      root_ns > 0 ? 1.0 - (roots.self_ns + get("query/trace.copy").self_ns) /
                              root_ns
                  : 0.0,
      "ratio");
  Add("error_ratio",
      per(static_cast<double>(report_.failed),
          static_cast<double>(report_.attempted)),
      "ratio");
}

Report Runner::Run() {
  inputs_ = MakeInputs(spec_, options_.seed);
  truth_ = inputs_.truth;
  // Set-up is timed several times and the median reported: at least
  // kMinBuilds times, and a cheap set-up until kSetupSeconds are spent
  // or kMaxBuilds are done. The last instance is the one measured.
  constexpr size_t kMinBuilds = 5;
  constexpr size_t kMaxBuilds = 40;
  constexpr double kSetupSeconds = 2.0;
  const size_t min_builds = options_.trace ? 1 : kMinBuilds;
  const size_t max_builds = options_.trace ? 1 : kMaxBuilds;
  casper::SummaryStats setups;
  while (setups.count() < min_builds ||
         (setups.count() < max_builds && setups.sum() < kSetupSeconds)) {
    cpus_.Next();
    deployment_.reset();  // The previous instance goes first.
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<Deployment>> created = Deployment::Create(
        spec_, inputs_.truth, options_.trace, options_.scratch_dir);
    setups.Add(Since(t0));
    if (!created.ok()) {
      Violation("setup: " + created.status().ToString());
      return report_;
    }
    deployment_ = std::move(created).value();
  }

  const double s = options_.seconds;
  const bool city = spec_.kind == Kind::kMovingCity;
  if (!options_.trace) {
    if (city) {
      CityPhase(s, false);
      Census();
    } else {
      RoundPhase(s);
    }
    EndToEndMetrics(setups);
    return report_;
  }

  // Traced run: an untraced phase feeds the counters (retries, cache,
  // batch engine), then the traced phases feed the spans.
  casper::CasperService& service = deployment_->service();
  if (city) {
    CityPhase(0.4 * s, false);
  } else {
    RoundPhase(0.35 * s);
    TracedQueries(0.45 * s);
  }
  facts_.pyramid_before = service.anonymizer().stats();
  const uint64_t rebuilds =
      deployment_->server().private_store().epoch_stats().rebuilds;
  if (city) {
    CityPhase(0.6 * s, true);
    Census();
  } else {
    TracedUpdates(0.2 * s);
  }
  facts_.pyramid_after = service.anonymizer().stats();
  facts_.rebuilds =
      deployment_->server().private_store().epoch_stats().rebuilds - rebuilds;
  LayerMetrics();
  if (!options_.spans_path.empty() &&
      !deployment_->spans().WriteJsonl(options_.spans_path)) {
    std::fprintf(stderr, "casperbench: cannot write %s\n",
                 options_.spans_path.c_str());
  }
  return report_;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"big_lists", "uds_mixed",
                                                  "moving_city"};
  return kNames;
}

Report RunWorkload(const RunOptions& options) {
  Runner runner(options);
  return runner.Run();
}

}  // namespace casperbench
