// casper_cli — an interactive (or scripted) shell around CasperService.
//
// Reads one command per line from stdin and prints results to stdout;
// built for quick exploration, demos, and end-to-end scripting. Run
// `help` for the command list, or pipe a script:
//
//   printf 'targets 100 7\nregister 1 5 0 .5 .5\n...' | casper_cli

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/casper/batch_query_engine.h"
#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"
#include "src/obs/exporters.h"
#include "src/scenarios/scenario.h"
#include "src/server/query_server.h"
#include "src/storage/disk_storage.h"
#include "src/transport/fault_injection.h"
#include "src/transport/listener.h"
#include "src/transport/server_endpoint.h"
#include "src/transport/socket_channel.h"

namespace casper {
namespace {

/// Stored public targets and cloaked regions, for status lines.
size_t TargetCount(const CasperService& service) {
  return processor::PublicTargetStore::Snapshot(service.public_store()).size();
}
size_t RegionCount(const CasperService& service) {
  return processor::PrivateTargetStore::Snapshot(service.private_store())
      .size();
}

/// Chaos knobs, all off by default. `--chaos-drop` and
/// `--chaos-corrupt` are split evenly between the request and response
/// directions; any non-zero knob wraps the tier channel in a seeded
/// transport::FaultInjectingChannel, so a whole interactive session
/// (or scripted pipe) runs against a misbehaving transport.
struct ChaosFlags {
  double drop = 0.0;
  double corrupt = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  unsigned long long delay_micros = 200;
  unsigned long long seed = 0xC4A05;

  bool enabled() const {
    return drop > 0.0 || corrupt > 0.0 || duplicate > 0.0 || delay > 0.0;
  }

  transport::FaultProfile ToProfile() const {
    transport::FaultProfile profile;
    profile.drop_request_rate = drop / 2.0;
    profile.drop_response_rate = drop / 2.0;
    profile.corrupt_request_rate = corrupt / 2.0;
    profile.corrupt_response_rate = corrupt / 2.0;
    profile.duplicate_rate = duplicate;
    profile.delay_rate = delay;
    profile.delay_micros = delay_micros;
    return profile;
  }
};

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s [--connect=ADDR] [--idempotency-window=N]\n"
      "          [--chaos-drop=R] [--chaos-corrupt=R]\n"
      "          [--chaos-dup=R] [--chaos-delay=R] "
      "[--chaos-delay-micros=N]\n"
      "          [--chaos-seed=N]\n"
      "       %s scenario <name> [--socket | --connect=ADDR]\n"
      "          [--users=N] [--targets=N] [--ticks=N] "
      "[--queries-per-tick=N]\n"
      "          [--threads=N] [--seed=N] [--no-oracles] "
      "[--oracle-interval=N]\n"
      "          [--oracle-samples=N] [--out=PATH] [--chaos-*]\n"
      "       %s serve <addr> [--targets=N [--targets-seed=S]]\n"
      "          [--idempotency-window=N] [--net-workers=N] "
      "[--net-max-conns=N]\n"
      "          [--net-watermark=N] [--net-max-rps=N] "
      "[--net-max-bytes=N]\n"
      "          [--net-ban-seconds=F] [--net-idle-timeout=F]\n"
      "  --connect=ADDR sends the anonymizer's wire traffic to a remote\n"
      "  `%s serve` process over a real socket (`unix:/path` or\n"
      "  `host:port`) instead of the in-process server; chaos flags\n"
      "  compose around the socket channel.\n"
      "  `scenario <name>` replays a named city-scale workload\n"
      "  (rush_hour, flash_crowd, continuous_storm, mixed_profiles,\n"
      "  churn_chaos) with invariant oracles, writing\n"
      "  BENCH_scenario_<name>.json; sizes honor CASPER_BENCH_SCALE and\n"
      "  `scenario list` prints the registry. Exit 1 = invariant\n"
      "  violation.\n"
      "  `serve <addr>` runs the untrusted server tier alone: a\n"
      "  SocketListener bound to <addr>, admission control and DoS\n"
      "  limits per the --net-* flags, SIGINT/SIGTERM drain.\n"
      "  R are per-call fault probabilities in [0, 1]; any non-zero rate\n"
      "  injects deterministic faults (seeded by --chaos-seed) into the\n"
      "  anonymizer<->server channel. The `transport` command shows the\n"
      "  breaker state and what was injected.\n",
      argv0, argv0, argv0, argv0);
}

/// Parse one --chaos-* flag; returns false on an unknown flag or an
/// out-of-range value.
bool ParseFlag(const char* arg, ChaosFlags* chaos) {
  double* rate = nullptr;
  if (std::strncmp(arg, "--chaos-drop=", 13) == 0) {
    rate = &chaos->drop;
    arg += 13;
  } else if (std::strncmp(arg, "--chaos-corrupt=", 16) == 0) {
    rate = &chaos->corrupt;
    arg += 16;
  } else if (std::strncmp(arg, "--chaos-dup=", 12) == 0) {
    rate = &chaos->duplicate;
    arg += 12;
  } else if (std::strncmp(arg, "--chaos-delay=", 14) == 0) {
    rate = &chaos->delay;
    arg += 14;
  } else if (std::strncmp(arg, "--chaos-delay-micros=", 21) == 0) {
    return std::sscanf(arg + 21, "%llu", &chaos->delay_micros) == 1;
  } else if (std::strncmp(arg, "--chaos-seed=", 13) == 0) {
    return std::sscanf(arg + 13, "%llu", &chaos->seed) == 1;
  } else {
    return false;
  }
  return std::sscanf(arg, "%lf", rate) == 1 && *rate >= 0.0 && *rate <= 1.0;
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  register <uid> <k> <a_min> <x> <y>   register a mobile user\n"
      "  move <uid> <x> <y>                   location update\n"
      "  profile <uid> <k> <a_min>            change privacy profile\n"
      "  deregister <uid>                     remove a user\n"
      "  targets <n> <seed>                   n uniform public targets\n"
      "  cloak <uid>                          show the cloaked region\n"
      "  nn <uid>                             private NN over public data\n"
      "  knn <uid> <k>                        private k-NN\n"
      "  range <uid> <radius>                 private range query\n"
      "  sync                                 push cloaks to the server\n"
      "  count <x0> <y0> <x1> <y1>            public range count\n"
      "  density <cols> <rows>                expected-density map\n"
      "  buddy <uid>                          private NN over private data\n"
      "  batch <count> <threads>              mixed parallel batch + summary\n"
      "  stats                                anonymizer statistics\n"
      "  transport                            breaker state, replay depth,\n"
      "                                       injected-fault stats\n"
      "  flush                                drain the upsert replay buffer\n"
      "  save <path>                          checkpoint the server tier to\n"
      "                                       <path>.dat/<path>.idx\n"
      "  open <path>                          reopen server state from a\n"
      "                                       saved checkpoint\n"
      "  metrics [json]                       scrape the metrics registry\n"
      "                                       (Prometheus text, or JSON)\n"
      "  help                                 this text\n"
      "  quit                                 exit\n");
}

volatile sig_atomic_t g_stop = 0;
void StopSignal(int) { g_stop = 1; }

/// `casper_cli serve <addr>`: run the untrusted server tier alone — a
/// QueryServer behind a SocketListener — until SIGINT/SIGTERM, then
/// drain gracefully. The trusted anonymizer stays in the client process
/// (`--connect=ADDR`), so exact user locations never enter this process
/// at all.
int RunServe(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s serve <addr> [flags]\n", argv[0]);
    return 2;
  }
  const std::string address = argv[2];
  unsigned long long targets = 0, targets_seed = 7;
  unsigned long long idempotency_window = 8192;
  transport::ListenerOptions net;
  // A public-facing listener wants DoS limits on by default; keep them
  // generous enough that a single well-behaved anonymizer never trips
  // them (the in-process tier sustains ~1e5 qps; a remote one far
  // less).
  net.max_requests_per_window = 200000;
  net.max_bytes_per_window = 64u << 20;
  for (int i = 3; i < argc; ++i) {
    const char* arg = argv[i];
    unsigned long long* target_ull = nullptr;
    if (std::strncmp(arg, "--targets=", 10) == 0) {
      target_ull = &targets;
      arg += 10;
    } else if (std::strncmp(arg, "--targets-seed=", 15) == 0) {
      target_ull = &targets_seed;
      arg += 15;
    } else if (std::strncmp(arg, "--idempotency-window=", 21) == 0) {
      target_ull = &idempotency_window;
      arg += 21;
    } else if (std::strncmp(arg, "--net-workers=", 14) == 0) {
      unsigned long long v;
      if (std::sscanf(arg + 14, "%llu", &v) != 1 || v < 1 || v > 64) {
        std::fprintf(stderr, "bad flag: %s\n", argv[i]);
        return 2;
      }
      net.worker_threads = static_cast<int>(v);
      continue;
    } else if (std::strncmp(arg, "--net-max-conns=", 16) == 0) {
      unsigned long long v;
      if (std::sscanf(arg + 16, "%llu", &v) != 1 || v < 1) {
        std::fprintf(stderr, "bad flag: %s\n", argv[i]);
        return 2;
      }
      net.max_connections = v;
      continue;
    } else if (std::strncmp(arg, "--net-watermark=", 16) == 0) {
      unsigned long long v;
      if (std::sscanf(arg + 16, "%llu", &v) != 1 || v < 1) {
        std::fprintf(stderr, "bad flag: %s\n", argv[i]);
        return 2;
      }
      net.inbound_queue_watermark = v;
      continue;
    } else if (std::strncmp(arg, "--net-max-rps=", 14) == 0) {
      unsigned long long v;
      if (std::sscanf(arg + 14, "%llu", &v) != 1) {
        std::fprintf(stderr, "bad flag: %s\n", argv[i]);
        return 2;
      }
      net.max_requests_per_window = v;
      continue;
    } else if (std::strncmp(arg, "--net-max-bytes=", 16) == 0) {
      unsigned long long v;
      if (std::sscanf(arg + 16, "%llu", &v) != 1) {
        std::fprintf(stderr, "bad flag: %s\n", argv[i]);
        return 2;
      }
      net.max_bytes_per_window = v;
      continue;
    } else if (std::strncmp(arg, "--net-ban-seconds=", 18) == 0) {
      if (std::sscanf(arg + 18, "%lf", &net.ban_seconds) != 1) {
        std::fprintf(stderr, "bad flag: %s\n", argv[i]);
        return 2;
      }
      continue;
    } else if (std::strncmp(arg, "--net-idle-timeout=", 19) == 0) {
      if (std::sscanf(arg + 19, "%lf", &net.idle_timeout_seconds) != 1) {
        std::fprintf(stderr, "bad flag: %s\n", argv[i]);
        return 2;
      }
      continue;
    } else {
      std::fprintf(stderr, "bad flag: %s\n", argv[i]);
      return 2;
    }
    if (std::sscanf(arg, "%llu", target_ull) != 1) {
      std::fprintf(stderr, "bad flag: %s\n", argv[i]);
      return 2;
    }
  }

  // The managed space; a --connect client derives the same default from
  // its PyramidConfig, so --targets provisioning is reproducible on
  // both sides (the soak test computes its NN oracle locally from the
  // same (n, seed) pair).
  const Rect space = anonymizer::PyramidConfig{}.space;

  server::QueryServerOptions server_options;
  server_options.density_extent = space;
  server_options.idempotency_window = idempotency_window;
  server::QueryServer query_server(server_options);
  transport::ServerEndpoint endpoint(&query_server);
  if (targets > 0) {
    Rng target_rng(targets_seed);
    query_server.SetPublicTargets(
        workload::UniformPublicTargets(targets, space, &target_rng));
  }

  auto listener = transport::SocketListener::Start(
      address,
      transport::SerializedHandler(
          [&endpoint](std::string_view request,
                      const transport::CallContext& context) {
            return endpoint.Handle(request, context);
          }),
      net);
  if (!listener.ok()) {
    std::fprintf(stderr, "%s\n", listener.status().ToString().c_str());
    return 1;
  }
  signal(SIGINT, StopSignal);
  signal(SIGTERM, StopSignal);
  // The readiness line clients and scripts wait for; flushed so it is
  // visible through a pipe immediately.
  std::printf("serving on %s (%llu targets, idempotency_window=%llu)\n",
              (*listener)->bound_address().c_str(), targets,
              idempotency_window);
  std::fflush(stdout);
  while (!g_stop) usleep(100 * 1000);
  (*listener)->Shutdown();
  const transport::ListenerStats s = (*listener)->stats();
  std::printf("drained: accepted=%llu frames=%llu shed=%llu "
              "rate_limited=%llu bans=%llu frame_errors=%llu\n",
              static_cast<unsigned long long>(s.accepted),
              static_cast<unsigned long long>(s.frames),
              static_cast<unsigned long long>(s.shed),
              static_cast<unsigned long long>(s.rate_limited),
              static_cast<unsigned long long>(s.bans),
              static_cast<unsigned long long>(s.frame_errors));
  return 0;
}

const char* BreakerStateName(transport::BreakerState state) {
  switch (state) {
    case transport::BreakerState::kClosed:
      return "closed";
    case transport::BreakerState::kOpen:
      return "open";
    case transport::BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

/// Scenario sizes honor CASPER_BENCH_SCALE the way the benches do:
/// defaults are multiplied by the scale, explicit flags are absolute.
size_t ScenarioScaled(size_t n) {
  static const double scale = [] {
    const char* env = std::getenv("CASPER_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  const auto v = static_cast<size_t>(static_cast<double>(n) * scale);
  return v > 0 ? v : 1;
}

/// `casper_cli scenario <name>`: replay one named city-scale scenario
/// against the chosen stack and write its BENCH_scenario_<name>.json.
/// Exit 0 = ran clean, 1 = an invariant oracle caught a violation,
/// 2 = usage error, 3 = setup failure.
int RunScenarioCommand(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s scenario <name> [flags]\n", argv[0]);
    return 2;
  }
  const std::string name = argv[2];
  if (name == "list") {
    for (const std::string& n : scenarios::ScenarioNames()) {
      auto script = scenarios::ScriptFor(n);
      std::printf("%-18s %s\n", n.c_str(),
                  script.ok() ? script->description.c_str() : "");
    }
    return 0;
  }

  scenarios::ScenarioOptions options;
  options.users = ScenarioScaled(options.users);
  options.targets = ScenarioScaled(options.targets);
  options.queries_per_tick = ScenarioScaled(options.queries_per_tick);
  options.out_path = "BENCH_scenario_" + name + ".json";

  ChaosFlags chaos;
  unsigned long long value = 0;
  for (int i = 3; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--users=", 8) == 0 &&
        std::sscanf(arg + 8, "%llu", &value) == 1 && value > 0) {
      options.users = value;
    } else if (std::strncmp(arg, "--targets=", 10) == 0 &&
               std::sscanf(arg + 10, "%llu", &value) == 1 && value > 0) {
      options.targets = value;
    } else if (std::strncmp(arg, "--ticks=", 8) == 0 &&
               std::sscanf(arg + 8, "%llu", &value) == 1 && value > 0) {
      options.ticks = value;
    } else if (std::strncmp(arg, "--queries-per-tick=", 19) == 0 &&
               std::sscanf(arg + 19, "%llu", &value) == 1) {
      options.queries_per_tick = value;
    } else if (std::strncmp(arg, "--threads=", 10) == 0 &&
               std::sscanf(arg + 10, "%llu", &value) == 1 && value > 0) {
      options.threads = value;
    } else if (std::strncmp(arg, "--seed=", 7) == 0 &&
               std::sscanf(arg + 7, "%llu", &value) == 1) {
      options.seed = value;
    } else if (std::strncmp(arg, "--oracle-interval=", 18) == 0 &&
               std::sscanf(arg + 18, "%llu", &value) == 1 && value > 0) {
      options.oracle_interval = value;
    } else if (std::strncmp(arg, "--oracle-samples=", 17) == 0 &&
               std::sscanf(arg + 17, "%llu", &value) == 1) {
      options.oracle_samples = value;
    } else if (std::strcmp(arg, "--no-oracles") == 0) {
      options.oracles = false;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      options.out_path = arg + 6;
    } else if (std::strcmp(arg, "--socket") == 0) {
      options.stack.kind = scenarios::StackKind::kSocket;
    } else if (std::strncmp(arg, "--connect=", 10) == 0 &&
               arg[10] != '\0') {
      options.stack.kind = scenarios::StackKind::kConnect;
      options.stack.connect = arg + 10;
    } else if (ParseFlag(arg, &chaos)) {
      // Accumulated below.
    } else {
      std::fprintf(stderr, "bad flag: %s\n", arg);
      return 2;
    }
  }
  if (chaos.enabled()) {
    options.stack.chaos = chaos.ToProfile();
    options.stack.chaos_seed = chaos.seed;
  }

  auto script = scenarios::ScriptFor(name);
  if (!script.ok()) {
    std::fprintf(stderr, "%s (try `%s scenario list`)\n",
                 script.status().message().c_str(), argv[0]);
    return 2;
  }

  std::printf("scenario %s: %s\n", name.c_str(),
              script->description.c_str());
  auto report = scenarios::RunScenario(*script, options);
  if (!report.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 report.status().message().c_str());
    return 3;
  }
  std::printf(
      "stack=%s users=%zu targets=%zu ticks=%zu\n"
      "queries: total=%llu ok=%llu errors=%llu degraded=%llu shed=%llu "
      "(%.0f qps)\n"
      "latency_micros: p50=%.1f p95=%.1f p99=%.1f\n"
      "updates: applied=%zu dropped=%zu  zero_progress_fallbacks=%llu\n"
      "continuous: queries=%zu evaluations=%llu reuses=%llu\n"
      "oracles: nn=%llu/%llu region=%llu/%llu continuous=%llu/%llu "
      "skipped=%llu\n"
      "report: %s\n"
      "%s\n",
      report->stack.c_str(), report->users, report->targets, report->ticks,
      static_cast<unsigned long long>(report->queries_total),
      static_cast<unsigned long long>(report->queries_ok),
      static_cast<unsigned long long>(report->queries_error),
      static_cast<unsigned long long>(report->queries_degraded),
      static_cast<unsigned long long>(report->queries_shed), report->qps,
      report->latency_micros.p50, report->latency_micros.p95,
      report->latency_micros.p99, report->updates.applied,
      report->updates.dropped,
      static_cast<unsigned long long>(report->zero_progress_fallbacks),
      report->continuous_queries,
      static_cast<unsigned long long>(report->continuous.evaluations),
      static_cast<unsigned long long>(report->continuous.reuses),
      static_cast<unsigned long long>(report->oracles.nn_violations),
      static_cast<unsigned long long>(report->oracles.nn_checks),
      static_cast<unsigned long long>(report->oracles.region_violations),
      static_cast<unsigned long long>(report->oracles.region_checks),
      static_cast<unsigned long long>(report->oracles.continuous_violations),
      static_cast<unsigned long long>(report->oracles.continuous_checks),
      static_cast<unsigned long long>(report->oracles.skipped),
      options.out_path.c_str(),
      report->Passed() ? "PASSED" : "FAILED: invariant violations");
  return report->Passed() ? 0 : 1;
}

int Run(int argc, char** argv) {
  ChaosFlags chaos;
  std::string connect;  // Empty = in-process server tier.
  unsigned long long idempotency_window = 8192;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(argv[0]);
      return 0;
    }
    if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      connect = argv[i] + 10;
      if (connect.empty()) {
        std::fprintf(stderr, "bad flag: %s (want an address)\n", argv[i]);
        return 2;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--idempotency-window=", 21) == 0) {
      if (std::sscanf(argv[i] + 21, "%llu", &idempotency_window) != 1) {
        std::fprintf(stderr, "bad flag: %s\n", argv[i]);
        return 2;
      }
      continue;
    }
    if (!ParseFlag(argv[i], &chaos)) {
      std::fprintf(stderr, "bad flag: %s\n", argv[i]);
      PrintUsage(argv[0]);
      return 2;
    }
  }

  CasperOptions options;
  options.pyramid.height = 8;
  options.server_idempotency_window = idempotency_window;
  transport::FaultInjectingChannel* fault = nullptr;
  transport::SocketChannel* socket = nullptr;
  const transport::FaultProfile profile = chaos.ToProfile();

  if (!connect.empty()) {
    // Remote server tier: replace the in-process direct channel with a
    // real socket channel; chaos (when enabled) composes *around* the
    // socket, exactly as it wrapped the direct channel.
    options.channel_decorator =
        [&socket, &fault, &profile, &chaos, &connect](
            transport::Channel*) -> std::unique_ptr<transport::Channel> {
      transport::SocketChannelOptions socket_options;
      socket_options.connect_timeout_seconds = 0.5;
      socket_options.io_timeout_seconds = 2.0;
      auto owned =
          std::make_unique<transport::SocketChannel>(connect, socket_options);
      socket = owned.get();
      if (!chaos.enabled()) return owned;
      auto wrapped = std::make_unique<transport::FaultInjectingChannel>(
          owned.get(), profile, chaos.seed);
      fault = wrapped.get();
      // The fault wrapper does not own its inner channel; park the
      // socket on a composite so both live as long as the client.
      struct Composite : transport::Channel {
        std::unique_ptr<transport::SocketChannel> inner;
        std::unique_ptr<transport::FaultInjectingChannel> outer;
        Result<std::string> Call(std::string_view request,
                                 const transport::CallContext& context)
            override {
          return outer->Call(request, context);
        }
      };
      auto composite = std::make_unique<Composite>();
      composite->inner = std::move(owned);
      composite->outer = std::move(wrapped);
      return composite;
    };
  } else if (chaos.enabled()) {
    options.channel_decorator =
        [&fault, &profile, &chaos](
            transport::Channel* inner) -> std::unique_ptr<transport::Channel> {
      auto owned = std::make_unique<transport::FaultInjectingChannel>(
          inner, profile, chaos.seed);
      fault = owned.get();
      return owned;
    };
  }
  CasperService service(options);
  if (!connect.empty()) {
    std::printf("connected to %s (remote server tier)\n", connect.c_str());
  }
  if (chaos.enabled()) {
    std::printf("chaos: combined fault rate %.3f, seed %llu\n",
                profile.CombinedRate(), chaos.seed);
  }
  Rng rng(1);
  // Registered uids, in registration order — the batch command cycles
  // through them (the service itself never exposes an id roster).
  std::vector<unsigned long long> uids;

  char line[512];
  std::printf("casper> ");
  std::fflush(stdout);
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    char cmd[32] = {0};
    if (std::sscanf(line, "%31s", cmd) != 1) {
      std::printf("casper> ");
      std::fflush(stdout);
      continue;
    }
    const std::string c = cmd;

    if (c == "quit" || c == "exit") {
      break;
    } else if (c == "help") {
      PrintHelp();
    } else if (c == "register") {
      unsigned long long uid;
      unsigned k;
      double a_min, x, y;
      if (std::sscanf(line, "%*s %llu %u %lf %lf %lf", &uid, &k, &a_min, &x,
                      &y) != 5) {
        std::printf("usage: register <uid> <k> <a_min> <x> <y>\n");
      } else {
        const Status st =
            service.RegisterUser(uid, {k, a_min}, Point{x, y});
        if (st.ok()) uids.push_back(uid);
        std::printf("%s\n", st.ToString().c_str());
      }
    } else if (c == "move") {
      unsigned long long uid;
      double x, y;
      if (std::sscanf(line, "%*s %llu %lf %lf", &uid, &x, &y) != 3) {
        std::printf("usage: move <uid> <x> <y>\n");
      } else {
        std::printf("%s\n",
                    service.UpdateUserLocation(uid, Point{x, y})
                        .ToString()
                        .c_str());
      }
    } else if (c == "profile") {
      unsigned long long uid;
      unsigned k;
      double a_min;
      if (std::sscanf(line, "%*s %llu %u %lf", &uid, &k, &a_min) != 3) {
        std::printf("usage: profile <uid> <k> <a_min>\n");
      } else {
        std::printf("%s\n",
                    service.UpdateUserProfile(uid, {k, a_min})
                        .ToString()
                        .c_str());
      }
    } else if (c == "deregister") {
      unsigned long long uid;
      if (std::sscanf(line, "%*s %llu", &uid) != 1) {
        std::printf("usage: deregister <uid>\n");
      } else {
        const Status st = service.DeregisterUser(uid);
        if (st.ok()) std::erase(uids, uid);
        std::printf("%s\n", st.ToString().c_str());
      }
    } else if (c == "targets") {
      unsigned long long n, seed;
      if (std::sscanf(line, "%*s %llu %llu", &n, &seed) != 2) {
        std::printf("usage: targets <n> <seed>\n");
      } else {
        Rng target_rng(seed);
        auto generated = workload::UniformPublicTargets(
            n, service.options().pyramid.space, &target_rng);
        if (!connect.empty()) {
          // Public targets are server-side provisioning, not wire
          // traffic; a remote tier provisions its own on startup.
          std::printf("targets is server-side provisioning; start the "
                      "remote tier with `casper_cli serve <addr> "
                      "--targets=%llu --targets-seed=%llu`\n",
                      n, seed);
        } else {
          service.SetPublicTargets(generated);
          std::printf("OK: %llu public targets\n", n);
        }
      }
    } else if (c == "cloak") {
      unsigned long long uid;
      if (std::sscanf(line, "%*s %llu", &uid) != 1) {
        std::printf("usage: cloak <uid>\n");
      } else {
        auto result = service.anonymizer_tier().Cloak(uid);
        if (!result.ok()) {
          std::printf("%s\n", result.status().ToString().c_str());
        } else {
          std::printf("region=%s users=%llu levels=%d merged=%d\n",
                      result->region.ToString().c_str(),
                      static_cast<unsigned long long>(
                          result->users_in_region),
                      result->levels_visited,
                      result->merged_with_neighbor ? 1 : 0);
        }
      }
    } else if (c == "nn") {
      unsigned long long uid;
      if (std::sscanf(line, "%*s %llu", &uid) != 1) {
        std::printf("usage: nn <uid>\n");
      } else {
        auto r = service.QueryNearestPublic(uid);
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
        } else {
          std::printf("cloak=%s candidates=%zu exact=target:%llu at "
                      "(%g, %g) total_us=%.1f\n",
                      r->cloak.region.ToString().c_str(),
                      r->server_answer.size(),
                      static_cast<unsigned long long>(r->exact.id),
                      r->exact.position.x, r->exact.position.y,
                      r->timing.Total() * 1e6);
        }
      }
    } else if (c == "knn") {
      unsigned long long uid, k;
      if (std::sscanf(line, "%*s %llu %llu", &uid, &k) != 2) {
        std::printf("usage: knn <uid> <k>\n");
      } else {
        auto r = service.QueryKNearestPublic(uid, k);
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
        } else {
          std::printf("candidates=%zu exact=[", r->server_answer.size());
          for (size_t i = 0; i < r->exact.size(); ++i) {
            std::printf("%s%llu", i == 0 ? "" : ",",
                        static_cast<unsigned long long>(r->exact[i].id));
          }
          std::printf("]\n");
        }
      }
    } else if (c == "range") {
      unsigned long long uid;
      double radius;
      if (std::sscanf(line, "%*s %llu %lf", &uid, &radius) != 2) {
        std::printf("usage: range <uid> <radius>\n");
      } else {
        auto r = service.QueryRangePublic(uid, radius);
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
        } else {
          std::printf("candidates=%zu window=%s\n", r->candidates.size(),
                      r->search_window.ToString().c_str());
        }
      }
    } else if (c == "sync") {
      std::printf("%s\n", service.SyncPrivateData().ToString().c_str());
    } else if (c == "count") {
      double x0, y0, x1, y1;
      if (std::sscanf(line, "%*s %lf %lf %lf %lf", &x0, &y0, &x1, &y1) != 4) {
        std::printf("usage: count <x0> <y0> <x1> <y1>\n");
      } else {
        auto r = service.QueryPublicRange(Rect(x0, y0, x1, y1));
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
        } else {
          std::printf("certain=%zu expected=%.2f possible=%zu\n", r->certain,
                      r->expected, r->possible);
        }
      }
    } else if (c == "density") {
      int cols, rows;
      if (std::sscanf(line, "%*s %d %d", &cols, &rows) != 2) {
        std::printf("usage: density <cols> <rows>\n");
      } else {
        auto r = service.QueryDensity(cols, rows);
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
        } else {
          for (int row = rows - 1; row >= 0; --row) {
            for (int col = 0; col < cols; ++col) {
              std::printf("%8.2f", r->At(col, row));
            }
            std::printf("\n");
          }
          std::printf("total=%.2f\n", r->Total());
        }
      }
    } else if (c == "buddy") {
      unsigned long long uid;
      if (std::sscanf(line, "%*s %llu", &uid) != 1) {
        std::printf("usage: buddy <uid>\n");
      } else {
        auto r = service.QueryNearestPrivate(uid);
        if (!r.ok()) {
          std::printf("%s\n", r.status().ToString().c_str());
        } else {
          auto resolved = service.ResolvePseudonym(r->best.id);
          std::printf("candidates=%zu best=pseudonym:%016llx (user %llu) "
                      "region=%s\n",
                      r->server_answer.size(),
                      static_cast<unsigned long long>(r->best.id),
                      static_cast<unsigned long long>(
                          resolved.ok() ? *resolved : 0),
                      r->best.region.ToString().c_str());
        }
      }
    } else if (c == "batch") {
      unsigned long long count, threads;
      if (std::sscanf(line, "%*s %llu %llu", &count, &threads) != 2 ||
          count == 0 || threads == 0) {
        std::printf("usage: batch <count> <threads>\n");
      } else if (uids.empty()) {
        std::printf("batch needs at least one registered user\n");
      } else {
        // A mixed workload cycling through every query kind, funneled
        // through the unified QueryRequest dispatch by the engine.
        const Rect space = service.options().pyramid.space;
        const double radius = space.width() * 0.01;
        std::vector<server::BatchQueryRequest> requests;
        requests.reserve(count);
        for (unsigned long long i = 0; i < count; ++i) {
          const unsigned long long uid = uids[i % uids.size()];
          switch (i % 7) {
            case 0:
              requests.push_back(
                  server::BatchQueryRequest::NearestPublic(uid));
              break;
            case 1:
              requests.push_back(
                  server::BatchQueryRequest::KNearestPublic(uid, 5));
              break;
            case 2:
              requests.push_back(
                  server::BatchQueryRequest::RangePublic(uid, radius));
              break;
            case 3:
              requests.push_back(
                  server::BatchQueryRequest::NearestPrivate(uid));
              break;
            case 4:
              requests.push_back(
                  server::BatchQueryRequest::PublicNearest(rng.PointIn(space)));
              break;
            case 5: {
              const Point corner = rng.PointIn(space);
              requests.push_back(server::BatchQueryRequest::PublicRange(
                  Rect(corner.x, corner.y,
                       std::min(space.max.x, corner.x + radius),
                       std::min(space.max.y, corner.y + radius))));
              break;
            }
            case 6:
              requests.push_back(server::BatchQueryRequest::Density(4, 4));
              break;
          }
        }
        server::BatchEngineOptions engine_options;
        engine_options.threads = threads;
        server::BatchQueryEngine engine(&service, engine_options);
        const server::BatchResult result = engine.Execute(requests);
        const server::BatchSummary& s = result.summary;
        std::printf("batch=%zu ok=%zu errors=%zu threads=%llu\n",
                    s.batch_size, s.ok_count, s.error_count, threads);
        std::printf("wall_s=%.6f cloak_s=%.6f qps=%.1f\n", s.wall_seconds,
                    s.cloak_seconds, s.queries_per_second);
        std::printf("processor_us p50=%.2f p95=%.2f p99=%.2f mean=%.2f\n",
                    s.processor_p50_micros, s.processor_p95_micros,
                    s.processor_p99_micros, s.processor_mean_micros);
        std::printf("totals_s anonymizer=%.6f processor=%.6f "
                    "transmission=%.6f\n",
                    s.totals.anonymizer_seconds, s.totals.processor_seconds,
                    s.totals.transmission_seconds);
        std::printf("cache hits=%llu misses=%llu hit_rate=%.4f\n",
                    static_cast<unsigned long long>(s.cache.hits),
                    static_cast<unsigned long long>(s.cache.misses),
                    s.cache.HitRate());
      }
    } else if (c == "metrics") {
      // The service registers its instruments on the process-default
      // registry (CasperOptions.metrics == nullptr), so one scrape
      // covers all three tiers plus any batch engines.
      char format[32] = {0};
      const bool json =
          std::sscanf(line, "%*s %31s", format) == 1 &&
          std::strcmp(format, "json") == 0;
      const obs::MetricsSnapshot snapshot =
          obs::MetricsRegistry::Default()->Scrape();
      const std::string text = json ? obs::ExportJson(snapshot)
                                    : obs::ExportPrometheus(snapshot);
      std::fwrite(text.data(), 1, text.size(), stdout);
    } else if (c == "transport") {
      const transport::ResilientClient& client = service.transport_client();
      std::printf("breaker=%s replay_depth=%zu\n",
                  BreakerStateName(client.breaker_state()),
                  client.replay_depth());
      if (socket != nullptr) {
        const transport::SocketChannelStats ss = socket->stats();
        std::printf("socket %s: calls=%llu dials=%llu dial_failures=%llu "
                    "reconnects=%llu backoff_fastfails=%llu "
                    "io_timeouts=%llu data_loss=%llu\n",
                    socket->address().c_str(),
                    static_cast<unsigned long long>(ss.calls),
                    static_cast<unsigned long long>(ss.dials),
                    static_cast<unsigned long long>(ss.dial_failures),
                    static_cast<unsigned long long>(ss.reconnects),
                    static_cast<unsigned long long>(ss.backoff_fastfails),
                    static_cast<unsigned long long>(ss.io_timeouts),
                    static_cast<unsigned long long>(ss.data_loss));
      }
      if (fault != nullptr) {
        const transport::FaultStats s = fault->stats();
        std::printf("calls=%llu injected=%llu dropped_req=%llu "
                    "dropped_resp=%llu dup=%llu corrupt_req=%llu "
                    "corrupt_resp=%llu delayed=%llu late=%llu\n",
                    static_cast<unsigned long long>(s.calls),
                    static_cast<unsigned long long>(s.TotalInjected()),
                    static_cast<unsigned long long>(s.dropped_requests),
                    static_cast<unsigned long long>(s.dropped_responses),
                    static_cast<unsigned long long>(s.duplicated),
                    static_cast<unsigned long long>(s.corrupted_requests),
                    static_cast<unsigned long long>(s.corrupted_responses),
                    static_cast<unsigned long long>(s.delayed),
                    static_cast<unsigned long long>(s.late_deliveries));
      } else {
        std::printf("chaos off (see casper_cli --help)\n");
      }
    } else if (c == "flush") {
      std::printf("%s\n",
                  service.transport_client().Flush().ToString().c_str());
    } else if (c == "save") {
      char path[256] = {0};
      if (!connect.empty()) {
        std::printf("save operates on the in-process server tier; a "
                    "--connect server checkpoints on its own side\n");
      } else if (std::sscanf(line, "%*s %255s", path) != 1) {
        std::printf("usage: save <path>\n");
      } else {
        auto sm = storage::DiskStorageManager::Create(path);
        if (!sm.ok()) {
          std::printf("%s\n", sm.status().ToString().c_str());
        } else {
          const Status saved = service.SaveServerState(sm->get());
          if (saved.ok()) {
            const auto stats = (*sm)->stats();
            std::printf("saved targets=%zu regions=%zu pages=%zu "
                        "page_size=%zu\n",
                        TargetCount(service), RegionCount(service),
                        stats.pages, stats.page_size);
          } else {
            std::printf("%s\n", saved.ToString().c_str());
          }
        }
      }
    } else if (c == "open") {
      char path[256] = {0};
      if (!connect.empty()) {
        std::printf("open operates on the in-process server tier; a "
                    "--connect server reopens on its own side\n");
      } else if (std::sscanf(line, "%*s %255s", path) != 1) {
        std::printf("usage: open <path>\n");
      } else {
        auto sm = storage::DiskStorageManager::Open(path);
        if (!sm.ok()) {
          std::printf("%s\n", sm.status().ToString().c_str());
        } else {
          const Status opened = service.OpenServerState(sm->get());
          if (opened.ok()) {
            std::printf("opened targets=%zu regions=%zu\n",
                        TargetCount(service), RegionCount(service));
          } else {
            std::printf("%s\n", opened.ToString().c_str());
          }
        }
      }
    } else if (c == "stats") {
      const auto& s = service.anonymizer().stats();
      std::printf("users=%zu location_updates=%llu counter_updates=%llu "
                  "splits=%llu merges=%llu cloaks=%llu\n",
                  service.user_count(),
                  static_cast<unsigned long long>(s.location_updates),
                  static_cast<unsigned long long>(s.counter_updates),
                  static_cast<unsigned long long>(s.splits),
                  static_cast<unsigned long long>(s.merges),
                  static_cast<unsigned long long>(s.cloak_calls));
    } else {
      std::printf("unknown command '%s' (try: help)\n", cmd);
    }
    std::printf("casper> ");
    std::fflush(stdout);
  }
  std::printf("bye\n");
  return 0;
}

}  // namespace
}  // namespace casper

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return casper::RunServe(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "scenario") == 0) {
    return casper::RunScenarioCommand(argc, argv);
  }
  return casper::Run(argc, argv);
}
