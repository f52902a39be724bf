#include "src/scenarios/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "src/casper/batch_query_engine.h"
#include "src/common/stopwatch.h"
#include "src/network/network_generator.h"
#include "src/obs/exporters.h"

namespace casper::scenarios {
namespace {

double Shape(const std::function<double(double)>& f, double frac,
             double neutral) {
  if (!f) return neutral;
  return f(frac);
}

/// Converts a unit-square fraction rect onto the managed space; an
/// empty fraction rect stays empty.
Rect ScaleToSpace(const Rect& fraction, const Rect& space) {
  if (fraction.is_empty()) return fraction;
  const double w = space.width();
  const double h = space.height();
  return Rect(space.min.x + fraction.min.x * w,
              space.min.y + fraction.min.y * h,
              space.min.x + fraction.max.x * w,
              space.min.y + fraction.max.y * h);
}

/// Profiles must stay satisfiable at any population scale: a cloak for
/// k > population can never close, and every unsatisfiable profile
/// silently shrinks the published snapshot (breaking the census
/// oracle for the wrong reason).
workload::ProfileDistribution ClampProfile(
    const workload::ProfileDistribution& dist, size_t users) {
  workload::ProfileDistribution clamped = dist;
  const uint32_t cap =
      static_cast<uint32_t>(std::max<size_t>(1, users / 2));
  clamped.k_max = std::min(clamped.k_max, cap);
  clamped.k_min = std::min(clamped.k_min, clamped.k_max);
  return clamped;
}

struct TrackedQuery {
  processor::QueryId qid = 0;
  uint64_t uid = 0;
  bool last_recomputed = true;  ///< Register() is a full evaluation.
};

void AppendJson(std::string* out, const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  out->append(buffer);
}

void AppendDistribution(std::string* out, const char* key,
                        const DistributionSummary& d, bool trailing_comma) {
  AppendJson(out,
             "  \"%s\": {\"count\": %llu, \"mean\": %.6f, \"p50\": %.6f, "
             "\"p95\": %.6f, \"p99\": %.6f, \"max\": %.6f}%s\n",
             key, static_cast<unsigned long long>(d.count), d.mean, d.p50,
             d.p95, d.p99, d.max, trailing_comma ? "," : "");
}

}  // namespace

DistributionSummary DistributionSummary::Of(const SummaryStats& stats) {
  DistributionSummary d;
  d.count = stats.count();
  d.mean = stats.mean();
  d.p50 = stats.Quantile(0.5);
  d.p95 = stats.Quantile(0.95);
  d.p99 = stats.Quantile(0.99);
  d.max = stats.max();
  return d;
}

std::vector<std::string> ScenarioNames() {
  return {"rush_hour", "flash_crowd", "continuous_storm", "mixed_profiles",
          "churn_chaos"};
}

Result<ScenarioScript> ScriptFor(const std::string& name) {
  ScenarioScript script;
  script.name = name;
  script.profile_classes = {workload::ProfileDistribution{}};

  if (name == "rush_hour") {
    script.description =
        "Road-network commute: speeds collapse and queries concentrate "
        "on the downtown hotspot mid-run, then recover.";
    script.speed_factor = [](double frac) {
      return 1.0 - 0.7 * std::sin(frac * M_PI);
    };
    script.query_rate = [](double frac) {
      return 1.0 + 0.5 * std::sin(frac * M_PI);
    };
    script.hotspot_weight = [](double frac) {
      return 0.1 + 0.7 * std::sin(frac * M_PI);
    };
    script.hotspot_fraction = Rect(0.35, 0.35, 0.65, 0.65);
    return script;
  }
  if (name == "flash_crowd") {
    script.description =
        "A third of the population teleports into one block mid-run and "
        "the query rate triples for the following quarter of the run.";
    script.hotspot_fraction = Rect(0.40, 0.40, 0.60, 0.60);
    script.flash_fraction = 0.5;
    script.teleport_fraction = 0.35;
    script.query_rate = [](double frac) {
      return (frac >= 0.5 && frac < 0.75) ? 3.0 : 1.0;
    };
    script.hotspot_weight = [](double frac) {
      return (frac >= 0.5 && frac < 0.75) ? 0.7 : 0.0;
    };
    return script;
  }
  if (name == "continuous_storm") {
    script.description =
        "Most of the population keeps a continuous NN query registered; "
        "every movement tick re-evaluates all of them, with periodic "
        "target churn, asserting the Theorem-1 shortcuts avoid "
        "recomputes.";
    script.continuous_fraction = 0.8;
    script.target_churn_interval = 3;
    script.assert_shortcuts = true;
    script.query_rate = [](double) { return 0.5; };
    return script;
  }
  if (name == "mixed_profiles") {
    script.description =
        "Three privacy-profile classes — nearly-exact, paper-default, "
        "and highly private — interleaved across the population.";
    workload::ProfileDistribution nearly_exact;
    nearly_exact.k_min = 1;
    nearly_exact.k_max = 2;
    nearly_exact.area_fraction_min = 0.00001;
    nearly_exact.area_fraction_max = 0.00005;
    workload::ProfileDistribution paper_default;
    paper_default.k_min = 4;
    paper_default.k_max = 8;
    workload::ProfileDistribution highly_private;
    highly_private.k_min = 16;
    highly_private.k_max = 32;
    highly_private.area_fraction_min = 0.001;
    highly_private.area_fraction_max = 0.005;
    script.profile_classes = {nearly_exact, paper_default, highly_private};
    return script;
  }
  if (name == "churn_chaos") {
    script.description =
        "Users join and leave every tick while the tier channel drops, "
        "duplicates, and delays calls.";
    script.churn_per_tick = 0.05;
    script.default_chaos.drop_request_rate = 0.02;
    script.default_chaos.drop_response_rate = 0.02;
    script.default_chaos.duplicate_rate = 0.02;
    script.default_chaos.delay_rate = 0.05;
    script.default_chaos.delay_micros = 200;
    return script;
  }
  return Status::NotFound("unknown scenario '" + name +
                          "' (see ScenarioNames())");
}

Result<ScenarioReport> RunScenario(const ScenarioScript& script,
                                   const ScenarioOptions& options) {
  if (options.users == 0 || options.ticks == 0) {
    return Status::InvalidArgument("scenario needs users > 0 and ticks > 0");
  }
  Stopwatch run_watch;

  // A fresh registry per run: the report's metrics snapshot covers
  // exactly this scenario, not whatever else the process did.
  obs::MetricsRegistry registry;
  obs::CasperMetrics metrics(&registry);

  StackOptions stack_options = options.stack;
  stack_options.metrics = &metrics;
  if (stack_options.chaos.CombinedRate() <= 0.0) {
    stack_options.chaos = script.default_chaos;
  }
  CASPER_ASSIGN_OR_RETURN(stack, ScenarioStack::Create(stack_options));
  CasperService& service = stack->service();
  const Rect space = service.options().pyramid.space;
  const Rect hotspot = ScaleToSpace(script.hotspot_fraction, space);

  // --- The city: a synthetic road network and its moving population.
  network::NetworkGeneratorOptions net_options;
  net_options.rows = 24;
  net_options.cols = 24;
  net_options.space = space;
  CASPER_ASSIGN_OR_RETURN(
      road_network, network::NetworkGenerator(net_options).Generate(
                        options.seed));
  network::SimulatorOptions sim_options;
  sim_options.object_count = options.users;
  const double base_tick_seconds = sim_options.tick_seconds;
  network::MovingObjectSimulator simulator(&road_network, sim_options,
                                           options.seed ^ 0x9e3779b9);
  // Spread objects off their starting nodes, as the benches do.
  for (int i = 0; i < 20; ++i) simulator.Tick();

  // --- Population: register through the facade so pseudonyms, counters,
  // and the dirty flag all see the events.
  Rng rng(options.seed);
  std::vector<workload::ProfileDistribution> classes;
  classes.reserve(script.profile_classes.size());
  for (const auto& dist : script.profile_classes) {
    classes.push_back(ClampProfile(dist, options.users));
  }
  if (classes.empty()) classes.push_back(ClampProfile({}, options.users));
  const double space_area = space.Area();
  for (uint64_t uid = 0; uid < options.users; ++uid) {
    const auto profile = workload::SampleProfile(
        classes[uid % classes.size()], space_area, &rng);
    const Point position =
        ClampToRect(simulator.PositionOf(uid), space);
    CASPER_RETURN_IF_ERROR(service.RegisterUser(uid, profile, position));
  }

  // --- Targets, provisioned where the wire traffic lands; the same
  // list is the oracle's brute-force ground truth.
  Rng target_rng(options.seed + 1);
  stack->ProvisionTargets(
      workload::UniformPublicTargets(options.targets, space, &target_rng));

  // --- Continuous layer: its own store + manager (the incremental
  // processor of §5), fed by this run's cloak stream.
  processor::PublicTargetStore continuous_store(stack->targets());
  processor::ContinuousQueryManager continuous_manager(&continuous_store);
  const size_t continuous_count = std::min<size_t>(
      options.users,
      static_cast<size_t>(script.continuous_fraction *
                          static_cast<double>(options.users)));
  std::vector<TrackedQuery> tracked;
  tracked.reserve(continuous_count);
  for (uint64_t uid = 0; uid < continuous_count; ++uid) {
    auto cloak = service.anonymizer().Cloak(uid);
    if (!cloak.ok()) continue;
    auto qid = continuous_manager.Register(cloak->region);
    if (!qid.ok()) continue;
    tracked.push_back(TrackedQuery{*qid, uid, true});
  }
  std::vector<processor::PublicTarget> churned_targets;
  uint64_t next_churn_target_id = 1u << 30;

  server::BatchEngineOptions engine_options;
  engine_options.threads = options.threads;
  engine_options.metrics = &metrics;
  server::BatchQueryEngine engine(&service, engine_options);

  ScenarioReport report;
  report.scenario = script.name;
  report.stack = StackKindName(stack->kind());
  report.users = options.users;
  report.targets = options.targets;
  report.ticks = options.ticks;
  report.queries_per_tick = options.queries_per_tick;
  report.threads = options.threads;
  report.seed = options.seed;
  report.continuous_queries = tracked.size();
  report.oracles_enabled = options.oracles;
  report.shortcuts_asserted = script.assert_shortcuts;

  SummaryStats latency_micros;
  SummaryStats cloak_area;
  SummaryStats k_achieved;
  SummaryStats candidates;
  double query_wall_seconds = 0.0;

  const size_t churn_per_tick = static_cast<size_t>(
      script.churn_per_tick * static_cast<double>(options.users));
  // Churn cycles through the population but never a tracked uid: a
  // tracked query whose user vanished would just be noise.
  const uint64_t churn_low = tracked.size();
  uint64_t churn_cursor = churn_low;

  const size_t flash_tick =
      script.flash_fraction >= 0.0 && script.flash_fraction <= 1.0
          ? static_cast<size_t>(script.flash_fraction *
                                static_cast<double>(options.ticks - 1))
          : options.ticks;  // Never.

  Rng query_rng(options.seed + 2);
  Rng oracle_rng(options.seed + 3);
  std::vector<uint64_t> hotspot_uids;

  for (size_t tick = 0; tick < options.ticks; ++tick) {
    const double frac =
        options.ticks > 1
            ? static_cast<double>(tick) /
                  static_cast<double>(options.ticks - 1)
            : 0.0;

    // 1. Movement, at the scripted congestion level.
    const double speed = Shape(script.speed_factor, frac, 1.0);
    simulator.set_tick_seconds(base_tick_seconds *
                               std::max(0.05, speed));
    std::vector<network::LocationUpdate> updates = simulator.Tick();

    // 2. Flash crowd: part of the population converges on the hotspot
    // for this tick's update (the simulator's own positions resume
    // next tick — the crowd disperses again).
    if (tick == flash_tick && !hotspot.is_empty() &&
        script.teleport_fraction > 0.0) {
      const size_t teleported = static_cast<size_t>(
          script.teleport_fraction * static_cast<double>(updates.size()));
      for (size_t i = 0; i < teleported && i < updates.size(); ++i) {
        updates[i].position = query_rng.PointIn(hotspot);
      }
    }

    // 3. Churn: deregister a slice, apply the tick (their updates are
    // counted drops), then re-register them where they stand.
    std::vector<uint64_t> churned;
    if (churn_per_tick > 0 && churn_low < options.users) {
      for (size_t i = 0; i < churn_per_tick; ++i) {
        const uint64_t uid = churn_cursor;
        churn_cursor = churn_cursor + 1 < options.users ? churn_cursor + 1
                                                        : churn_low;
        if (service.DeregisterUser(uid).ok()) churned.push_back(uid);
      }
    }
    // Through the facade, not the raw anonymizer: the tier's
    // client-position table must advance with the pyramid or every
    // refinement (and the NN oracle) would run against stale positions.
    CASPER_RETURN_IF_ERROR(
        workload::ApplyTick(updates, &service, &report.updates, &metrics));
    for (uint64_t uid : churned) {
      const auto profile = workload::SampleProfile(
          classes[uid % classes.size()], space_area, &rng);
      CASPER_RETURN_IF_ERROR(service.RegisterUser(
          uid, profile, ClampToRect(simulator.PositionOf(uid), space)));
    }

    // 4. Publish the tick's cloaks to the server tier. Under chaos the
    // sync may fail; private-data queries then error (and are counted),
    // and the census oracle skips its stale tick.
    const bool synced = service.SyncPrivateData().ok();

    // 5. The tick's query mix, hotspot-weighted per the script.
    hotspot_uids.clear();
    if (!hotspot.is_empty()) {
      for (const auto& u : updates) {
        if (hotspot.Contains(u.position)) hotspot_uids.push_back(u.uid);
      }
    }
    const double rate = Shape(script.query_rate, frac, 1.0);
    const double hot = Shape(script.hotspot_weight, frac, 0.0);
    const size_t query_count = static_cast<size_t>(
        std::max(0.0, rate) * static_cast<double>(options.queries_per_tick));
    const double radius = space.width() * 0.01;
    std::vector<server::BatchQueryRequest> requests;
    requests.reserve(query_count);
    for (size_t i = 0; i < query_count; ++i) {
      const bool from_hotspot =
          hot > 0.0 && !hotspot_uids.empty() &&
          query_rng.Uniform(0.0, 1.0) < hot;
      const uint64_t uid =
          from_hotspot
              ? hotspot_uids[query_rng.UniformInt(0, hotspot_uids.size() - 1)]
              : query_rng.UniformInt(0, options.users - 1);
      switch (i % 7) {
        case 0:
          requests.push_back(server::BatchQueryRequest::NearestPublic(uid));
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
          requests.push_back(server::BatchQueryRequest::NearestPrivate(uid));
          break;
        case 4: {
          const Point q = from_hotspot ? query_rng.PointIn(hotspot)
                                       : query_rng.PointIn(space);
          requests.push_back(server::BatchQueryRequest::PublicNearest(q));
          break;
        }
        case 5: {
          const Point corner = query_rng.PointIn(space);
          requests.push_back(server::BatchQueryRequest::PublicRange(
              Rect(corner.x, corner.y,
                   std::min(space.max.x, corner.x + radius * 4),
                   std::min(space.max.y, corner.y + radius * 4))));
          break;
        }
        case 6:
          requests.push_back(server::BatchQueryRequest::Density(4, 4));
          break;
      }
    }
    if (!requests.empty()) {
      const server::BatchResult batch = engine.Execute(requests);
      query_wall_seconds += batch.summary.wall_seconds;
      report.queries_total += batch.summary.batch_size;
      report.queries_ok += batch.summary.ok_count;
      report.queries_error += batch.summary.error_count;
      for (const server::BatchQueryResponse& response : batch.responses) {
        if (!response.ok()) continue;
        if (const TimingBreakdown* timing = response.timing()) {
          latency_micros.Add(timing->processor_seconds * 1e6);
        }
        const anonymizer::CloakingResult* cloak = nullptr;
        size_t candidate_count = 0;
        bool degraded = false;
        if (const auto* r = response.nearest_public()) {
          cloak = &r->cloak;
          candidate_count = r->server_answer.size();
          degraded = r->degraded;
        } else if (const auto* r = response.k_nearest_public()) {
          cloak = &r->cloak;
          candidate_count = r->server_answer.candidates.size();
          degraded = r->degraded;
        } else if (const auto* r = response.range_public()) {
          cloak = &r->cloak;
          candidate_count = r->server_answer.candidates.size();
          degraded = r->degraded;
        } else if (const auto* r = response.nearest_private()) {
          cloak = &r->cloak;
          candidate_count = r->server_answer.candidates.size();
          degraded = r->degraded;
        } else if (const auto* r = response.public_nearest()) {
          candidate_count = r->candidates.size();
        }
        if (cloak != nullptr) {
          cloak_area.Add(cloak->region.Area());
          k_achieved.Add(static_cast<double>(cloak->users_in_region));
        }
        if (candidate_count > 0) {
          candidates.Add(static_cast<double>(candidate_count));
        }
        if (degraded) ++report.queries_degraded;
      }
    }

    // 6. The continuous storm: every tracked query sees its user's
    // fresh cloak; the manager decides shortcut vs recompute.
    for (TrackedQuery& t : tracked) {
      auto cloak = service.anonymizer().Cloak(t.uid);
      if (!cloak.ok()) continue;
      const uint64_t evals_before =
          continuous_manager.stats().evaluations;
      if (!continuous_manager.OnCloakChanged(t.qid, cloak->region).ok()) {
        continue;
      }
      t.last_recomputed =
          continuous_manager.stats().evaluations > evals_before;
    }
    if (script.target_churn_interval > 0 && !tracked.empty() &&
        tick % script.target_churn_interval == 0) {
      // Mutate the store first, then notify — the manager's contract.
      const processor::PublicTarget inserted{
          next_churn_target_id++, query_rng.PointIn(space)};
      continuous_store.Insert(inserted);
      CASPER_RETURN_IF_ERROR(
          continuous_manager.OnTargetInserted(inserted));
      churned_targets.push_back(inserted);
      if (churned_targets.size() > 4) {
        const processor::PublicTarget removed = churned_targets.front();
        churned_targets.erase(churned_targets.begin());
        continuous_store.Remove(removed);
        CASPER_RETURN_IF_ERROR(
            continuous_manager.OnTargetRemoved(removed));
      }
    }

    // 7. Oracles at sampled ticks.
    const bool oracle_tick =
        options.oracles && (tick % std::max<size_t>(1, options.oracle_interval)
                                == 0 ||
                            tick + 1 == options.ticks);
    if (oracle_tick) {
      for (size_t i = 0; i < options.oracle_samples; ++i) {
        const uint64_t uid = oracle_rng.UniformInt(0, options.users - 1);
        CheckNnInclusiveness(&service, stack->targets(), uid,
                             &report.oracles);
      }
      if (synced) CheckRegionPerUser(&service, &report.oracles);
      if (!tracked.empty()) {
        for (size_t i = 0;
             i < std::min(options.oracle_samples, tracked.size()); ++i) {
          const TrackedQuery& t =
              tracked[oracle_rng.UniformInt(0, tracked.size() - 1)];
          CheckContinuousAnswer(continuous_manager, continuous_store, t.qid,
                                t.last_recomputed, &report.oracles);
        }
      }
    }
  }

  report.wall_seconds = run_watch.ElapsedSeconds();
  report.qps = query_wall_seconds > 0.0
                   ? static_cast<double>(report.queries_total) /
                         query_wall_seconds
                   : 0.0;
  report.latency_micros = DistributionSummary::Of(latency_micros);
  report.cloak_area = DistributionSummary::Of(cloak_area);
  report.k_achieved = DistributionSummary::Of(k_achieved);
  report.candidates = DistributionSummary::Of(candidates);
  report.zero_progress_fallbacks =
      simulator.stats().zero_progress_fallbacks;
  report.continuous = continuous_manager.stats();
  report.queries_shed = metrics.batch_shed_total->Value();
  report.shortcuts_ok =
      !script.assert_shortcuts || report.continuous.reuses > 0;
  report.metrics_json = obs::ExportJson(registry.Scrape());

  if (!options.out_path.empty()) {
    CASPER_RETURN_IF_ERROR(report.WriteJson(options.out_path));
  }
  return report;
}

std::string ScenarioReport::ToJson() const {
  std::string out;
  out.reserve(4096 + metrics_json.size());
  out += "{\n";
  AppendJson(&out, "  \"scenario\": \"%s\",\n", scenario.c_str());
  AppendJson(&out, "  \"stack\": \"%s\",\n", stack.c_str());
  AppendJson(&out,
             "  \"config\": {\"users\": %zu, \"targets\": %zu, "
             "\"ticks\": %zu, \"queries_per_tick\": %zu, \"threads\": %zu, "
             "\"seed\": %llu},\n",
             users, targets, ticks, queries_per_tick, threads,
             static_cast<unsigned long long>(seed));
  AppendJson(&out, "  \"wall_seconds\": %.6f,\n", wall_seconds);
  AppendJson(&out, "  \"qps\": %.2f,\n", qps);
  AppendJson(&out,
             "  \"queries\": {\"total\": %llu, \"ok\": %llu, "
             "\"errors\": %llu, \"degraded\": %llu, \"shed\": %llu},\n",
             static_cast<unsigned long long>(queries_total),
             static_cast<unsigned long long>(queries_ok),
             static_cast<unsigned long long>(queries_error),
             static_cast<unsigned long long>(queries_degraded),
             static_cast<unsigned long long>(queries_shed));
  AppendDistribution(&out, "latency_micros", latency_micros, true);
  AppendDistribution(&out, "cloak_area", cloak_area, true);
  AppendDistribution(&out, "k_achieved", k_achieved, true);
  AppendDistribution(&out, "candidates", candidates, true);
  AppendJson(&out,
             "  \"updates\": {\"applied\": %zu, \"dropped\": %zu},\n",
             updates.applied, updates.dropped);
  AppendJson(&out, "  \"zero_progress_fallbacks\": %llu,\n",
             static_cast<unsigned long long>(zero_progress_fallbacks));
  AppendJson(&out,
             "  \"continuous\": {\"queries\": %zu, \"evaluations\": %llu, "
             "\"reuses\": %llu, \"insert_patches\": %llu, "
             "\"removal_no_ops\": %llu, \"removal_recomputes\": %llu, "
             "\"shortcuts_asserted\": %s, \"shortcuts_ok\": %s},\n",
             continuous_queries,
             static_cast<unsigned long long>(continuous.evaluations),
             static_cast<unsigned long long>(continuous.reuses),
             static_cast<unsigned long long>(continuous.insert_patches),
             static_cast<unsigned long long>(continuous.removal_no_ops),
             static_cast<unsigned long long>(continuous.removal_recomputes),
             shortcuts_asserted ? "true" : "false",
             shortcuts_ok ? "true" : "false");
  AppendJson(&out,
             "  \"oracles\": {\"enabled\": %s, \"nn_checks\": %llu, "
             "\"nn_violations\": %llu, \"region_checks\": %llu, "
             "\"region_violations\": %llu, \"continuous_checks\": %llu, "
             "\"continuous_violations\": %llu, \"skipped\": %llu},\n",
             oracles_enabled ? "true" : "false",
             static_cast<unsigned long long>(oracles.nn_checks),
             static_cast<unsigned long long>(oracles.nn_violations),
             static_cast<unsigned long long>(oracles.region_checks),
             static_cast<unsigned long long>(oracles.region_violations),
             static_cast<unsigned long long>(oracles.continuous_checks),
             static_cast<unsigned long long>(oracles.continuous_violations),
             static_cast<unsigned long long>(oracles.skipped));
  AppendJson(&out, "  \"passed\": %s,\n", Passed() ? "true" : "false");
  out += "  \"metrics\": ";
  out += metrics_json.empty() ? "{}" : metrics_json;
  out += "\n}\n";
  return out;
}

Status ScenarioReport::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

}  // namespace casper::scenarios
