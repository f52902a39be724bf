#include "casperbench/gates.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <unordered_set>

#include "src/casper/workload.h"

namespace casperbench {

using casper::Point;
using casper::Rect;
using casper::processor::PublicTarget;

namespace {

constexpr uint64_t kNoUser = std::numeric_limits<uint64_t>::max();

std::unordered_set<uint64_t> IdsOf(const std::vector<PublicTarget>& targets) {
  std::unordered_set<uint64_t> ids;
  ids.reserve(targets.size() * 2);
  for (const PublicTarget& t : targets) ids.insert(t.id);
  return ids;
}

std::string Format(const char* fmt, unsigned long long a, double b = 0.0,
                   double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// Owners of candidate regions, resolved on the trusted side; a handle
/// that resolves to no user maps to kNoUser (and never matches).
template <typename Regions, typename RegionOf>
std::vector<uint64_t> Owners(const casper::CasperService& service,
                             const Regions& regions, RegionOf region_of) {
  std::vector<uint64_t> owners;
  owners.reserve(regions.size());
  for (const auto& r : regions) {
    casper::Result<uint64_t> uid = service.ResolvePseudonym(region_of(r).id);
    owners.push_back(uid.ok() ? uid.value() : kNoUser);
  }
  return owners;
}

}  // namespace

std::string CheckNearest(const Truth& truth, const Point& p,
                         const casper::PublicNNResponse& response) {
  double best = std::numeric_limits<double>::infinity();
  uint64_t best_id = 0;
  for (const PublicTarget& t : truth.targets) {
    const double d = casper::SquaredDistance(p, t.position);
    if (d < best) {
      best = d;
      best_id = t.id;
    }
  }
  bool listed = false;
  for (const PublicTarget& t : response.server_answer.candidates) {
    listed = listed || casper::SquaredDistance(p, t.position) == best;
  }
  if (!listed) {
    return Format("NN: true nearest target %llu missing from the candidates",
                  best_id);
  }
  if (casper::SquaredDistance(p, response.exact.position) != best) {
    return Format("NN: refined target %llu is not the true nearest",
                  response.exact.id);
  }
  return "";
}

std::string CheckKNearest(const Truth& truth, const Point& p,
                          const casper::PublicKnnResponse& response) {
  const size_t k = response.server_answer.k;
  if (k == 0 || k > truth.targets.size()) return "kNN: bad k";
  std::vector<double> d(truth.targets.size());
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = casper::SquaredDistance(p, truth.targets[i].position);
  }
  std::vector<double> nearest = d;
  std::nth_element(nearest.begin(), nearest.begin() + (k - 1), nearest.end());
  const double kth = nearest[k - 1];
  const std::unordered_set<uint64_t> listed =
      IdsOf(response.server_answer.candidates);
  for (size_t i = 0; i < d.size(); ++i) {
    if (d[i] <= kth && listed.count(truth.targets[i].id) == 0) {
      return Format("kNN: true neighbour %llu missing from the candidates",
                    truth.targets[i].id);
    }
  }
  if (response.exact.size() != k) {
    return Format("kNN: refined answer has %llu targets", response.exact.size());
  }
  std::vector<double> refined;
  for (const PublicTarget& t : response.exact) {
    refined.push_back(casper::SquaredDistance(p, t.position));
  }
  std::sort(refined.begin(), refined.end());
  std::sort(nearest.begin(), nearest.begin() + k);
  for (size_t i = 0; i < k; ++i) {
    if (refined[i] != nearest[i]) {
      return Format("kNN: refined neighbour %llu is not the true one", i);
    }
  }
  return "";
}

std::string CheckRange(const Truth& truth, const Point& p, double radius,
                       const casper::PublicRangeResponse& response) {
  const std::unordered_set<uint64_t> listed =
      IdsOf(response.server_answer.candidates);
  const std::unordered_set<uint64_t> refined = IdsOf(response.exact);
  size_t inside = 0;
  for (const PublicTarget& t : truth.targets) {
    if (casper::Distance(p, t.position) > radius) continue;
    ++inside;
    if (listed.count(t.id) == 0) {
      return Format("range: target %llu in range missing from the candidates",
                    t.id);
    }
    if (refined.count(t.id) == 0) {
      return Format("range: target %llu in range missing from the answer",
                    t.id);
    }
  }
  if (refined.size() != inside) {
    return Format("range: answer has %llu targets, %g are in range",
                  refined.size(), static_cast<double>(inside));
  }
  return "";
}

std::string CheckCloak(const Truth& truth, uint64_t uid, const Rect& region) {
  const casper::anonymizer::PrivacyProfile& profile = truth.profiles.at(uid);
  if (!region.Contains(truth.positions.at(uid))) {
    return Format("cloak: user %llu is outside her own cloak", uid);
  }
  uint64_t users = 0;
  for (const Point& q : truth.positions) users += region.Contains(q) ? 1 : 0;
  if (users < profile.k) {
    return Format("cloak: user %llu cloaked with %g users, profile k = %g", uid,
                  static_cast<double>(users), static_cast<double>(profile.k));
  }
  if (region.Area() < profile.a_min * (1.0 - 1e-12)) {
    return Format("cloak: user %llu cloak area %g below A_min %g", uid,
                  region.Area(), profile.a_min);
  }
  return "";
}

std::string CheckNearestUser(const Truth& truth, const Point& p,
                             const std::vector<uint64_t>& owners,
                             uint64_t self) {
  double best = std::numeric_limits<double>::infinity();
  for (uint64_t u = 0; u < truth.positions.size(); ++u) {
    if (u == self) continue;
    best = std::min(best, casper::SquaredDistance(p, truth.positions[u]));
  }
  for (uint64_t u : owners) {
    if (u < truth.positions.size() && u != self &&
        casper::SquaredDistance(p, truth.positions[u]) == best) {
      return "";
    }
  }
  return Format("user NN: nearest user's region missing (%llu candidates)",
                owners.size());
}

std::string CheckRangeCount(const Truth& truth, const Rect& region,
                            const casper::processor::RangeCountResult& r) {
  uint64_t users = 0;
  for (const Point& q : truth.positions) users += region.Contains(q) ? 1 : 0;
  if (r.certain > users || users > r.possible) {
    return Format("range count: %llu users inside, answer says [%g, %g]", users,
                  static_cast<double>(r.certain),
                  static_cast<double>(r.possible));
  }
  return "";
}

std::string CheckAnswer(const Truth& truth,
                        const casper::CasperService& service,
                        const casper::QueryRequest& request,
                        const casper::QueryResponse& response) {
  const uint64_t uid = casper::UidOf(request);
  const casper::QueryKind kind = casper::KindOf(request);
  if (response.index() != request.index()) return "answer of the wrong kind";
  std::string error;
  const Rect* cloak = nullptr;
  if (const auto* r = std::get_if<casper::PublicNNResponse>(&response)) {
    error = CheckNearest(truth, truth.positions.at(uid), *r);
    cloak = &r->cloak.region;
  } else if (const auto* r =
                 std::get_if<casper::PublicKnnResponse>(&response)) {
    error = CheckKNearest(truth, truth.positions.at(uid), *r);
    cloak = &r->cloak.region;
  } else if (const auto* r =
                 std::get_if<casper::PublicRangeResponse>(&response)) {
    error = CheckRange(truth, truth.positions.at(uid),
                       std::get<casper::RangePublicQ>(request).radius, *r);
    cloak = &r->cloak.region;
  } else if (const auto* r =
                 std::get_if<casper::PrivateNNResponse>(&response)) {
    error = CheckNearestUser(
        truth, truth.positions.at(uid),
        Owners(service, r->server_answer.candidates,
               [](const auto& c) -> const auto& { return c; }),
        uid);
    cloak = &r->cloak.region;
  } else if (const auto* r = std::get_if<casper::processor::PublicNNCandidates>(
                 &response)) {
    error = CheckNearestUser(
        truth, std::get<casper::PublicNearestQ>(request).q,
        Owners(service, r->candidates,
               [](const auto& c) -> const auto& { return c.target; }),
        kNoUser);
  } else if (const auto* r = std::get_if<casper::processor::RangeCountResult>(
                 &response)) {
    error = CheckRangeCount(truth, std::get<casper::PublicRangeQ>(request).region,
                            *r);
  }
  if (error.empty() && cloak != nullptr && casper::IsCloakedKind(kind)) {
    error = CheckCloak(truth, uid, *cloak);
  }
  return error;
}

bool SameAnswer(const casper::QueryResponse& a,
                const casper::QueryResponse& b) {
  if (a.index() != b.index()) return false;
  if (const auto* x = std::get_if<casper::PublicNNResponse>(&a)) {
    const auto& y = std::get<casper::PublicNNResponse>(b);
    return x->server_answer == y.server_answer && x->exact == y.exact &&
           x->cloak.region == y.cloak.region && x->degraded == y.degraded;
  }
  if (const auto* x = std::get_if<casper::PublicKnnResponse>(&a)) {
    const auto& y = std::get<casper::PublicKnnResponse>(b);
    return x->server_answer == y.server_answer && x->exact == y.exact &&
           x->cloak.region == y.cloak.region && x->degraded == y.degraded;
  }
  if (const auto* x = std::get_if<casper::PublicRangeResponse>(&a)) {
    const auto& y = std::get<casper::PublicRangeResponse>(b);
    return x->server_answer == y.server_answer && x->exact == y.exact &&
           x->cloak.region == y.cloak.region && x->degraded == y.degraded;
  }
  if (const auto* x = std::get_if<casper::PrivateNNResponse>(&a)) {
    const auto& y = std::get<casper::PrivateNNResponse>(b);
    return x->server_answer == y.server_answer && x->best == y.best &&
           x->cloak.region == y.cloak.region && x->degraded == y.degraded;
  }
  // The public kinds carry no timing: plain equality.
  if (const auto* x = std::get_if<casper::processor::PublicNNCandidates>(&a)) {
    return *x == std::get<casper::processor::PublicNNCandidates>(b);
  }
  if (const auto* x = std::get_if<casper::processor::RangeCountResult>(&a)) {
    return *x == std::get<casper::processor::RangeCountResult>(b);
  }
  return std::get<casper::processor::DensityMap>(a) ==
         std::get<casper::processor::DensityMap>(b);
}

// --- Self-test -----------------------------------------------------------

namespace {

int Expect(bool ok, const char* what) {
  std::fprintf(stderr, "[%s] %s\n", ok ? "ok" : "FAIL", what);
  return ok ? 0 : 1;
}

}  // namespace

int RunGateSelfTest() {
  casper::CasperOptions options;
  options.pyramid.height = 6;
  casper::CasperService service(options);
  casper::Rng rng(7);
  Truth truth;
  const Rect space = options.pyramid.space;
  for (uint64_t uid = 0; uid < 300; ++uid) {
    casper::anonymizer::PrivacyProfile profile;
    profile.k = static_cast<uint32_t>(rng.UniformInt(2, 10));
    profile.a_min = 0.0005;
    truth.profiles.push_back(profile);
    truth.positions.push_back(rng.PointIn(space));
    if (!service.RegisterUser(uid, profile, truth.positions.back()).ok()) {
      return Expect(false, "register users");
    }
  }
  truth.targets = casper::workload::UniformPublicTargets(2000, space, &rng);
  service.SetPublicTargets(truth.targets);
  if (!service.SyncPrivateData().ok()) return Expect(false, "sync");

  int failures = 0;
  const uint64_t uid = 17;
  const Point p = truth.positions[uid];

  // Real answers pass.
  auto nn = service.Execute(casper::NearestPublicQ{uid});
  auto knn = service.Execute(casper::KNearestPublicQ{uid, 5});
  auto range = service.Execute(casper::RangePublicQ{uid, 0.05});
  auto buddy = service.Execute(casper::NearestPrivateQ{uid});
  if (!nn.ok() || !knn.ok() || !range.ok() || !buddy.ok()) {
    return Expect(false, "execute the four private kinds");
  }
  failures += Expect(CheckAnswer(truth, service, casper::NearestPublicQ{uid},
                                 *nn).empty(), "real NN answer passes");
  failures += Expect(CheckAnswer(truth, service,
                                 casper::KNearestPublicQ{uid, 5}, *knn).empty(),
                     "real kNN answer passes");
  failures += Expect(CheckAnswer(truth, service,
                                 casper::RangePublicQ{uid, 0.05}, *range)
                         .empty(),
                     "real range answer passes");
  failures += Expect(CheckAnswer(truth, service, casper::NearestPrivateQ{uid},
                                 *buddy).empty(),
                     "real buddy answer passes");

  // Planted: the true NN removed from the list (and from the answer).
  {
    auto bad = std::get<casper::PublicNNResponse>(*nn);
    auto& c = bad.server_answer.candidates;
    c.erase(std::remove(c.begin(), c.end(), bad.exact), c.end());
    if (!c.empty()) bad.exact = c.front();
    failures += Expect(!CheckNearest(truth, p, bad).empty(),
                       "NN list without the true NN is rejected");
  }
  // Planted: the true NN kept in the list, but the refinement is wrong.
  {
    auto bad = std::get<casper::PublicNNResponse>(*nn);
    for (const PublicTarget& t : bad.server_answer.candidates) {
      if (t.id != bad.exact.id) {
        bad.exact = t;
        break;
      }
    }
    failures += Expect(!CheckNearest(truth, p, bad).empty(),
                       "wrong refined NN is rejected");
  }
  // Planted: one of the true k nearest removed.
  {
    auto bad = std::get<casper::PublicKnnResponse>(*knn);
    auto& c = bad.server_answer.candidates;
    const PublicTarget victim = bad.exact.back();
    c.erase(std::remove(c.begin(), c.end(), victim), c.end());
    failures += Expect(!CheckKNearest(truth, p, bad).empty(),
                       "kNN list without a true neighbour is rejected");
  }
  // Planted: a range answer missing a target in range.
  {
    auto bad = std::get<casper::PublicRangeResponse>(*range);
    if (!bad.exact.empty()) bad.exact.pop_back();
    failures += Expect(bad.exact.size() !=
                               std::get<casper::PublicRangeResponse>(*range)
                                   .exact.size() &&
                           !CheckRange(truth, p, 0.05, bad).empty(),
                       "range answer missing a target is rejected");
  }
  // Planted: a buddy list without the nearest user's region.
  {
    auto bad = std::get<casper::PrivateNNResponse>(*buddy);
    auto& c = bad.server_answer.candidates;
    std::vector<casper::processor::PrivateTarget> kept;
    for (const auto& t : c) {
      auto owner = service.ResolvePseudonym(t.id);
      if (!owner.ok()) continue;
      std::vector<uint64_t> one = {owner.value()};
      if (!CheckNearestUser(truth, p, one, uid).empty()) kept.push_back(t);
    }
    c = kept;
    failures += Expect(!CheckAnswer(truth, service,
                                    casper::NearestPrivateQ{uid}, bad)
                            .empty(),
                       "buddy list without the nearest user is rejected");
  }
  // Planted: a cloak below k (the profile asks for more users than the
  // served cloak holds) and a cloak below A_min.
  {
    const Rect region = std::get<casper::PublicNNResponse>(*nn).cloak.region;
    Truth strict = truth;
    uint64_t inside = 0;
    for (const Point& q : truth.positions) inside += region.Contains(q) ? 1 : 0;
    strict.profiles[uid].k = static_cast<uint32_t>(inside + 1);
    failures += Expect(!CheckCloak(strict, uid, region).empty(),
                       "cloak below k is rejected");
    strict = truth;
    strict.profiles[uid].a_min = region.Area() * 2.0;
    failures += Expect(!CheckCloak(strict, uid, region).empty(),
                       "cloak below A_min is rejected");
    failures += Expect(CheckCloak(truth, uid, region).empty(),
                       "the served cloak passes");
  }
  // Planted: a traced answer that differs from the untraced one.
  {
    auto changed = std::get<casper::PublicNNResponse>(*nn);
    changed.exact.id += 1;
    failures += Expect(!SameAnswer(*nn, casper::QueryResponse(changed)),
                       "a differing traced answer is rejected");
    failures += Expect(SameAnswer(*nn, *nn), "an equal answer is accepted");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace casperbench
