// Quickstart: the smallest end-to-end Casper session.
//
// A mobile user registers with a privacy profile (k = 20 anonymity,
// minimum cloak area 0.1% of the city), the trusted anonymizer tier
// blurs their position, the untrusted query-server tier answers "where
// is my nearest gas station?" with a candidate list, and the client
// refines the exact answer locally — the server tier never sees the
// exact location (or even a user id: the tiers speak only the wire
// messages of src/casper/messages.h; see DESIGN.md §1b).
//
// Build & run:  cmake --build build && ./build/examples/example_quickstart

#include <cstdio>

#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"

int main() {
  using namespace casper;

  // 1. Configure the framework: a 1x1 "city" managed by a pyramid of
  //    height 8 (the anonymizer's finest cells are 1/256 x 1/256).
  CasperOptions options;
  options.pyramid.space = Rect(0.0, 0.0, 1.0, 1.0);
  options.pyramid.height = 8;
  options.use_adaptive_anonymizer = true;
  CasperService service(options);

  // 2. A population of mobile users (positions are only ever seen by
  //    the trusted anonymizer, never by the database server).
  Rng rng(2024);
  for (anonymizer::UserId uid = 0; uid < 1000; ++uid) {
    anonymizer::PrivacyProfile profile;
    profile.k = 20;                                  // 20-anonymous
    profile.a_min = options.pyramid.space.Area() * 0.001;  // >= 0.1% area
    Status st = service.RegisterUser(uid, profile,
                                     rng.PointIn(options.pyramid.space));
    if (!st.ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // 3. Public data: 200 gas stations, stored exactly.
  service.SetPublicTargets(workload::UniformPublicTargets(
      200, options.pyramid.space, &rng));

  // 4. User 42 asks for their nearest gas station. QueryNearestPublic
  //    is a thin wrapper over the unified dispatch — the same query can
  //    be phrased as service.Execute(NearestPublicQ{42}), which is how
  //    the batch engine, the CLI, and the benches drive every kind.
  auto response = service.QueryNearestPublic(42);
  if (!response.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }

  const auto& r = *response;
  const Point position = *service.ClientPosition(42);
  std::printf("user 42 true position      : (%.4f, %.4f)  [client-only]\n",
              position.x, position.y);
  std::printf("cloaked region sent to db  : %s (area %.4f%%, %llu users)\n",
              r.cloak.region.ToString().c_str(),
              100.0 * r.cloak.region.Area() / options.pyramid.space.Area(),
              static_cast<unsigned long long>(r.cloak.users_in_region));
  std::printf("candidate list from server : %zu of 200 stations\n",
              r.server_answer.size());
  std::printf("exact answer after refine  : station %llu at (%.4f, %.4f)\n",
              static_cast<unsigned long long>(r.exact.id),
              r.exact.position.x, r.exact.position.y);
  std::printf("timing: anonymizer %.1f us, processor %.1f us, "
              "transmission %.1f us\n",
              r.timing.anonymizer_seconds * 1e6,
              r.timing.processor_seconds * 1e6,
              r.timing.transmission_seconds * 1e6);

  // 5. The same query through the unified dispatch: one QueryRequest
  //    variant covers all seven kinds, and the answers are identical.
  auto unified = service.Execute(NearestPublicQ{42});
  if (!unified.ok() ||
      std::get<PublicNNResponse>(*unified).exact.id != r.exact.id) {
    std::fprintf(stderr, "BUG: unified dispatch disagrees with wrapper!\n");
    return 1;
  }

  // 6. Sanity: the candidate list is *inclusive* — the refined answer
  //    equals the true nearest neighbor computed with full knowledge.
  const processor::PublicTargetStore::Snapshot targets(service.public_store());
  const auto truth = targets.KNearest(position, 1);
  if (!truth.empty() && truth[0].id == r.exact.id) {
    std::printf("verified: candidate list contained the true nearest "
                "station, with the server never seeing the location.\n");
    return 0;
  }
  std::fprintf(stderr, "BUG: refined answer differs from ground truth!\n");
  return 1;
}
