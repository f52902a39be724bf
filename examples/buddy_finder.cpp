// Private queries over private data (§5.2): "where is my nearest
// buddy?" — both the querying user and the buddies are cloaked. The
// untrusted server tier (server::QueryServer) matches the query's
// cloaked region against the stored cloaked regions of every other
// user — which it knows only under opaque pseudonym handles, thanks to
// the wire-message boundary of DESIGN.md §1b — and returns the
// candidate buddies; the trusted side ranks them locally under region
// uncertainty and resolves the winning pseudonym back to a user id.
//
// Run: ./build/examples/example_buddy_finder

#include <cstdio>

#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"

int main() {
  using namespace casper;

  CasperOptions options;
  options.pyramid.height = 8;
  options.filter_policy = processor::FilterPolicy::kFourFilters;
  CasperService service(options);

  // A population with varied privacy postures: a privacy-conscious
  // third wants 50-anonymity, the rest are relaxed.
  Rng rng(31);
  const Rect space = options.pyramid.space;
  for (anonymizer::UserId uid = 0; uid < 1500; ++uid) {
    anonymizer::PrivacyProfile profile;
    if (uid % 3 == 0) {
      profile.k = 50;
      profile.a_min = space.Area() * 0.001;
    } else {
      profile.k = 5;
      profile.a_min = 0.0;
    }
    if (!service.RegisterUser(uid, profile, rng.PointIn(space)).ok()) {
      return 1;
    }
  }

  // The anonymizer tier builds an identity-stripped SnapshotMsg (fresh
  // pseudonyms, fresh cloaks) and the server tier bulk-loads it.
  if (auto st = service.SyncPrivateData(); !st.ok()) {
    std::fprintf(stderr, "sync: %s\n", st.ToString().c_str());
    return 1;
  }

  const processor::PrivateTargetStore::Snapshot regions(
      service.private_store());
  std::printf("1500 users registered; the server tier stores %zu cloaked "
              "regions and zero identities\n\n",
              regions.size());

  for (anonymizer::UserId uid : {0ull, 1ull, 600ull}) {
    auto response = service.QueryNearestPrivate(uid);
    if (!response.ok()) {
      std::fprintf(stderr, "query %llu: %s\n",
                   static_cast<unsigned long long>(uid),
                   response.status().ToString().c_str());
      return 1;
    }
    const auto& r = *response;
    std::printf("user %llu (k=%s):\n", static_cast<unsigned long long>(uid),
                uid % 3 == 0 ? "50, strict" : "5, relaxed");
    std::printf("  query cloak        : %s\n",
                r.cloak.region.ToString().c_str());
    std::printf("  candidate buddies  : %zu of 1499 others\n",
                r.server_answer.size());
    // The server only ever sees pseudonyms; the trusted anonymizer side
    // resolves the winner back to a real user id for the app.
    auto buddy = service.ResolvePseudonym(r.best.id);
    std::printf("  best (minimax)     : pseudonym %016llx -> user %llu, "
                "region %s\n",
                static_cast<unsigned long long>(r.best.id),
                static_cast<unsigned long long>(buddy.ok() ? *buddy : 0),
                r.best.region.ToString().c_str());
    std::printf("  server time %.1f us, transmission %.1f us\n\n",
                r.timing.processor_seconds * 1e6,
                r.timing.transmission_seconds * 1e6);
  }

  // Administrator view (public query over private data): how many users
  // are in the north-east quadrant right now? Phrased through the
  // unified dispatch this time — one QueryRequest variant covers all
  // seven query kinds.
  auto admin = service.Execute(PublicRangeQ{Rect(0.5, 0.5, 1.0, 1.0)});
  if (!admin.ok()) return 1;
  const auto& count = std::get<processor::RangeCountResult>(*admin);
  std::printf("admin range count over NE quadrant: certain %zu, expected "
              "%.1f, possible %zu\n",
              count.certain, count.expected, count.possible);
  std::printf("(the gap between certain and possible is the privacy the "
              "cloaks buy)\n");
  return 0;
}
