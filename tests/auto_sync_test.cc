#include <gtest/gtest.h>

#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/common/rng.h"

/// Auto-sync mode: the anonymizer pushes a fresh cloaked region to the
/// server on every user event, so private-data queries never need an
/// explicit SyncPrivateData().

namespace casper {
namespace {

using PrivateSnapshot = processor::PrivateTargetStore::Snapshot;

CasperOptions AutoSyncOptions() {
  CasperOptions options;
  options.pyramid.height = 6;
  options.auto_sync_private_data = true;
  return options;
}

TEST(AutoSyncTest, QueriesWorkWithoutExplicitSync) {
  CasperService service(AutoSyncOptions());
  Rng rng(1);
  const Rect space = service.options().pyramid.space;
  for (anonymizer::UserId uid = 0; uid < 50; ++uid) {
    ASSERT_TRUE(service.RegisterUser(uid, {3, 0.0}, rng.PointIn(space)).ok());
  }
  // No SyncPrivateData() call anywhere.
  auto count = service.QueryPublicRange(space);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->possible, 50u);
  EXPECT_NEAR(count->expected, 50.0, 1e-9);

  auto buddy = service.QueryNearestPrivate(7);
  ASSERT_TRUE(buddy.ok());
  auto resolved = service.ResolvePseudonym(buddy->best.id);
  ASSERT_TRUE(resolved.ok());
  EXPECT_NE(*resolved, 7u);
}

TEST(AutoSyncTest, StoreTracksMovementAndDeregistration) {
  CasperService service(AutoSyncOptions());
  Rng rng(2);
  const Rect space = service.options().pyramid.space;
  for (anonymizer::UserId uid = 0; uid < 30; ++uid) {
    ASSERT_TRUE(service.RegisterUser(uid, {2, 0.0}, rng.PointIn(space)).ok());
  }
  EXPECT_EQ(PrivateSnapshot(service.private_store()).size(), 30u);

  // Movement keeps the region in sync with a fresh cloak of that user.
  ASSERT_TRUE(service.UpdateUserLocation(5, {0.9, 0.9}).ok());
  auto cloak = service.anonymizer().Cloak(5);
  ASSERT_TRUE(cloak.ok());
  auto density = service.QueryDensity(2, 2);
  ASSERT_TRUE(density.ok());
  EXPECT_NEAR(density->Total(), 30.0, 1e-9);

  // Deregistration removes the stored region immediately.
  ASSERT_TRUE(service.DeregisterUser(5).ok());
  EXPECT_EQ(PrivateSnapshot(service.private_store()).size(), 29u);
  auto count = service.QueryPublicRange(space);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->possible, 29u);
}

TEST(AutoSyncTest, PseudonymsRotateOnEveryEvent) {
  CasperService service(AutoSyncOptions());
  ASSERT_TRUE(service.RegisterUser(1, {1, 0.0}, {0.5, 0.5}).ok());
  ASSERT_TRUE(service.RegisterUser(2, {1, 0.0}, {0.6, 0.5}).ok());

  // Capture the server-visible id of user 2 via a buddy query from 1.
  auto before = service.QueryNearestPrivate(1);
  ASSERT_TRUE(before.ok());
  const anonymizer::Pseudonym p_before = before->best.id;

  // User 2 moves: her pseudonym rotates; the old one stops resolving.
  ASSERT_TRUE(service.UpdateUserLocation(2, {0.7, 0.5}).ok());
  auto after = service.QueryNearestPrivate(1);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->best.id, p_before);
  EXPECT_EQ(service.ResolvePseudonym(p_before).status().code(),
            StatusCode::kNotFound);
  auto resolved = service.ResolvePseudonym(after->best.id);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, 2u);
}

TEST(AutoSyncTest, MatchesBatchSyncSemantics) {
  // After identical histories, an auto-sync service and a batch service
  // that syncs at the end hold identical *region sets* (pseudonyms
  // differ — they are supposed to).
  CasperOptions batch_options;
  batch_options.pyramid.height = 6;
  CasperService auto_service(AutoSyncOptions());
  CasperService batch_service(batch_options);

  Rng rng(3);
  const Rect space(0, 0, 1, 1);
  std::vector<Point> pos;
  for (anonymizer::UserId uid = 0; uid < 40; ++uid) {
    pos.push_back(rng.PointIn(space));
    ASSERT_TRUE(auto_service.RegisterUser(uid, {4, 0.0}, pos.back()).ok());
    ASSERT_TRUE(batch_service.RegisterUser(uid, {4, 0.0}, pos.back()).ok());
  }
  // Note: auto-sync regions were minted during registration (population
  // growing), so refresh them to the final population by touching every
  // user once, mirroring what the batch sync sees.
  for (anonymizer::UserId uid = 0; uid < 40; ++uid) {
    ASSERT_TRUE(auto_service.UpdateUserLocation(uid, pos[uid]).ok());
  }
  ASSERT_TRUE(batch_service.SyncPrivateData().ok());

  auto a = auto_service.QueryPublicRange(Rect(0.2, 0.2, 0.8, 0.7));
  auto b = batch_service.QueryPublicRange(Rect(0.2, 0.2, 0.8, 0.7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->certain, b->certain);
  EXPECT_EQ(a->possible, b->possible);
  EXPECT_NEAR(a->expected, b->expected, 1e-9);
}

TEST(AutoSyncTest, ExplicitSyncStillWorks) {
  CasperService service(AutoSyncOptions());
  Rng rng(4);
  for (anonymizer::UserId uid = 0; uid < 20; ++uid) {
    ASSERT_TRUE(service
                    .RegisterUser(uid, {2, 0.0},
                                  rng.PointIn(Rect(0, 0, 1, 1)))
                    .ok());
  }
  // A full re-sync (refreshing every region at once) remains available.
  ASSERT_TRUE(service.SyncPrivateData().ok());
  EXPECT_EQ(PrivateSnapshot(service.private_store()).size(), 20u);
  auto count = service.QueryPublicRange(Rect(0, 0, 1, 1));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->possible, 20u);
}

}  // namespace
}  // namespace casper
