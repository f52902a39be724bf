#include "src/casper/batch_query_engine.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/casper/workload.h"
#include "src/common/rng.h"

namespace casper::server {
namespace {

CasperService MakeService(size_t users, size_t targets, uint64_t seed,
                          bool adaptive = true) {
  CasperOptions options;
  options.pyramid.height = 6;
  options.use_adaptive_anonymizer = adaptive;
  CasperService service(options);
  Rng rng(seed);
  const Rect space = service.options().pyramid.space;
  for (anonymizer::UserId uid = 0; uid < users; ++uid) {
    anonymizer::PrivacyProfile profile;
    profile.k = static_cast<uint32_t>(rng.UniformInt(1, 10));
    EXPECT_TRUE(service.RegisterUser(uid, profile, rng.PointIn(space)).ok());
  }
  service.SetPublicTargets(
      workload::UniformPublicTargets(targets, space, &rng));
  return service;
}

/// A deterministic mixed batch cycling through all four query kinds.
std::vector<BatchQueryRequest> MixedBatch(size_t count, size_t users,
                                          double space_width) {
  std::vector<BatchQueryRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    const anonymizer::UserId uid = i % users;
    switch (i % 4) {
      case 0:
        requests.push_back(BatchQueryRequest::NearestPublic(uid));
        break;
      case 1:
        requests.push_back(BatchQueryRequest::KNearestPublic(uid, 3));
        break;
      case 2:
        requests.push_back(
            BatchQueryRequest::RangePublic(uid, space_width * 0.02));
        break;
      case 3:
        requests.push_back(BatchQueryRequest::NearestPrivate(uid));
        break;
    }
  }
  return requests;
}

std::vector<uint64_t> Ids(const std::vector<processor::PublicTarget>& ts) {
  std::vector<uint64_t> ids;
  for (const auto& t : ts) ids.push_back(t.id);
  return ids;
}

std::vector<uint64_t> Ids(const std::vector<processor::PrivateTarget>& ts) {
  std::vector<uint64_t> ids;
  for (const auto& t : ts) ids.push_back(t.id);
  return ids;
}

/// Runs the batch through the sequential CasperService path and asserts
/// the engine's responses are identical, slot by slot — candidate lists
/// in the same order, same extended areas, same refined answers.
void ExpectParityWithSequential(CasperService* service,
                                const std::vector<BatchQueryRequest>& batch,
                                const BatchResult& result) {
  ASSERT_EQ(result.responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const BatchQueryRequest& request = batch[i];
    const BatchQueryResponse& response = result.responses[i];
    ASSERT_EQ(response.kind, request.kind) << "slot " << i;
    switch (request.kind) {
      case QueryKind::kNearestPublic: {
        auto expected = service->QueryNearestPublic(request.uid);
        ASSERT_EQ(response.status.code(), expected.status().code());
        if (!expected.ok()) break;
        ASSERT_NE(response.nearest_public(), nullptr);
        const auto& got = *response.nearest_public();
        EXPECT_EQ(Ids(got.server_answer.candidates),
                  Ids(expected->server_answer.candidates));
        EXPECT_EQ(got.server_answer.area.a_ext, expected->server_answer.area.a_ext);
        EXPECT_EQ(got.exact.id, expected->exact.id);
        EXPECT_EQ(got.cloak.region, expected->cloak.region);
        break;
      }
      case QueryKind::kKNearestPublic: {
        auto expected = service->QueryKNearestPublic(request.uid, request.k);
        ASSERT_EQ(response.status.code(), expected.status().code());
        if (!expected.ok()) break;
        ASSERT_NE(response.k_nearest_public(), nullptr);
        const auto& got = *response.k_nearest_public();
        EXPECT_EQ(Ids(got.server_answer.candidates),
                  Ids(expected->server_answer.candidates));
        EXPECT_EQ(Ids(got.exact), Ids(expected->exact));
        break;
      }
      case QueryKind::kRangePublic: {
        auto expected = service->QueryRangePublic(request.uid, request.radius);
        ASSERT_EQ(response.status.code(), expected.status().code());
        if (!expected.ok()) break;
        ASSERT_NE(response.range_public(), nullptr);
        const auto& got = *response.range_public();
        EXPECT_EQ(Ids(got.server_answer.candidates),
                  Ids(expected->candidates));
        EXPECT_EQ(got.server_answer.search_window, expected->search_window);
        break;
      }
      case QueryKind::kNearestPrivate: {
        auto expected = service->QueryNearestPrivate(request.uid);
        ASSERT_EQ(response.status.code(), expected.status().code());
        if (!expected.ok()) break;
        ASSERT_NE(response.nearest_private(), nullptr);
        const auto& got = *response.nearest_private();
        EXPECT_EQ(Ids(got.server_answer.candidates),
                  Ids(expected->server_answer.candidates));
        EXPECT_EQ(got.best.id, expected->best.id);
        break;
      }
      default:
        break;
    }
  }
}

TEST(BatchQueryEngineTest, MixedBatchMatchesSequentialPath) {
  CasperService service = MakeService(120, 800, 1);
  ASSERT_TRUE(service.SyncPrivateData().ok());
  const double width = service.options().pyramid.space.width();
  const auto batch = MixedBatch(200, 120, width);

  for (const bool use_cache : {false, true}) {
    BatchEngineOptions options;
    options.threads = 4;
    options.use_cache = use_cache;
    BatchQueryEngine engine(&service, options);
    BatchResult result = engine.Execute(batch);
    ExpectParityWithSequential(&service, batch, result);
    EXPECT_EQ(result.summary.batch_size, batch.size());
    EXPECT_EQ(result.summary.ok_count + result.summary.error_count,
              batch.size());
  }
}

TEST(BatchQueryEngineTest, ManyThreadsStress) {
  CasperService service = MakeService(200, 1500, 2);
  ASSERT_TRUE(service.SyncPrivateData().ok());
  const double width = service.options().pyramid.space.width();
  const auto batch = MixedBatch(1000, 200, width);

  BatchEngineOptions options;
  options.threads = 8;
  options.use_cache = true;
  BatchQueryEngine engine(&service, options);

  // Several rounds through the same engine: later rounds are served
  // largely from the shared cache and must stay byte-identical.
  for (int round = 0; round < 3; ++round) {
    BatchResult result = engine.Execute(batch);
    ExpectParityWithSequential(&service, batch, result);
  }
  EXPECT_GT(engine.cache()->stats().HitRate(), 0.5);
}

TEST(BatchQueryEngineTest, ResponsesInRequestOrder) {
  CasperService service = MakeService(64, 600, 3);
  ASSERT_TRUE(service.SyncPrivateData().ok());
  // Alternate heavy (k-NN with large k) and light queries so completion
  // order differs from request order under any scheduling.
  std::vector<BatchQueryRequest> batch;
  for (size_t i = 0; i < 128; ++i) {
    const anonymizer::UserId uid = i % 64;
    if (i % 2 == 0) {
      batch.push_back(BatchQueryRequest::KNearestPublic(uid, 40));
    } else {
      batch.push_back(BatchQueryRequest::NearestPublic(uid));
    }
  }
  BatchEngineOptions options;
  options.threads = 8;
  BatchQueryEngine engine(&service, options);
  BatchResult result = engine.Execute(batch);

  ASSERT_EQ(result.responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(result.responses[i].kind, batch[i].kind) << "slot " << i;
    ASSERT_TRUE(result.responses[i].ok()) << "slot " << i;
    // The payload present must match the kind — a k-NN response in an
    // NN slot would mean slots were shuffled.
    if (batch[i].kind == QueryKind::kKNearestPublic) {
      EXPECT_NE(result.responses[i].k_nearest_public(), nullptr);
      EXPECT_EQ(result.responses[i].nearest_public(), nullptr);
      // Refined list is user-specific: verify against the sequential
      // answer for exactly this slot's uid.
      auto expected = service.QueryKNearestPublic(batch[i].uid, 40);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(Ids(result.responses[i].k_nearest_public()->exact),
                Ids(expected->exact));
    } else {
      EXPECT_NE(result.responses[i].nearest_public(), nullptr);
      EXPECT_EQ(result.responses[i].k_nearest_public(), nullptr);
      auto expected = service.QueryNearestPublic(batch[i].uid);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(result.responses[i].nearest_public()->exact.id,
                expected->exact.id);
    }
  }
}

TEST(BatchQueryEngineTest, PerSlotErrorsDoNotAbortTheBatch) {
  CasperService service = MakeService(20, 200, 4);
  ASSERT_TRUE(service.SyncPrivateData().ok());
  std::vector<BatchQueryRequest> batch;
  batch.push_back(BatchQueryRequest::NearestPublic(0));
  batch.push_back(BatchQueryRequest::NearestPublic(9999));  // Unknown uid.
  batch.push_back(BatchQueryRequest::KNearestPublic(1, 3));

  BatchQueryEngine engine(&service);
  BatchResult result = engine.Execute(batch);
  ASSERT_EQ(result.responses.size(), 3u);
  EXPECT_TRUE(result.responses[0].ok());
  EXPECT_EQ(result.responses[1].status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(result.responses[2].ok());
  EXPECT_EQ(result.summary.ok_count, 2u);
  EXPECT_EQ(result.summary.error_count, 1u);
}

TEST(BatchQueryEngineTest, UnsyncedPrivateDataFailsOnlyPrivateSlots) {
  CasperService service = MakeService(30, 200, 5);  // No SyncPrivateData.
  std::vector<BatchQueryRequest> batch;
  batch.push_back(BatchQueryRequest::NearestPublic(0));
  batch.push_back(BatchQueryRequest::NearestPrivate(1));

  BatchQueryEngine engine(&service);
  BatchResult result = engine.Execute(batch);
  EXPECT_TRUE(result.responses[0].ok());
  EXPECT_EQ(result.responses[1].status.code(),
            StatusCode::kFailedPrecondition);
}

TEST(BatchQueryEngineTest, SummaryAggregatesTimings) {
  CasperService service = MakeService(50, 500, 6);
  ASSERT_TRUE(service.SyncPrivateData().ok());
  const auto batch = MixedBatch(100, 50,
                                service.options().pyramid.space.width());
  BatchEngineOptions options;
  options.threads = 2;
  BatchQueryEngine engine(&service, options);
  BatchResult result = engine.Execute(batch);

  EXPECT_GT(result.summary.wall_seconds, 0.0);
  EXPECT_GT(result.summary.queries_per_second, 0.0);
  EXPECT_GT(result.summary.totals.processor_seconds, 0.0);
  EXPECT_GT(result.summary.totals.transmission_seconds, 0.0);
  EXPECT_GE(result.summary.processor_p95_micros,
            result.summary.processor_p50_micros);
  EXPECT_GE(result.summary.processor_p99_micros,
            result.summary.processor_p95_micros);
  EXPECT_GT(result.summary.cache.hits + result.summary.cache.misses, 0u);
}

/// Every user's NN request, plus a new public target at each user's
/// exact position — which must become that user's exact answer.
struct CacheStalenessFixture {
  std::vector<BatchQueryRequest> batch;
  std::vector<processor::PublicTarget> at_users;
};

CacheStalenessFixture NearestPublicAtEveryUser(CasperService* service,
                                               size_t users) {
  CacheStalenessFixture fixture;
  for (anonymizer::UserId uid = 0; uid < users; ++uid) {
    fixture.batch.push_back(BatchQueryRequest::NearestPublic(uid));
    Result<Point> position = service->ClientPosition(uid);
    EXPECT_TRUE(position.ok());
    fixture.at_users.push_back({900000 + uid, position.value()});
  }
  return fixture;
}

void ExpectAnswersAreTheNewTargets(const CacheStalenessFixture& fixture,
                                   const BatchResult& result) {
  for (size_t i = 0; i < fixture.batch.size(); ++i) {
    ASSERT_TRUE(result.responses[i].ok()) << "slot " << i;
    EXPECT_EQ(result.responses[i].nearest_public()->exact.id,
              fixture.at_users[i].id)
        << "slot " << i << " was answered from a stale cache entry";
  }
}

TEST(BatchQueryEngineTest, CacheInvalidationAfterTargetMutation) {
  // Nothing but the mutation itself may be needed to keep the cache
  // honest: no invalidation call between the two batches.
  CasperService service = MakeService(40, 300, 7);
  ASSERT_TRUE(service.SyncPrivateData().ok());
  const CacheStalenessFixture fixture = NearestPublicAtEveryUser(&service, 40);
  BatchQueryEngine engine(&service);
  (void)engine.Execute(fixture.batch);

  for (const processor::PublicTarget& t : fixture.at_users) {
    service.AddPublicTarget(t);
  }
  BatchResult result = engine.Execute(fixture.batch);
  ExpectParityWithSequential(&service, fixture.batch, result);
  ExpectAnswersAreTheNewTargets(fixture, result);
}

TEST(BatchQueryEngineTest, CacheInvalidationAfterTargetReplacement) {
  // SetPublicTargets builds a new index in place of the old one; its
  // epochs must not collide with those the cached entries carry.
  CasperService service = MakeService(40, 300, 8);
  ASSERT_TRUE(service.SyncPrivateData().ok());
  const CacheStalenessFixture fixture = NearestPublicAtEveryUser(&service, 40);
  BatchQueryEngine engine(&service);
  (void)engine.Execute(fixture.batch);

  Rng rng(80);
  std::vector<processor::PublicTarget> targets = workload::UniformPublicTargets(
      300, service.options().pyramid.space, &rng);
  targets.insert(targets.end(), fixture.at_users.begin(),
                 fixture.at_users.end());
  service.SetPublicTargets(targets);
  BatchResult result = engine.Execute(fixture.batch);
  ExpectParityWithSequential(&service, fixture.batch, result);
  ExpectAnswersAreTheNewTargets(fixture, result);
}

}  // namespace
}  // namespace casper::server
