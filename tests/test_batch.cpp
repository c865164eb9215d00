// Tests for batched serving. Request batching and ordinal accounting
// live only in serve::AmIndex, so a batch must be bit-identical to the
// same requests served one at a time — across backends, metrics,
// fidelities, k, and the composite codec — and every malformed request
// must be rejected before any ordinal is consumed.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "data/datasets.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"
#include "util/parallel.hpp"

namespace ferex::serve {
namespace {

using core::SearchFidelity;
using csp::DistanceMetric;

void expect_identical(const SearchResponse& a, const SearchResponse& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].global_row, b.hits[i].global_row);
    EXPECT_EQ(a.hits[i].bank, b.hits[i].bank);
    EXPECT_EQ(a.hits[i].sensed_current_a, b.hits[i].sensed_current_a);
    EXPECT_EQ(a.hits[i].margin_a, b.hits[i].margin_a);
    EXPECT_EQ(a.hits[i].nominal_distance, b.hits[i].nominal_distance);
  }
}

enum class Backend { kEngine, kBanked };

/// A configured, stored index of either backend (banked: 7-row banks).
std::unique_ptr<AmIndex> make_index(Backend backend, DistanceMetric metric,
                                    SearchFidelity fidelity,
                                    const std::vector<std::vector<int>>& db) {
  std::unique_ptr<AmIndex> index;
  if (backend == Backend::kEngine) {
    core::FerexOptions opt;
    opt.fidelity = fidelity;
    index = std::make_unique<EngineIndex>(opt);
  } else {
    arch::BankedOptions opt;
    opt.bank_rows = 7;
    opt.engine.fidelity = fidelity;
    index = std::make_unique<BankedIndex>(opt);
  }
  index->configure(metric, 2);
  index->store(db);
  return index;
}

/// Requests over `queries` with k cycling through {1, 3, 2}.
std::vector<SearchRequest> mixed_k_requests(
    const std::vector<std::vector<int>>& queries) {
  std::vector<SearchRequest> requests;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests.emplace_back(queries[i], std::size_t{1} + (i * 2) % 3);
  }
  return requests;
}

class BatchIdenticalT
    : public ::testing::TestWithParam<
          std::tuple<Backend, DistanceMetric, SearchFidelity>> {};

TEST_P(BatchIdenticalT, BatchMatchesOneAtATimeBitExactly) {
  const auto [backend, metric, fidelity] = GetParam();
  const auto db = data::random_int_vectors(24, 8, 4, 11);
  const auto requests =
      mixed_k_requests(data::random_int_vectors(17, 8, 4, 12));

  const auto batched = make_index(backend, metric, fidelity, db);
  const auto batch = batched->search_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  EXPECT_EQ(batched->query_serial(), requests.size());

  const auto sequential = make_index(backend, metric, fidelity, db);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(batch[i], sequential->search(requests[i]));
  }
  EXPECT_EQ(sequential->query_serial(), requests.size());
}

INSTANTIATE_TEST_SUITE_P(
    BackendsMetricsAndFidelities, BatchIdenticalT,
    ::testing::Combine(::testing::Values(Backend::kEngine, Backend::kBanked),
                       ::testing::Values(DistanceMetric::kHamming,
                                         DistanceMetric::kManhattan,
                                         DistanceMetric::kEuclideanSquared),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)));

TEST(SearchBatchT, CompositeEncodingMatchesOneAtATime) {
  const auto db = data::random_int_vectors(16, 6, 16, 21);
  const auto requests =
      mixed_k_requests(data::random_int_vectors(9, 6, 16, 22));

  EngineIndex batched;
  batched.configure_composite(DistanceMetric::kHamming, 4);
  batched.store(db);
  const auto batch = batched.search_batch(requests);

  EngineIndex sequential;
  sequential.configure_composite(DistanceMetric::kHamming, 4);
  sequential.store(db);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(batch[i], sequential.search(requests[i]));
  }
}

TEST(SearchBatchT, BatchServesEachRequestAtItsOrdinal) {
  // Unpinned requests take consecutive serials, pinned ones keep their
  // own ordinal and consume nothing; each response equals the const core
  // at that ordinal.
  const auto db = data::random_int_vectors(20, 6, 4, 61);
  const auto queries = data::random_int_vectors(5, 6, 4, 62);
  EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  index.store(db);
  (void)index.search(SearchRequest(queries[0]));  // serial 0

  std::vector<SearchRequest> requests;
  requests.emplace_back(queries[1], 3);                    // serial 1
  requests.emplace_back(queries[2], 1, std::uint64_t{40});  // pinned
  requests.emplace_back(queries[3], 2);                    // serial 2
  requests.emplace_back(queries[4], 1);                    // serial 3
  const auto batch = index.search_batch(requests);
  EXPECT_EQ(index.query_serial(), 4u);

  const std::uint64_t ordinals[] = {1, 40, 2, 3};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(batch[i], index.search_at(requests[i], ordinals[i]));
  }
}

TEST(SearchBatchT, RepeatedBatchesAreDeterministicAcrossIndexes) {
  const auto db = data::random_int_vectors(18, 7, 4, 71);
  const auto requests =
      mixed_k_requests(data::random_int_vectors(32, 7, 4, 72));
  std::vector<std::vector<SearchResponse>> runs;
  for (int run = 0; run < 2; ++run) {
    EngineIndex index;
    index.configure(DistanceMetric::kManhattan, 2);
    index.store(db);
    runs.push_back(index.search_batch(requests));
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(runs[0][i], runs[1][i]);
  }
}

// ------------------------------------------------------- validation --

class BatchValidationT : public ::testing::TestWithParam<Backend> {};

TEST_P(BatchValidationT, RejectsMalformedRequestsWithoutConsumingOrdinals) {
  for (const auto fidelity :
       {SearchFidelity::kCircuit, SearchFidelity::kNominal}) {
    const auto db = data::random_int_vectors(6, 4, 4, 51);
    const auto index =
        make_index(GetParam(), DistanceMetric::kHamming, fidelity, db);
    const std::vector<int> good{0, 1, 2, 3};
    const std::vector<int> short_query{0, 1, 2};   // dims is 4
    const std::vector<int> too_big{0, 1, 2, 7};    // 7 > 3
    const std::vector<int> negative{0, 1, 2, -1};

    EXPECT_THROW(index->search(SearchRequest(short_query)),
                 std::invalid_argument);
    EXPECT_THROW(index->search(SearchRequest(too_big)), std::out_of_range);
    EXPECT_THROW(index->search(SearchRequest(negative)), std::out_of_range);
    EXPECT_THROW(index->search(SearchRequest(good, 0)),
                 std::invalid_argument);
    EXPECT_THROW(index->search(SearchRequest(good, db.size() + 1)),
                 std::invalid_argument);
    // One bad request rejects the whole batch up front.
    std::vector<SearchRequest> batch;
    batch.emplace_back(good);
    batch.emplace_back(too_big);
    EXPECT_THROW(index->search_batch(batch), std::out_of_range);
    batch.back() = SearchRequest(short_query);
    EXPECT_THROW(index->search_batch(batch), std::invalid_argument);
    batch.back() = SearchRequest(good, 0);
    EXPECT_THROW(index->search_batch(batch), std::invalid_argument);
    // An empty batch is a no-op.
    EXPECT_TRUE(index->search_batch({}).empty());
    // Rejected requests never consume noise-stream ordinals...
    EXPECT_EQ(index->query_serial(), 0u);
    // ...so the next accepted search equals a fresh index's first one.
    const auto fresh =
        make_index(GetParam(), DistanceMetric::kHamming, fidelity, db);
    expect_identical(index->search(SearchRequest(good, 2)),
                     fresh->search(SearchRequest(good, 2)));
  }
}

TEST_P(BatchValidationT, RejectsEveryRequestBeforeStore) {
  std::unique_ptr<AmIndex> index;
  if (GetParam() == Backend::kEngine) {
    index = std::make_unique<EngineIndex>();
  } else {
    index = std::make_unique<BankedIndex>();
  }
  std::vector<SearchRequest> batch;
  batch.emplace_back(std::vector<int>{0, 1});
  EXPECT_THROW(index->search_batch(batch), EmptyIndex);
  index->configure(DistanceMetric::kHamming, 2);
  EXPECT_THROW(index->search(batch.front()), EmptyIndex);
  EXPECT_TRUE(index->search_batch({}).empty());
  EXPECT_EQ(index->query_serial(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, BatchValidationT,
                         ::testing::Values(Backend::kEngine,
                                           Backend::kBanked));

TEST(SearchBatchT, RejectsOutOfRangeValuesUnderCodec) {
  EngineIndex index;
  index.configure_composite(DistanceMetric::kHamming, 4);
  index.store(data::random_int_vectors(6, 4, 16, 54));
  std::vector<SearchRequest> batch;
  batch.emplace_back(std::vector<int>{0, 1, 2, 16});  // 16 > 15
  EXPECT_THROW(index.search_batch(batch), std::out_of_range);
  EXPECT_THROW(index.search(batch.front()), std::out_of_range);
  EXPECT_EQ(index.query_serial(), 0u);
}

TEST(SearchBatchT, RejectsWrongQueryLengthUnderCodecAtNominalFidelity) {
  // Regression: the codec expands element-wise with no length check, and
  // the nominal path used to read past the end of a short expanded query.
  core::FerexOptions opt;
  opt.fidelity = SearchFidelity::kNominal;
  EngineIndex index(opt);
  index.configure_composite(DistanceMetric::kHamming, 4);
  index.store(data::random_int_vectors(6, 4, 16, 52));
  std::vector<SearchRequest> batch;
  batch.emplace_back(std::vector<int>{0, 1, 2});  // dims is 4
  EXPECT_THROW(index.search_batch(batch), std::invalid_argument);
  EXPECT_THROW(index.search(batch.front()), std::invalid_argument);
}

TEST(ParallelForT, CoversAllIndicesAndPropagatesExceptions) {
  std::vector<int> hits(257, 0);
  util::parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_THROW(util::parallel_for(
                   8, [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  EXPECT_GE(util::worker_count(1), 1u);
  EXPECT_EQ(util::worker_count(0), 1u);
}

}  // namespace
}  // namespace ferex::serve
