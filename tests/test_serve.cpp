// Tests for the AmIndex serving layer: a request served at serial n
// must be bit-identical to the backend's own search_hits_at(q, k, n)
// across metric x fidelity x k, match a brute-force nominal oracle
// before and after removals, be drivable from const contexts, and
// validate requests before consuming ordinals.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "arch/banked_am.hpp"
#include "core/ferex.hpp"
#include "csp/distance_matrix.hpp"
#include "data/datasets.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"

namespace ferex::serve {
namespace {

using csp::DistanceMetric;
using core::SearchFidelity;

/// Request builder (aggregate init with omitted trailing members trips
/// -Wextra's missing-field-initializers under -Werror).
SearchRequest req(std::vector<int> query, std::size_t k = 1) {
  SearchRequest r;
  r.query = std::move(query);
  r.k = k;
  return r;
}

SearchRequest req_at(std::vector<int> query, std::uint64_t ordinal) {
  SearchRequest r;
  r.query = std::move(query);
  r.ordinal = ordinal;
  return r;
}

void expect_identical(const SearchResponse& response,
                      const std::vector<Hit>& hits) {
  ASSERT_EQ(response.hits.size(), hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(response.hits[i].global_row, hits[i].global_row);
    EXPECT_EQ(response.hits[i].bank, hits[i].bank);
    EXPECT_EQ(response.hits[i].sensed_current_a,
              hits[i].sensed_current_a);  // bit-exact
    EXPECT_EQ(response.hits[i].margin_a, hits[i].margin_a);
    EXPECT_EQ(response.hits[i].nominal_distance, hits[i].nominal_distance);
  }
}

class ServeOrdinalT
    : public ::testing::TestWithParam<std::tuple<DistanceMetric,
                                                 SearchFidelity>> {};

TEST_P(ServeOrdinalT, EngineIndexServesSerialNAtBackendOrdinalN) {
  const auto [metric, fidelity] = GetParam();
  core::FerexOptions opt;
  opt.fidelity = fidelity;
  const auto db = data::random_int_vectors(24, 8, 4, 21);
  const auto queries = data::random_int_vectors(12, 8, 4, 22);

  EngineIndex index(opt);
  index.configure(metric, 2);
  index.store(db);

  // Request n consumes serial n, interleaving k = 1 and k = 5.
  for (std::size_t n = 0; n < queries.size(); ++n) {
    const std::size_t k = n % 2 == 0 ? 1 : 5;
    const auto response = index.search(req(queries[n], k));
    expect_identical(response,
                     index.engine().search_hits_at(queries[n], k, n));
    // Hit detail is self-consistent: nominal distance of each hit
    // matches the engine's reference for that row.
    for (const auto& hit : response.hits) {
      EXPECT_EQ(hit.bank, 0u);
      EXPECT_EQ(hit.nominal_distance,
                index.engine().nominal_distance(queries[n], hit.global_row));
    }
  }
  EXPECT_EQ(index.query_serial(), queries.size());
}

TEST_P(ServeOrdinalT, BankedIndexServesSerialNAtBackendOrdinalN) {
  const auto [metric, fidelity] = GetParam();
  arch::BankedOptions opt;
  opt.bank_rows = 7;
  opt.engine.fidelity = fidelity;
  const auto db = data::random_int_vectors(25, 8, 4, 27);
  const auto queries = data::random_int_vectors(10, 8, 4, 28);

  BankedIndex index(opt);
  index.configure(metric, 2);
  index.store(db);
  EXPECT_EQ(index.bank_count(), 4u);

  for (std::size_t n = 0; n < queries.size(); ++n) {
    const std::size_t k = n % 2 == 0 ? 1 : 7;
    const auto response = index.search(req(queries[n], k));
    expect_identical(response,
                     index.banked().search_hits_at(queries[n], k, n));
    // The bank coordinate points at the bank that owns the row.
    for (const auto& hit : response.hits) {
      EXPECT_EQ(hit.bank, hit.global_row / opt.bank_rows);
    }
  }
  EXPECT_EQ(index.query_serial(), queries.size());
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndFidelities, ServeOrdinalT,
    ::testing::Combine(::testing::Values(DistanceMetric::kHamming,
                                         DistanceMetric::kManhattan),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)));

// ----------------------------------------------------- nominal oracle --

/// Brute-force k-NN straight from the distance matrix: live rows sorted
/// by summed element distance, ties to the lowest row.
std::vector<std::pair<int, std::size_t>> oracle_knn(
    const csp::DistanceMatrix& dm, const std::vector<std::vector<int>>& db,
    const std::vector<bool>& live, const std::vector<int>& query,
    std::size_t k) {
  std::vector<std::pair<int, std::size_t>> ranked;
  for (std::size_t r = 0; r < db.size(); ++r) {
    if (!live[r]) continue;
    int distance = 0;
    for (std::size_t d = 0; d < query.size(); ++d) {
      distance += dm.at(static_cast<std::size_t>(query[d]),
                        static_cast<std::size_t>(db[r][d]));
    }
    ranked.emplace_back(distance, r);
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(k);
  return ranked;
}

class NominalOracleT
    : public ::testing::TestWithParam<std::tuple<bool, DistanceMetric>> {};

TEST_P(NominalOracleT, HitsMatchBruteForceBeforeAndAfterRemove) {
  const auto [banked, metric] = GetParam();
  std::unique_ptr<AmIndex> index;
  if (banked) {
    arch::BankedOptions opt;
    opt.bank_rows = 5;
    opt.engine.fidelity = SearchFidelity::kNominal;
    index = std::make_unique<BankedIndex>(opt);
  } else {
    core::FerexOptions opt;
    opt.fidelity = SearchFidelity::kNominal;
    index = std::make_unique<EngineIndex>(opt);
  }
  const auto dm = csp::DistanceMatrix::make(metric, 2);
  const auto db = data::random_int_vectors(18, 6, 4, 45);
  const auto queries = data::random_int_vectors(8, 6, 4, 46);
  index->configure(metric, 2);
  index->store(db);

  std::vector<bool> live(db.size(), true);
  const auto check_all = [&] {
    for (const auto& q : queries) {
      for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
        const auto response = index->search(req(q, k));
        const auto expected = oracle_knn(dm, db, live, q, k);
        ASSERT_EQ(response.hits.size(), k);
        for (std::size_t i = 0; i < k; ++i) {
          EXPECT_EQ(response.hits[i].global_row, expected[i].second);
          EXPECT_EQ(response.hits[i].nominal_distance, expected[i].first);
          // At nominal fidelity the sensed current IS the distance.
          EXPECT_EQ(response.hits[i].sensed_current_a,
                    static_cast<double>(expected[i].first));
        }
      }
    }
  };
  check_all();
  // Remove every query's current winner (and one bank-boundary row):
  // removed rows can never be hits, and k is bounded by the live count.
  for (const auto& q : queries) {
    const std::size_t winner = oracle_knn(dm, db, live, q, 1)[0].second;
    index->remove(winner);
    live[winner] = false;
  }
  if (live[5]) {
    index->remove(5);
    live[5] = false;
  }
  check_all();
  const auto live_rows = static_cast<std::size_t>(
      std::count(live.begin(), live.end(), true));
  EXPECT_EQ(index->live_count(), live_rows);
  EXPECT_THROW(index->search(req(queries[0], live_rows + 1)),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, NominalOracleT,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(DistanceMetric::kHamming,
                                         DistanceMetric::kManhattan,
                                         DistanceMetric::kEuclideanSquared)));

TEST(ServeT, ConstIndexServesOrdinalAddressedRequests) {
  core::FerexOptions opt;
  const auto db = data::random_int_vectors(16, 6, 4, 33);
  const auto q = data::random_int_vectors(1, 6, 4, 34).front();

  EngineIndex index(opt);
  index.configure(DistanceMetric::kHamming, 2);
  index.store(db);

  // Driving through a const AmIndex& — the whole point of the const
  // ordinal-addressed core.
  const AmIndex& const_index = index;
  const auto a = const_index.search_at(req(q, 3), 5);
  const auto b = const_index.search_at(req(q, 3), 5);
  ASSERT_EQ(a.hits.size(), 3u);
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].global_row, b.hits[i].global_row);
    EXPECT_EQ(a.hits[i].sensed_current_a, b.hits[i].sensed_current_a);
  }
  // search_at consumes nothing.
  EXPECT_EQ(index.query_serial(), 0u);

  // A pinned request ordinal replays the same noise stream as the
  // mutable path at that ordinal, and does not advance the serial.
  const auto mutable_result = index.search(req(q));  // ordinal 0
  const auto replay = index.search(req_at(q, 0));
  EXPECT_EQ(replay.best().global_row, mutable_result.best().global_row);
  EXPECT_EQ(replay.best().sensed_current_a,
            mutable_result.best().sensed_current_a);
  EXPECT_EQ(index.query_serial(), 1u);
}

TEST(ServeT, PolymorphicBackendsShareOneSurface) {
  const auto db = data::random_int_vectors(18, 6, 4, 37);
  const auto q = data::random_int_vectors(1, 6, 4, 38).front();

  arch::BankedOptions banked_opt;
  banked_opt.bank_rows = 5;
  std::vector<std::unique_ptr<AmIndex>> indexes;
  indexes.push_back(std::make_unique<EngineIndex>());
  indexes.push_back(std::make_unique<BankedIndex>(banked_opt));

  for (auto& index : indexes) {
    index->configure(DistanceMetric::kHamming, 2);
    index->store(db);
    const auto response = index->search(req(q, 3));
    ASSERT_EQ(response.hits.size(), 3u);
    // Nearest-first ordering by nominal distance (no ties broken out of
    // order at either backend for this data).
    EXPECT_LE(response.hits[0].nominal_distance,
              response.hits[1].nominal_distance);
    EXPECT_LE(response.hits[1].nominal_distance,
              response.hits[2].nominal_distance);
    const auto receipt = index->insert(db.front());
    EXPECT_EQ(receipt.global_row, db.size());
    EXPECT_GT(receipt.cost.pulses, 0u);
    EXPECT_EQ(index->stored_count(), db.size() + 1);
    // The inserted duplicate of row 0 is immediately searchable.
    std::vector<int> exact(db.front());
    const auto after = index->search(req(exact));
    EXPECT_EQ(after.best().nominal_distance, 0);
  }
}

TEST(ServeT, BankedMarginIsGapBetweenTwoBestBankWinners) {
  arch::BankedOptions opt;
  opt.bank_rows = 5;
  // Deterministic settings so the margin arithmetic is exact.
  opt.engine.circuit.variation.enabled = false;
  opt.engine.lta.offset_sigma_rel = 0.0;
  const auto db = data::random_int_vectors(15, 6, 4, 39);
  const auto q = data::random_int_vectors(1, 6, 4, 40).front();

  BankedIndex index(opt);
  index.configure(DistanceMetric::kHamming, 2);
  index.store(db);

  const auto response = index.search_at(req(q), 0);
  // Reconstruct the per-bank winners through each bank's own engine.
  std::vector<double> winner_currents;
  for (std::size_t start = 0; start < db.size(); start += opt.bank_rows) {
    core::FerexOptions engine_opt = opt.engine;
    engine_opt.seed = opt.engine.seed + 0x9e37 * (start + 1);
    core::FerexEngine bank(engine_opt);
    bank.configure(DistanceMetric::kHamming, 2);
    bank.store({db.begin() + start,
                db.begin() + std::min(start + opt.bank_rows, db.size())});
    winner_currents.push_back(
        bank.search_hits_at(q, 1, 0).front().sensed_current_a);
  }
  std::sort(winner_currents.begin(), winner_currents.end());
  EXPECT_EQ(response.best().sensed_current_a, winner_currents[0]);
  EXPECT_EQ(response.best().margin_a,
            winner_currents[1] - winner_currents[0]);
}

TEST(ServeT, RejectsMalformedRequestsBeforeConsumingOrdinals) {
  const auto db = data::random_int_vectors(10, 6, 4, 41);
  EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  index.store(db);

  std::vector<int> good(6, 1);
  std::vector<int> short_q(5, 1);
  std::vector<int> bad_value(6, 1);
  bad_value[3] = 99;

  EXPECT_THROW(index.search(req(short_q)), std::invalid_argument);
  EXPECT_THROW(index.search(req(bad_value)), std::out_of_range);
  EXPECT_THROW(index.search(req(good, 0)), std::invalid_argument);
  EXPECT_THROW(index.search(req(good, 11)), std::invalid_argument);
  std::vector<SearchRequest> mixed;
  mixed.push_back(req(good));
  mixed.push_back(req(bad_value));
  EXPECT_THROW(index.search_batch(mixed), std::out_of_range);
  // None of the rejected requests consumed an ordinal...
  EXPECT_EQ(index.query_serial(), 0u);
  // ...so the next accepted search matches a fresh index's first one.
  EngineIndex fresh;
  fresh.configure(DistanceMetric::kHamming, 2);
  fresh.store(db);
  EXPECT_EQ(index.search(req(good)).best().sensed_current_a,
            fresh.search(req(good)).best().sensed_current_a);
}

TEST(ServeT, EmptyBatchIsANoOp) {
  EngineIndex index;
  index.configure(DistanceMetric::kHamming, 2);
  index.store(data::random_int_vectors(4, 4, 4, 42));
  EXPECT_TRUE(index.search_batch({}).empty());
  EXPECT_EQ(index.query_serial(), 0u);
}

TEST(ServeT, CompositeCodecServesThroughTheSameSurface) {
  core::FerexOptions opt;
  const auto db = data::random_int_vectors(12, 5, 16, 43);
  const auto queries = data::random_int_vectors(5, 5, 16, 44);

  core::FerexEngine engine(opt);
  engine.configure_composite(DistanceMetric::kHamming, 4);
  engine.store(db);
  EngineIndex index(opt);
  index.configure_composite(DistanceMetric::kHamming, 4);
  index.store(db);

  for (std::size_t n = 0; n < queries.size(); ++n) {
    expect_identical(index.search(req(queries[n], 2)),
                     engine.search_hits_at(queries[n], 2, n));
  }
}

}  // namespace
}  // namespace ferex::serve
