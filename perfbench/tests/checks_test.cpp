// Self-test of the benchmark's correctness checks: each check passes on
// real answers from the system and fails when one field of the answer is
// corrupted. A check that cannot fail proves nothing, so this runs with
// every benchmark build (ctest, or `python3 perfbench/run.py --self-test`).
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "oracle.hpp"
#include "serve/banked_index.hpp"

namespace {

using namespace perfbench;
using ferex::csp::DistanceMetric;
using ferex::serve::SearchRequest;
using ferex::serve::SearchResponse;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void expect_pass(const std::string& why, const std::string& what) {
  expect(why.empty(), what + " (got: " + why + ")");
}

void expect_fail(const std::string& why, const std::string& what) {
  expect(!why.empty(), what + " was accepted");
}

/// Flips the lowest mantissa bit: the smallest corruption a replay can
/// show.
void flip_bit(double& x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  bits ^= 1;
  std::memcpy(&x, &bits, sizeof bits);
}

void test_distances() {
  Oracle oracle(DistanceMetric::kHamming, 2);
  oracle.store({{3, 1}});
  const Vec q{0, 2};
  expect(oracle.distance(q, 0) == 2 + 2, "hamming: popcount(3^0)+popcount(1^2)");
  oracle.set_metric(DistanceMetric::kManhattan);
  expect(oracle.distance(q, 0) == 3 + 1, "manhattan: |3-0|+|1-2|");
  oracle.set_metric(DistanceMetric::kEuclideanSquared);
  expect(oracle.distance(q, 0) == 9 + 1, "euclidean2: 9+1");
}

void test_slot_reuse() {
  Oracle oracle(DistanceMetric::kManhattan, 1);
  oracle.store({{0}, {1}, {2}, {3}});
  oracle.remove(2);
  oracle.remove(1);
  expect(oracle.insert({3}) == 1, "insert reuses the lowest freed slot");
  expect(oracle.insert({3}) == 2, "then the next freed slot");
  expect(oracle.insert({3}) == 4, "then appends");
}

void test_search_checks() {
  ferex::util::Rng rng(11);
  const auto db = random_database(rng, 256, 16, 4);
  ferex::arch::BankedOptions options;
  options.bank_rows = 64;
  options.engine.fidelity = ferex::core::SearchFidelity::kNominal;
  ferex::serve::BankedIndex index(options);
  index.configure(DistanceMetric::kManhattan, 2);
  index.store(db);
  Oracle oracle(DistanceMetric::kManhattan, 16);
  oracle.store(db);

  for (int i = 0; i < 8; ++i) {
    const Vec q = make_query(rng, db, 4);
    const SearchResponse good = index.search(SearchRequest(q, 5));
    expect_pass(check_knn(oracle, q, 5, good), "real k-NN answer");
    expect_pass(check_well_formed(oracle, q, 5, good), "real answer shape");
    expect(top1_agrees(oracle, q, good), "real top-1 agrees");

    // A farther row in place of the best hit, with its true distance.
    SearchResponse far = good;
    std::size_t worst = 0;
    for (std::size_t r = 0; r < db.size(); ++r) {
      if (oracle.distance(q, r) > oracle.distance(q, worst)) worst = r;
    }
    far.hits[0].global_row = worst;
    far.hits[0].nominal_distance = oracle.distance(q, worst);
    expect_fail(check_knn(oracle, q, 5, far), "k-NN with a farther row");
    expect(!top1_agrees(oracle, q, far), "top-1 with a farther row");

    SearchResponse lying = good;
    lying.hits[1].nominal_distance += 1;
    expect_fail(check_knn(oracle, q, 5, lying), "k-NN with a wrong distance");
    expect_fail(check_well_formed(oracle, q, 5, lying),
                "shape with a wrong distance");

    SearchResponse repeated = good;
    repeated.hits[2] = repeated.hits[1];
    expect_fail(check_knn(oracle, q, 5, repeated), "k-NN with a repeated row");
    expect_fail(check_well_formed(oracle, q, 5, repeated),
                "shape with a repeated row");

    SearchResponse short_answer = good;
    short_answer.hits.pop_back();
    expect_fail(check_knn(oracle, q, 5, short_answer), "k-NN missing a hit");

    SearchResponse out_of_range = good;
    out_of_range.hits[0].global_row = db.size() + 7;
    expect_fail(check_well_formed(oracle, q, 5, out_of_range),
                "shape with a row past the end");
  }

  // A removed row must not come back in an answer.
  const Vec q = make_query(rng, db, 4);
  const SearchResponse before = index.search(SearchRequest(q, 3));
  Oracle removed = oracle;
  removed.remove(before.hits[0].global_row);
  expect_fail(check_well_formed(removed, q, 3, before),
              "shape with a removed row");
}

void test_replay_checks() {
  ferex::serve::WriteReceipt receipt;
  receipt.global_row = 17;
  expect_pass(check_receipt(17, receipt), "receipt on the predicted slot");
  expect_fail(check_receipt(16, receipt), "receipt on another slot");

  ferex::util::Rng rng(5);
  const auto db = random_database(rng, 128, 16, 4);
  ferex::arch::BankedOptions options;
  options.bank_rows = 64;  // circuit fidelity: currents carry noise
  ferex::serve::BankedIndex index(options);
  index.configure(DistanceMetric::kHamming, 2);
  index.store(db);
  const SearchRequest req(make_query(rng, db, 4), 3);
  const SearchResponse live = index.search_at(req, 42);
  expect_pass(check_identical(live, index.search_at(req, 42)),
              "same ordinal, same answer");

  SearchResponse current = live;
  flip_bit(current.hits[1].sensed_current_a);
  expect_fail(check_identical(live, current), "one current bit flipped");
  SearchResponse margin = live;
  flip_bit(margin.hits[0].margin_a);
  expect_fail(check_identical(live, margin), "one margin bit flipped");
  SearchResponse bank = live;
  bank.hits[2].bank += 1;
  expect_fail(check_identical(live, bank), "another bank");
}

/// An open-loop session's answers, checked against an oracle that holds
/// a write the index took before the session.
void test_session_verifier() {
  std::vector<Op> ops(2);
  ops[0].vector = {0, 1};  // k = 1: row 1 after its update
  ops[1].vector = {3, 2};  // k = 2
  ops[1].k = 2;
  const auto hit = [](std::size_t row, int distance) {
    ferex::serve::Hit h;
    h.global_row = row;
    h.nominal_distance = distance;
    return h;
  };
  SessionReport report;
  report.results.resize(ops.size());
  report.results[0].response.hits = {hit(1, 0)};
  report.results[1].response.hits = {hit(2, 3), hit(1, 4)};

  const auto run = [&](const SessionReport& r) {
    Oracle oracle(DistanceMetric::kManhattan, 2);
    oracle.store({{0, 0}, {3, 3}, {1, 1}});
    oracle.update(1, {0, 1});
    Outcome out;
    verify_session(ops, r, oracle, out);
    return out;
  };
  const Outcome good = run(report);
  expect(good.correct && good.attempted == 2 && good.failed == 0,
         "session verifier accepts the right answers");

  // The answer the database had before the update: row 2 at distance 1.
  SessionReport stale = report;
  stale.results[0].response.hits = {hit(2, 1)};
  expect(!run(stale).correct, "session verifier rejects a stale answer");

  SessionReport swapped = report;
  std::swap(swapped.results[1].response.hits[0],
            swapped.results[1].response.hits[1]);
  expect(!run(swapped).correct,
         "session verifier rejects hits out of order");

  SessionReport failed = report;
  failed.results[1].failed = true;
  const Outcome counted = run(failed);
  expect(counted.failed == 1, "session verifier counts failed ops");
}

}  // namespace

int main() {
  test_distances();
  test_slot_reuse();
  test_search_checks();
  test_replay_checks();
  test_session_verifier();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) misbehaved\n", failures);
    return 1;
  }
  std::printf("perfbench checks: every check passes real answers and fails "
              "corrupted ones\n");
  return 0;
}
