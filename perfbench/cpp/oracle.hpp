// Independent brute-force reference for every answer the benchmark
// checks. Distances come straight from the integer vectors — popcount of
// the XOR for Hamming, |a - b| for L1, (a - b)^2 for L2² — never from the
// encoding tables the system under test builds, so an encoding defect
// cannot hide behind its own reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "ops.hpp"
#include "csp/distance_matrix.hpp"
#include "serve/am_index.hpp"

namespace perfbench {

/// The rows an index should hold, mirrored write by write in the order
/// the index applies them. Slot reuse follows AmIndex::insert: the lowest
/// removed slot first, else a new slot at the end.
class Oracle {
 public:
  Oracle(ferex::csp::DistanceMetric metric, std::size_t dims);

  void set_metric(ferex::csp::DistanceMetric metric) { metric_ = metric; }
  ferex::csp::DistanceMetric metric() const noexcept { return metric_; }

  void store(const std::vector<Vec>& database);
  /// Returns the slot the row lands in.
  std::size_t insert(const Vec& vector);
  void update(std::size_t row, const Vec& vector);
  void remove(std::size_t row);

  bool live(std::size_t row) const {
    return row < live_.size() && live_[row] != 0;
  }
  std::size_t slots() const noexcept { return live_.size(); }
  std::size_t live_count() const noexcept { return live_count_; }

  int distance(const Vec& query, std::size_t row) const;
  /// The k smallest distances over live rows, ascending.
  std::vector<int> smallest(const Vec& query, std::size_t k) const;

 private:
  ferex::csp::DistanceMetric metric_;
  std::size_t dims_;
  std::vector<std::uint8_t> values_;  ///< slots x dims, row-major
  std::vector<std::uint8_t> live_;
  std::size_t live_count_ = 0;
};

// Checks. Each returns "" when the answer is right, else what is wrong.

/// Exact k-NN: k distinct live rows whose reference distances are the k
/// smallest in order, each reporting its reference distance.
std::string check_knn(const Oracle& oracle, const Vec& query, std::size_t k,
                      const ferex::serve::SearchResponse& response);

/// Analog answers: k distinct live rows, each reporting its reference
/// distance (the row choice itself may differ from the exact answer).
std::string check_well_formed(const Oracle& oracle, const Vec& query,
                              std::size_t k,
                              const ferex::serve::SearchResponse& response);

/// True when the best hit's reference distance is the true minimum.
bool top1_agrees(const Oracle& oracle, const Vec& query,
                 const ferex::serve::SearchResponse& response);

/// A write landed on the slot the reference predicted.
std::string check_receipt(std::size_t expected_row,
                          const ferex::serve::WriteReceipt& receipt);

/// Two responses agree bit for bit: rows, banks, sensed currents,
/// margins and distances.
std::string check_identical(const ferex::serve::SearchResponse& live,
                            const ferex::serve::SearchResponse& recovered);

/// Checks every answer of an open-loop search session against `oracle`
/// with check_knn. Counts every search in `out.attempted` and every failed
/// one in `out.failed`. Returns the share of k = 1 answers at the true
/// minimum distance, and fails the run when it is below 1 (nominal
/// answers are exact).
double verify_session(const std::vector<Op>& ops, const SessionReport& report,
                      const Oracle& oracle, Outcome& out);

}  // namespace perfbench
