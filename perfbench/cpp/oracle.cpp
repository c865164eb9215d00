#include "oracle.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>

namespace perfbench {

using ferex::csp::DistanceMetric;
using ferex::serve::Hit;
using ferex::serve::SearchResponse;

Oracle::Oracle(DistanceMetric metric, std::size_t dims)
    : metric_(metric), dims_(dims) {}

void Oracle::store(const std::vector<Vec>& database) {
  values_.clear();
  live_.assign(database.size(), 1);
  live_count_ = database.size();
  values_.reserve(database.size() * dims_);
  for (const Vec& row : database) {
    for (const int v : row) values_.push_back(static_cast<std::uint8_t>(v));
  }
}

std::size_t Oracle::insert(const Vec& vector) {
  const auto freed = std::find(live_.begin(), live_.end(), 0);
  const auto row = static_cast<std::size_t>(freed - live_.begin());
  if (freed == live_.end()) {
    live_.push_back(0);
    values_.resize(values_.size() + dims_);
  }
  update(row, vector);
  return row;
}

void Oracle::update(std::size_t row, const Vec& vector) {
  if (row >= live_.size() || vector.size() != dims_) {
    throw std::out_of_range("Oracle::update");
  }
  for (std::size_t d = 0; d < dims_; ++d) {
    values_[row * dims_ + d] = static_cast<std::uint8_t>(vector[d]);
  }
  if (live_[row] == 0) ++live_count_;
  live_[row] = 1;
}

void Oracle::remove(std::size_t row) {
  if (!live(row)) throw std::logic_error("Oracle::remove: row not live");
  live_[row] = 0;
  --live_count_;
}

namespace {

template <typename Term>
int sum_terms(const Vec& query, const std::uint8_t* row, std::size_t dims,
              Term term) {
  int sum = 0;
  for (std::size_t d = 0; d < dims; ++d) sum += term(query[d], int{row[d]});
  return sum;
}

}  // namespace

int Oracle::distance(const Vec& query, std::size_t row) const {
  const std::uint8_t* v = values_.data() + row * dims_;
  switch (metric_) {
    case DistanceMetric::kHamming:
      return sum_terms(query, v, dims_, [](int a, int b) {
        return std::popcount(static_cast<unsigned>(a ^ b));
      });
    case DistanceMetric::kManhattan:
      return sum_terms(query, v, dims_,
                       [](int a, int b) { return std::abs(a - b); });
    case DistanceMetric::kEuclideanSquared:
      return sum_terms(query, v, dims_,
                       [](int a, int b) { return (a - b) * (a - b); });
  }
  throw std::logic_error("Oracle: unknown metric");
}

std::vector<int> Oracle::smallest(const Vec& query, std::size_t k) const {
  std::vector<int> all;
  all.reserve(live_count_);
  for (std::size_t r = 0; r < live_.size(); ++r) {
    if (live_[r] != 0) all.push_back(distance(query, r));
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end());
  all.resize(k);
  return all;
}

namespace {

/// Shared shape checks: k hits, distinct live rows, each hit's reported
/// distance equal to the reference distance of its row.
std::string check_hits(const Oracle& oracle, const Vec& query, std::size_t k,
                       const SearchResponse& response,
                       std::vector<int>* distances) {
  if (response.hits.size() != k) {
    return "expected " + std::to_string(k) + " hits, got " +
           std::to_string(response.hits.size());
  }
  std::set<std::size_t> seen;
  for (const Hit& hit : response.hits) {
    if (!oracle.live(hit.global_row)) {
      return "hit row " + std::to_string(hit.global_row) + " is not live";
    }
    if (!seen.insert(hit.global_row).second) {
      return "hit row " + std::to_string(hit.global_row) + " repeats";
    }
    const int d = oracle.distance(query, hit.global_row);
    if (hit.nominal_distance != d) {
      return "row " + std::to_string(hit.global_row) + " reports distance " +
             std::to_string(hit.nominal_distance) + ", reference " +
             std::to_string(d);
    }
    distances->push_back(d);
  }
  return "";
}

}  // namespace

std::string check_knn(const Oracle& oracle, const Vec& query, std::size_t k,
                      const SearchResponse& response) {
  std::vector<int> got;
  std::string why = check_hits(oracle, query, k, response, &got);
  if (!why.empty()) return why;
  const std::vector<int> want = oracle.smallest(query, k);
  for (std::size_t i = 0; i < k; ++i) {
    if (got[i] != want[i]) {
      return "hit " + std::to_string(i) + " at distance " +
             std::to_string(got[i]) + ", reference k-NN has " +
             std::to_string(want[i]);
    }
  }
  return "";
}

std::string check_well_formed(const Oracle& oracle, const Vec& query,
                              std::size_t k, const SearchResponse& response) {
  std::vector<int> got;
  return check_hits(oracle, query, k, response, &got);
}

bool top1_agrees(const Oracle& oracle, const Vec& query,
                 const SearchResponse& response) {
  if (response.hits.empty() || !oracle.live(response.hits[0].global_row)) {
    return false;
  }
  return oracle.distance(query, response.hits[0].global_row) ==
         oracle.smallest(query, 1).front();
}

std::string check_receipt(std::size_t expected_row,
                          const ferex::serve::WriteReceipt& receipt) {
  if (receipt.global_row == expected_row) return "";
  return "write landed on row " + std::to_string(receipt.global_row) +
         ", reference slot " + std::to_string(expected_row);
}

std::string check_identical(const SearchResponse& live,
                            const SearchResponse& recovered) {
  if (live.hits.size() != recovered.hits.size()) return "hit counts differ";
  for (std::size_t i = 0; i < live.hits.size(); ++i) {
    const Hit& a = live.hits[i];
    const Hit& b = recovered.hits[i];
    // Bit comparison: NaN-safe and distinguishes -0.0, as a replay must.
    const bool same =
        a.global_row == b.global_row && a.bank == b.bank &&
        a.nominal_distance == b.nominal_distance &&
        std::memcmp(&a.sensed_current_a, &b.sensed_current_a,
                    sizeof(double)) == 0 &&
        std::memcmp(&a.margin_a, &b.margin_a, sizeof(double)) == 0;
    if (!same) return "hit " + std::to_string(i) + " differs after recovery";
  }
  return "";
}

double verify_session(const std::vector<Op>& ops, const SessionReport& report,
                      const Oracle& oracle, Outcome& out) {
  std::size_t top1_total = 0;
  std::size_t top1_hits = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const OpResult& result = report.results[i];
    ++out.attempted;
    if (result.failed) {
      ++out.failed;
      continue;
    }
    const std::string why = check_knn(oracle, op.vector, op.k, result.response);
    if (op.k == 1) {
      ++top1_total;
      top1_hits += top1_agrees(oracle, op.vector, result.response) ? 1 : 0;
    }
    if (!why.empty()) out.fail_check("op " + std::to_string(i) + ": " + why);
  }
  const double share = top1_total > 0 ? static_cast<double>(top1_hits) /
                                            static_cast<double>(top1_total)
                                      : 0.0;
  if (share != 1.0) out.fail_check("nominal top-1 agreement below 1");
  return share;
}

}  // namespace perfbench
