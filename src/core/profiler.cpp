#include "core/profiler.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace ferex::core {

namespace {

/// Nonzero key for the calling thread (0 marks a free slot).
std::uint64_t thread_key() noexcept {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1u;
}

/// Linear-interpolated percentile over sorted samples — the same
/// convention as benchjson::percentile_sorted (kept local: src never
/// includes bench headers).
double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// xorshift64 — cheap per-slot RNG for reservoir eviction; only the slot
/// owner thread ever touches its state.
std::uint64_t xorshift64(std::uint64_t x) noexcept {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

LatencyReservoir::LatencyReservoir(std::size_t capacity_per_thread)
    : capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      slots_(kSlots) {
  for (auto& slot : slots_) {
    slot.samples = std::vector<std::atomic<double>>(capacity_);
  }
}

LatencyReservoir::Slot* LatencyReservoir::slot_for_this_thread() noexcept {
  // Per-(thread, reservoir) slot cache. An entry can go stale when a
  // reservoir is destroyed and another is constructed at the same
  // address, so a cache hit is only trusted when the slot still carries
  // this thread's key.
  thread_local std::unordered_map<const LatencyReservoir*, std::size_t>
      slot_cache;
  const std::uint64_t key = thread_key();
  try {
    const auto it = slot_cache.find(this);
    if (it != slot_cache.end() &&
        slots_[it->second].owner.load(std::memory_order_relaxed) == key) {
      return &slots_[it->second];
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      std::uint64_t expected = 0;
      if (slots_[i].owner.compare_exchange_strong(
              expected, key, std::memory_order_relaxed) ||
          expected == key) {
        slots_[i].rng = key;
        slot_cache[this] = i;
        return &slots_[i];
      }
    }
  } catch (...) {
    // Allocation failure in the cache: treat as slot exhaustion.
  }
  return nullptr;
}

void LatencyReservoir::record(double sample_us) noexcept {
  Slot* slot = slot_for_this_thread();
  if (slot == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t n =
      slot->seen.fetch_add(1, std::memory_order_relaxed) + 1;
  double prev_max = slot->max.load(std::memory_order_relaxed);
  while (sample_us > prev_max &&
         !slot->max.compare_exchange_weak(prev_max, sample_us,
                                          std::memory_order_relaxed)) {
  }
  if (n <= capacity_) {
    slot->samples[n - 1].store(sample_us, std::memory_order_relaxed);
    return;
  }
  // Reservoir step: replace a random kept sample with probability
  // capacity / n, so the kept set stays a uniform sample of the stream.
  slot->rng = xorshift64(slot->rng);
  const std::uint64_t r = slot->rng % n;
  if (r < capacity_) {
    slot->samples[r].store(sample_us, std::memory_order_relaxed);
  }
}

LatencyReservoir::Summary LatencyReservoir::summarize() const {
  Summary summary;
  summary.dropped = dropped_.load(std::memory_order_relaxed);
  std::vector<double> merged;
  for (const auto& slot : slots_) {
    if (slot.owner.load(std::memory_order_relaxed) == 0) continue;
    const std::uint64_t seen = slot.seen.load(std::memory_order_relaxed);
    if (seen == 0) continue;
    summary.count += seen;
    summary.max_us =
        std::max(summary.max_us, slot.max.load(std::memory_order_relaxed));
    const std::size_t kept =
        static_cast<std::size_t>(std::min<std::uint64_t>(seen, capacity_));
    for (std::size_t i = 0; i < kept; ++i) {
      merged.push_back(slot.samples[i].load(std::memory_order_relaxed));
    }
  }
  summary.kept = merged.size();
  std::sort(merged.begin(), merged.end());
  summary.p50_us = percentile_sorted(merged, 50.0);
  summary.p95_us = percentile_sorted(merged, 95.0);
  summary.p99_us = percentile_sorted(merged, 99.0);
  return summary;
}

SearchProfile profile_searches(const FerexEngine& engine,
                               std::span<const std::vector<int>> queries,
                               std::size_t histogram_bins) {
  if (!engine.configured() || engine.live_count() == 0) {
    throw std::logic_error("profile_searches: engine not ready");
  }
  if (histogram_bins == 0) {
    throw std::invalid_argument("profile_searches: histogram_bins == 0");
  }
  SearchProfile profile;
  profile.winner_distance_histogram.assign(histogram_bins, 0);
  std::size_t agreements = 0;
  const circuit::SclSolveStats solves_before =
      engine.array()->scl_solve_stats();

  for (const auto& query : queries) {
    const auto currents = engine.row_currents(query);
    const double unit = engine.sense_unit();

    // Sensed winner and margin (removed rows sense +infinity).
    std::size_t winner = 0;
    double best = std::numeric_limits<double>::infinity();
    double second = best;
    for (std::size_t r = 0; r < currents.size(); ++r) {
      if (currents[r] < best) {
        second = best;
        best = currents[r];
        winner = r;
      } else if (currents[r] < second) {
        second = currents[r];
      }
    }
    if (engine.live_count() > 1) {
      profile.margin_units.add((second - best) / unit);
    }

    // Deviation of the winner's sensed current from its nominal distance.
    const int nominal = engine.software_distance(query, winner);
    profile.winner_error_units.add(best / unit - nominal);

    // Does the sensed winner achieve the software minimum over the live
    // rows?
    int min_distance = std::numeric_limits<int>::max();
    for (std::size_t r = 0; r < engine.stored_count(); ++r) {
      if (!engine.row_live(r)) continue;
      min_distance = std::min(min_distance, engine.software_distance(query, r));
    }
    if (nominal == min_distance) ++agreements;

    const auto bin = std::min<std::size_t>(static_cast<std::size_t>(
                                               std::max(nominal, 0)),
                                           histogram_bins - 1);
    ++profile.winner_distance_histogram[bin];
    ++profile.queries;
  }
  profile.argmin_agreement =
      profile.queries > 0
          ? static_cast<double>(agreements) /
                static_cast<double>(profile.queries)
          : 0.0;
  const circuit::SclSolveStats solves_after =
      engine.array()->scl_solve_stats();
  profile.scl_solves = solves_after.solves - solves_before.solves;
  profile.scl_non_converged =
      solves_after.non_converged - solves_before.non_converged;
  profile.scl_mean_iterations =
      profile.scl_solves > 0
          ? static_cast<double>(solves_after.iterations -
                                solves_before.iterations) /
                static_cast<double>(profile.scl_solves)
          : 0.0;
  return profile;
}

}  // namespace ferex::core
