// Equivalence suite for the flattened search hot path: the optimized
// kernels (cached bias tables + LUT + flat SoA row solve, optional
// intra-query row/bank parallelism) must reproduce the retained
// reference kernels bit for bit across metric x bits x fidelity x clamp
// configurations, and the Newton ScL solve counters must account for
// every solve.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/banked_am.hpp"
#include "circuit/crossbar.hpp"
#include "core/ferex.hpp"
#include "core/profiler.hpp"
#include "data/datasets.hpp"
#include "encode/encoder.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ferex {
namespace {

using csp::DistanceMetric;


struct KernelCase {
  DistanceMetric metric;
  int bits;
  bool clamp;
  bool variation;
};

std::string case_name(const testing::TestParamInfo<KernelCase>& info) {
  const auto& c = info.param;
  return csp::to_string(c.metric) + std::to_string(c.bits) +
         (c.clamp ? "_clamped" : "_unclamped") +
         (c.variation ? "_var" : "_novar");
}

class KernelEquivalence : public testing::TestWithParam<KernelCase> {};

TEST_P(KernelEquivalence, OptimizedSearchMatchesReferenceBitForBit) {
  const auto& c = GetParam();
  const auto dm = csp::DistanceMatrix::make(c.metric, c.bits);
  const auto enc = encode::encode_distance_matrix(dm);
  ASSERT_TRUE(enc.has_value());

  circuit::CrossbarConfig config;
  config.variation.enabled = c.variation;
  config.use_opamp_clamp = c.clamp;
  const device::VoltageLadder ladder(enc->ladder_levels(), 0.2,
                                     1.5 / static_cast<double>(
                                               enc->ladder_levels()));
  // The device pass sums whole groups of four devices two vectors at a
  // time and finishes the rest of the row in a scalar tail. With 2-3
  // FeFETs per cell, dims 1 runs the tail alone, dims 9 the main loop
  // plus a tail, and dims 64 the main loop alone; each is compared.
  for (const std::size_t dims : {1u, 9u, 64u}) {
    SCOPED_TRACE("dims " + std::to_string(dims));
    const std::size_t per_row = dims * enc->fefets_per_cell();
    if (dims == 1) {
      EXPECT_LT(per_row, 4u);
    } else if (dims == 9) {
      EXPECT_NE(per_row % 4, 0u);
    }
    util::Rng rng(7);
    const std::size_t rows = 12;
    circuit::CrossbarArray array(rows, dims, *enc, ladder, config, rng);
    const auto db = data::random_int_vectors(
        rows, dims, static_cast<int>(enc->stored_count()), 11);
    for (std::size_t r = 0; r < rows; ++r) array.program_row(r, db[r]);

    const auto queries = data::random_int_vectors(
        8, dims, static_cast<int>(enc->search_count()), 13);
    for (const auto& q : queries) {
      const auto reference = array.search_reference(q);
      const auto optimized = array.search(q);
      const auto optimized_parallel = array.search(q, /*parallel_rows=*/true);
      ASSERT_EQ(reference.size(), rows);
      for (std::size_t r = 0; r < rows; ++r) {
        // Exact double equality: the kernels share the per-cell
        // expression, the lane order of the sum and the Newton step, so
        // any drift is a real table/gather/vector bug.
        EXPECT_EQ(optimized[r], reference[r]) << "row " << r;
        EXPECT_EQ(optimized_parallel[r], reference[r]) << "row " << r;
      }

      const auto nominal_ref = array.nominal_distances_reference(q);
      const auto nominal_opt = array.nominal_distances(q);
      EXPECT_EQ(nominal_opt, nominal_ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricBitsClamp, KernelEquivalence,
    testing::Values(KernelCase{DistanceMetric::kHamming, 1, true, true},
                    KernelCase{DistanceMetric::kHamming, 2, true, true},
                    KernelCase{DistanceMetric::kHamming, 2, false, true},
                    KernelCase{DistanceMetric::kHamming, 2, true, false},
                    KernelCase{DistanceMetric::kManhattan, 1, true, true},
                    KernelCase{DistanceMetric::kManhattan, 2, true, true},
                    KernelCase{DistanceMetric::kManhattan, 2, false, false}),
    case_name);

TEST(HotPathEncoding, NominalCurrentLutMatchesReference) {
  for (const auto metric :
       {DistanceMetric::kHamming, DistanceMetric::kManhattan}) {
    const auto dm = csp::DistanceMatrix::make(metric, 2);
    const auto enc = encode::encode_distance_matrix(dm);
    ASSERT_TRUE(enc.has_value());
    for (std::size_t sch = 0; sch < enc->search_count(); ++sch) {
      const auto row = enc->nominal_currents(sch);
      ASSERT_EQ(row.size(), enc->stored_count());
      for (std::size_t sto = 0; sto < enc->stored_count(); ++sto) {
        EXPECT_EQ(enc->nominal_current(sch, sto),
                  enc->nominal_current_reference(sch, sto));
        EXPECT_EQ(row[sto], enc->nominal_current_reference(sch, sto));
      }
    }
  }
}

core::FerexOptions engine_options(core::SearchFidelity fidelity,
                                  std::size_t intra_min_devices) {
  core::FerexOptions options;
  options.fidelity = fidelity;
  options.intra_query_min_devices = intra_min_devices;
  return options;
}

TEST(HotPathEngine, IntraQueryParallelSearchIsDeterministic) {
  const auto db = data::random_int_vectors(24, 16, 4, 3);
  const auto queries = data::random_int_vectors(12, 16, 4, 5);
  for (const auto fidelity :
       {core::SearchFidelity::kCircuit, core::SearchFidelity::kNominal}) {
    // `1` forces the row fan-out for every query (when >1 hw thread);
    // `0` disables it. Results must not depend on the schedule.
    serve::EngineIndex serial(engine_options(fidelity, 0));
    serve::EngineIndex fanned(engine_options(fidelity, 1));
    for (auto* index : {&serial, &fanned}) {
      index->configure(DistanceMetric::kManhattan, 2);
      index->store(db);
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto a = serial.engine().search_hits_at(queries[i], 1, i).front();
      const auto b = fanned.engine().search_hits_at(queries[i], 1, i).front();
      EXPECT_EQ(a.global_row, b.global_row);
      EXPECT_EQ(a.sensed_current_a, b.sensed_current_a);
      EXPECT_EQ(a.margin_a, b.margin_a);
      EXPECT_EQ(a.nominal_distance, b.nominal_distance);
    }
    // Small batch (< pool width on multicore hosts): exercises the
    // serial-queries + fanned-rows schedule against the fanned-queries
    // one.
    std::vector<serve::SearchRequest> requests;
    for (const auto& q : queries) requests.emplace_back(q);
    const auto batch_a = serial.search_batch(requests);
    const auto batch_b = fanned.search_batch(requests);
    ASSERT_EQ(batch_a.size(), batch_b.size());
    for (std::size_t i = 0; i < batch_a.size(); ++i) {
      EXPECT_EQ(batch_a[i].best().global_row, batch_b[i].best().global_row);
      EXPECT_EQ(batch_a[i].best().sensed_current_a,
                batch_b[i].best().sensed_current_a);
    }
  }
}

TEST(HotPathEngine, CompositeCodecPathMatchesReferenceKernel) {
  core::FerexEngine engine(engine_options(core::SearchFidelity::kCircuit, 1));
  engine.configure_composite(DistanceMetric::kHamming, 4);
  const auto db = data::random_int_vectors(10, 6, 16, 17);
  engine.store(db);
  ASSERT_NE(engine.codec(), nullptr);
  const auto queries = data::random_int_vectors(6, 6, 16, 19);
  for (const auto& q : queries) {
    const auto sensed = engine.row_currents(q);
    const auto reference =
        engine.array()->search_reference(engine.codec()->expand(q));
    ASSERT_EQ(sensed.size(), reference.size());
    for (std::size_t r = 0; r < sensed.size(); ++r) {
      EXPECT_EQ(sensed[r], reference[r]);
    }
  }
}

TEST(HotPathEngine, BankedSearchUnaffectedByBankFanOut) {
  const auto db = data::random_int_vectors(40, 12, 4, 23);
  const auto queries = data::random_int_vectors(9, 12, 4, 29);
  arch::BankedOptions options;
  options.bank_rows = 8;  // 5 banks
  serve::BankedIndex banked(options);
  banked.configure(DistanceMetric::kHamming, 2);
  banked.store(db);
  arch::BankedAm sequential(options);
  sequential.configure(DistanceMetric::kHamming, 2);
  sequential.store(db);

  // Batch (fans queries or banks depending on pool width) vs one-by-one
  // single search (fans banks): must agree bit for bit.
  std::vector<serve::SearchRequest> requests;
  for (const auto& q : queries) requests.emplace_back(q);
  const auto batch = banked.search_batch(requests);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto single = sequential.search_at(queries[i], i);
    EXPECT_EQ(batch[i].best().global_row, single.global_row);
    EXPECT_EQ(batch[i].best().bank, single.bank);
    EXPECT_EQ(batch[i].best().sensed_current_a, single.sensed_current_a);
  }
}

TEST(SclSolveCounters, EverySolveIsAccounted) {
  const std::size_t rows = 10, dims = 8;
  core::FerexEngine engine(engine_options(core::SearchFidelity::kCircuit, 0));
  engine.configure(DistanceMetric::kHamming, 2);
  engine.store(data::random_int_vectors(rows, dims, 4, 31));
  const auto* array = engine.array();
  ASSERT_NE(array, nullptr);
  array->reset_scl_solve_stats();

  const auto queries = data::random_int_vectors(5, dims, 4, 37);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    (void)engine.search_hits_at(queries[i], 1, i);
  }
  const auto stats = array->scl_solve_stats();
  EXPECT_EQ(stats.solves, rows * queries.size());
  // The default clamp's residual impedance is a few hundred ohms: the
  // Newton solve must run (>= 1 pass after the seed per solve), converge,
  // and stay near its two passes per solve — the damped fixed point it
  // replaced took about 15.
  EXPECT_GE(stats.iterations, stats.solves);
  EXPECT_LE(stats.iterations, 4 * stats.solves);
  EXPECT_EQ(stats.non_converged, 0u);

  array->reset_scl_solve_stats();
  const auto zeroed = array->scl_solve_stats();
  EXPECT_EQ(zeroed.solves, 0u);
  EXPECT_EQ(zeroed.iterations, 0u);
  EXPECT_EQ(zeroed.non_converged, 0u);
}

TEST(SclSolveCounters, NominalFidelityRunsNoSolves) {
  core::FerexEngine engine(engine_options(core::SearchFidelity::kNominal, 0));
  engine.configure(DistanceMetric::kHamming, 2);
  engine.store(data::random_int_vectors(6, 8, 4, 41));
  engine.array()->reset_scl_solve_stats();
  for (const auto& q : data::random_int_vectors(4, 8, 4, 43)) {
    (void)engine.search_hits_at(q, 1, 0);
  }
  EXPECT_EQ(engine.array()->scl_solve_stats().solves, 0u);
}

TEST(SclSolveCounters, ProfilerSurfacesConvergence) {
  core::FerexEngine engine(engine_options(core::SearchFidelity::kCircuit, 0));
  engine.configure(DistanceMetric::kHamming, 2);
  const std::size_t rows = 8;
  engine.store(data::random_int_vectors(rows, 8, 4, 47));
  const auto queries = data::random_int_vectors(6, 8, 4, 53);
  const auto profile = core::profile_searches(engine, queries);
  EXPECT_EQ(profile.scl_solves, rows * queries.size());
  EXPECT_GE(profile.scl_mean_iterations, 1.0);
  EXPECT_LE(profile.scl_mean_iterations, 60.0);
  EXPECT_EQ(profile.scl_non_converged, 0u);
}

}  // namespace
}  // namespace ferex
