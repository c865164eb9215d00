#include "circuit/crossbar.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "device/preisach.hpp"
#include "util/parallel.hpp"

namespace ferex::circuit {

namespace {

// The cell model and its derivative with respect to the ScL potential
// v, with the subthreshold exponential in factored form (see the header
// comment): gate_factor = exp(Vgs*a), vth_factor = exp(-Vth*a),
// scl_factor = exp(-v*a). The current is
//
//   0                                    when Vds - v <= 0, else
//   min(fet, (Vds - v) / R),   fet = Isat                    (Vgs - v >= Vth)
//                                    max(Isat*10^..., leak)  (otherwise)
//
// and dI/dv is -a*I in subthreshold, -1/R when resistance-limited and 0
// when saturated, on the leak floor or with no drain bias. The scalar
// form below and the 2-wide form in cell_pair() evaluate the same
// operations in the same order, with every min/max/branch written as a
// select, so both produce identical bits; only how the factors are
// obtained differs between the kernels.
struct CellSample {
  double current_a;
  double slope_a_per_v;
};

inline CellSample cell_model(double vgs_eff_v, double vds_eff_v, double vth_v,
                             double inv_r, double gate_factor,
                             double vth_factor, double scl_factor,
                             double isat_a, double min_leak_a,
                             double neg_alpha) {
  const double subvt = isat_a * ((gate_factor * vth_factor) * scl_factor);
  const bool on = vgs_eff_v >= vth_v;
  const bool floored = subvt < min_leak_a;
  const double fet = on ? isat_a : (floored ? min_leak_a : subvt);
  const double fet_slope = (on || floored) ? 0.0 : neg_alpha * subvt;
  const double limit = vds_eff_v * inv_r;
  const bool res_limited = limit < fet;
  const bool live = vds_eff_v > 0.0;
  return {live ? (res_limited ? limit : fet) : 0.0,
          live ? (res_limited ? -inv_r : fet_slope) : 0.0};
}

// Row sums of current and dI/dv in a fixed 4-lane order: lane l sums
// devices j = l (mod 4) of the row's largest multiple-of-4 prefix, the
// remaining tail devices go into lane 0 in order, and the lanes combine
// as (l0 + l1) + (l2 + l3). Both kernels sum through this order, which
// is what lets the 2-wide pass vectorize and still match the reference
// bit for bit.
struct LaneSums {
  double current[4] = {0.0, 0.0, 0.0, 0.0};
  double slope[4] = {0.0, 0.0, 0.0, 0.0};

  void add(std::size_t lane, CellSample cell) {
    current[lane] += cell.current_a;
    slope[lane] += cell.slope_a_per_v;
  }
  double total_current() const {
    return (current[0] + current[1]) + (current[2] + current[3]);
  }
  double total_slope() const {
    return (slope[0] + slope[1]) + (slope[2] + slope[3]);
  }
};

inline std::size_t lane_of(std::size_t j, std::size_t main_end) {
  return j < main_end ? j % 4 : 0;
}

// Two doubles per vector: the SSE2 baseline every x86-64 target has (and
// one NEON register on AArch64), so no -march flag is needed. Written
// with explicit vector types because GCC's auto-vectorizer rejects the
// select form ("control flow in loop") under the default
// -ftrapping-math, and scalar "branchless" code compiles to branches
// that mispredict on the mixed on/off/floored cells of a row.
typedef double v2df __attribute__((vector_size(16)));

inline v2df load2(const double* p) {
  v2df v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline v2df splat(double x) { return v2df{x, x}; }

// The flat row arrays one device pass reads: query-dependent biases
// (shared by every row) and the row's own programmed devices.
struct RowSpans {
  const double* vgs;
  const double* vds;
  const double* gate_factor;
  const double* vth;
  const double* inv_r;
  const double* vth_factor;
  std::size_t devices;
};

struct CellConstants {
  double isat_a;
  double min_leak_a;
  double neg_alpha;
};

// cell_model() for devices j and j + 1, accumulated into the lane pair.
// The vector ?: selects lane by lane on the comparison masks.
inline void cell_pair(const RowSpans& row, const CellConstants& k,
                      std::size_t j, v2df v_scl, v2df scl_factor,
                      v2df& current, v2df& slope) {
  const v2df zero = splat(0.0);
  const v2df isat = splat(k.isat_a);
  const v2df min_leak = splat(k.min_leak_a);
  const v2df vgs_eff = load2(row.vgs + j) - v_scl;
  const v2df vds_eff = load2(row.vds + j) - v_scl;
  const v2df inv_r = load2(row.inv_r + j);
  const v2df subvt =
      isat * ((load2(row.gate_factor + j) * load2(row.vth_factor + j)) *
              scl_factor);
  const auto on = vgs_eff >= load2(row.vth + j);
  const auto floored = subvt < min_leak;
  const v2df fet = on ? isat : (floored ? min_leak : subvt);
  const v2df fet_slope = (on | floored) ? zero : splat(k.neg_alpha) * subvt;
  const v2df limit = vds_eff * inv_r;
  const auto res_limited = limit < fet;
  const auto live = vds_eff > zero;
  current += live ? (res_limited ? limit : fet) : zero;
  slope += live ? (res_limited ? -inv_r : fet_slope) : zero;
}

// One device pass over a row at ScL potential v_scl: the row current and
// its derivative, summed in LaneSums order.
inline LaneSums device_pass(const RowSpans& row, const CellConstants& k,
                            double v_scl, double scl_factor) {
  const std::size_t main_end = row.devices - row.devices % 4;
  const v2df v = splat(v_scl);
  const v2df f = splat(scl_factor);
  v2df current01 = splat(0.0), current23 = splat(0.0);
  v2df slope01 = splat(0.0), slope23 = splat(0.0);
  for (std::size_t j = 0; j < main_end; j += 4) {
    cell_pair(row, k, j, v, f, current01, slope01);
    cell_pair(row, k, j + 2, v, f, current23, slope23);
  }
  LaneSums lanes;
  lanes.current[0] = current01[0];
  lanes.current[1] = current01[1];
  lanes.current[2] = current23[0];
  lanes.current[3] = current23[1];
  lanes.slope[0] = slope01[0];
  lanes.slope[1] = slope01[1];
  lanes.slope[2] = slope23[0];
  lanes.slope[3] = slope23[1];
  for (std::size_t j = main_end; j < row.devices; ++j) {
    lanes.add(0, cell_model(row.vgs[j] - v_scl, row.vds[j] - v_scl,
                            row.vth[j], row.inv_r[j], row.gate_factor[j],
                            row.vth_factor[j], scl_factor, k.isat_a,
                            k.min_leak_a, k.neg_alpha));
  }
  return lanes;
}

// Gate factors grow as exp(Vgs * ln10/SS); clamp the exponent so extreme
// (sub-6 mV/dec) swing configurations saturate instead of producing inf
// (which would turn inf * underflowed-vth_factor into NaN).
inline double gate_factor_for(double vgs_v, double alpha) {
  return std::exp(std::min(vgs_v * alpha, 700.0));
}

// The ScL solve: the root of f(v) = v - R_src * I(v). I never rises with
// v, so f' = 1 - R_src * dI/dv >= 1 and the root is unique and bracketed
// by [0, R_src * I(0)]. Newton converges in about two passes; the
// bracket falls back to the damped step (v + R_src * I) / 2 whenever a
// Newton step would leave it, which keeps the unclamped ablation (where
// R_src * |dI/dv| is large and the kinks of the cell model are sharp)
// convergent.
constexpr int kMaxSclIterations = 60;
constexpr double kSclToleranceV = 1e-7;

}  // namespace

CrossbarArray::CrossbarArray(std::size_t rows, std::size_t dims,
                             const encode::CellEncoding& encoding,
                             const device::VoltageLadder& ladder,
                             CrossbarConfig config, util::Rng& rng)
    : rows_(rows),
      dims_(dims),
      fefets_per_cell_(encoding.fefets_per_cell()),
      encoding_(encoding),
      ladder_(ladder),
      config_(config) {
  validate_geometry();
  const std::size_t devices = rows * dims * fefets_per_cell_;
  const device::VariationModel variation(config_.variation);
  vth_offsets_.resize(devices);
  resistances_.resize(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    vth_offsets_[d] = variation.sample_vth_offset(rng);
    resistances_[d] =
        config_.cell.resistance_ohm * variation.sample_r_multiplier(rng);
  }
  init_derived_state();
}

CrossbarArray::CrossbarArray(std::size_t rows, std::size_t dims,
                             const encode::CellEncoding& encoding,
                             const device::VoltageLadder& ladder,
                             CrossbarConfig config,
                             std::vector<double> vth_offsets,
                             std::vector<double> resistances)
    : rows_(rows),
      dims_(dims),
      fefets_per_cell_(encoding.fefets_per_cell()),
      encoding_(encoding),
      ladder_(ladder),
      config_(config),
      vth_offsets_(std::move(vth_offsets)),
      resistances_(std::move(resistances)) {
  validate_geometry();
  const std::size_t devices = rows * dims * fefets_per_cell_;
  if (vth_offsets_.size() != devices || resistances_.size() != devices) {
    throw std::invalid_argument(
        "CrossbarArray: fabrication arrays do not match the geometry");
  }
  init_derived_state();
}

void CrossbarArray::validate_geometry() const {
  if (rows_ == 0 || dims_ == 0) {
    throw std::invalid_argument("CrossbarArray: empty geometry");
  }
  if (ladder_.levels() < encoding_.ladder_levels()) {
    throw std::invalid_argument(
        "CrossbarArray: ladder has fewer levels than the encoding needs");
  }
  if (ladder_.vth(ladder_.levels() - 1) > config_.fet.vth_max_v) {
    throw std::invalid_argument(
        "CrossbarArray: ladder's highest Vth exceeds the device's "
        "programmable window — use a smaller step");
  }
}

void CrossbarArray::init_derived_state() {
  const std::size_t devices = rows_ * dims_ * fefets_per_cell_;
  // Erased state: highest threshold (nothing conducts until programmed).
  vth_.assign(devices, config_.fet.vth_max_v);
  stored_values_.assign(rows_ * dims_, 0);
  live_.assign(rows_, 1);
  live_rows_ = rows_;

  subvt_alpha_ = std::log(10.0) / (config_.fet.ss_mv_per_dec * 1e-3);
  inv_r_.resize(devices);
  vth_factor_.resize(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    inv_r_[d] = 1.0 / resistances_[d];
    vth_factor_[d] = std::exp(-vth_[d] * subvt_alpha_);
  }

  // Per-(search value, fefet) bias tables: search() copies rows out of
  // these instead of chasing encoding/ladder indirections per query.
  const std::size_t search_entries =
      encoding_.search_count() * fefets_per_cell_;
  bias_vgs_.resize(search_entries);
  bias_vds_.resize(search_entries);
  bias_gate_factor_.resize(search_entries);
  for (std::size_t sch = 0; sch < encoding_.search_count(); ++sch) {
    for (std::size_t i = 0; i < fefets_per_cell_; ++i) {
      const std::size_t e = sch * fefets_per_cell_ + i;
      const int level = encoding_.search_level(sch, i);
      bias_vgs_[e] = ladder_.vsearch(static_cast<std::size_t>(level));
      bias_vds_[e] = config_.cell.vds_unit_v * encoding_.vds_multiple(sch, i);
      bias_gate_factor_[e] = gate_factor_for(bias_vgs_[e], subvt_alpha_);
    }
  }
}

void CrossbarArray::program_row(std::size_t row, std::span<const int> values) {
  if (row >= rows_) throw std::out_of_range("program_row: row");
  if (values.size() != dims_) {
    throw std::invalid_argument("program_row: values.size() != dims");
  }
  for (int v : values) {
    if (v < 0 || static_cast<std::size_t>(v) >= encoding_.stored_count()) {
      throw std::out_of_range("program_row: element value out of range");
    }
  }
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    const int value = values[dim];
    stored_values_[row * dims_ + dim] = value;
    for (std::size_t i = 0; i < fefets_per_cell_; ++i) {
      const int level = encoding_.store_level(static_cast<std::size_t>(value), i);
      const double target = ladder_.vth(static_cast<std::size_t>(level));
      const std::size_t dev = device_index(row, dim, i);
      double programmed = target;
      if (config_.use_preisach_programming) {
        device::PreisachParams pp;
        pp.vth_low_v = config_.fet.vth_min_v;
        pp.vth_high_v = config_.fet.vth_max_v;
        device::PreisachFeFet fet(pp);
        fet.program_to_vth(target, config_.program_tolerance_v);
        programmed = fet.vth();
      }
      // D2D variation perturbs where the device lands around the target.
      vth_[dev] = programmed + vth_offsets_[dev];
      vth_factor_[dev] = std::exp(-vth_[dev] * subvt_alpha_);
    }
  }
}

void CrossbarArray::append_row(std::span<const int> values, util::Rng& rng) {
  // program_row validates values again, but only after the per-device
  // arrays have grown — check here first so a bad vector cannot leave a
  // half-appended erased row behind.
  if (values.size() != dims_) {
    throw std::invalid_argument("append_row: values.size() != dims");
  }
  for (int v : values) {
    if (v < 0 || static_cast<std::size_t>(v) >= encoding_.stored_count()) {
      throw std::out_of_range("append_row: element value out of range");
    }
  }
  const std::size_t per_row = dims_ * fefets_per_cell_;
  const std::size_t old_devices = rows_ * per_row;
  const device::VariationModel variation(config_.variation);
  vth_offsets_.resize(old_devices + per_row);
  resistances_.resize(old_devices + per_row);
  // Same draw order as the constructor (Vth offset then R multiplier per
  // device, devices in row-major order) — appending continues the exact
  // variation sequence a larger construction would have drawn.
  for (std::size_t d = old_devices; d < old_devices + per_row; ++d) {
    vth_offsets_[d] = variation.sample_vth_offset(rng);
    resistances_[d] =
        config_.cell.resistance_ohm * variation.sample_r_multiplier(rng);
  }
  vth_.resize(old_devices + per_row, config_.fet.vth_max_v);
  inv_r_.resize(old_devices + per_row);
  vth_factor_.resize(old_devices + per_row);
  for (std::size_t d = old_devices; d < old_devices + per_row; ++d) {
    inv_r_[d] = 1.0 / resistances_[d];
    vth_factor_[d] = std::exp(-vth_[d] * subvt_alpha_);
  }
  stored_values_.resize((rows_ + 1) * dims_, 0);
  live_.push_back(1);
  ++live_rows_;
  ++rows_;
  program_row(rows_ - 1, values);
}

void CrossbarArray::erase_row(std::size_t row) {
  if (row >= rows_) throw std::out_of_range("erase_row: row");
  if (live_[row] == 0) {
    throw std::logic_error("erase_row: row already erased");
  }
  // Back to the exact constructor state: vth_max with no D2D offset (the
  // offset perturbs where programming lands, not the saturated erased
  // polarization), so an erase-then-reprogram sequence is bit-identical
  // to programming a never-touched slot.
  const std::size_t per_row = dims_ * fefets_per_cell_;
  const std::size_t base = row * per_row;
  for (std::size_t j = 0; j < per_row; ++j) {
    vth_[base + j] = config_.fet.vth_max_v;
    vth_factor_[base + j] = std::exp(-vth_[base + j] * subvt_alpha_);
  }
  live_[row] = 0;
  --live_rows_;
}

void CrossbarArray::overwrite_row(std::size_t row,
                                  std::span<const int> values) {
  // program_row validates the index and every value before its first
  // write, so a throwing overwrite leaves the slot (and its liveness)
  // untouched.
  program_row(row, values);
  if (live_[row] == 0) {
    live_[row] = 1;
    ++live_rows_;
  }
}

template <typename Pass>
CrossbarArray::RowSolve CrossbarArray::solve_scl(double source_res,
                                                 double alpha,
                                                 const Pass& pass) {
  RowSolve solve;
  LaneSums at = pass(0.0, 1.0);
  if (source_res <= 0.0) {
    solve.current_a = at.total_current();
    return solve;
  }
  double v_scl = 0.0;
  double lo = 0.0;
  double hi = source_res * at.total_current();
  solve.converged = false;
  for (int iter = 0; iter < kMaxSclIterations; ++iter) {
    const double target = source_res * at.total_current();
    const double residual = v_scl - target;
    if (residual < 0.0) {
      lo = v_scl;
    } else {
      hi = v_scl;
    }
    const double newton =
        v_scl - residual / (1.0 - source_res * at.total_slope());
    const double v_next = newton >= lo && newton <= hi
                              ? newton
                              : 0.5 * (v_scl + target);
    // exp(-Vscl*a) once per pass covers the whole row.
    at = pass(v_next, std::exp(-v_next * alpha));
    ++solve.iterations;
    if (std::abs(v_next - v_scl) < kSclToleranceV) {
      solve.converged = true;
      break;
    }
    v_scl = v_next;
  }
  solve.current_a = at.total_current();
  return solve;
}

CrossbarArray::RowSolve CrossbarArray::solve_row(
    std::size_t row, std::span<const double> vgs, std::span<const double> vds,
    std::span<const double> gate_factors) const {
  const std::size_t per_row = dims_ * fefets_per_cell_;
  const std::size_t base = row * per_row;
  const RowSpans spans{vgs.data(),           vds.data(),
                       gate_factors.data(),  vth_.data() + base,
                       inv_r_.data() + base, vth_factor_.data() + base,
                       per_row};
  const CellConstants constants{config_.fet.isat_a, config_.fet.min_leak_a,
                                -subvt_alpha_};
  return solve_scl(source_res_ohm(), subvt_alpha_,
                   [&](double v_scl, double scl_factor) {
                     return device_pass(spans, constants, v_scl, scl_factor);
                   });
}

std::vector<double> CrossbarArray::search(std::span<const int> query,
                                          bool parallel_rows) const {
  if (query.size() != dims_) {
    throw std::invalid_argument("search: query.size() != dims");
  }
  // Resolve the per-device-column biases by copying rows of the cached
  // tables — no encoding/ladder indirection on the query path.
  const std::size_t per_row = dims_ * fefets_per_cell_;
  std::vector<double> vgs(per_row);
  std::vector<double> vds(per_row);
  std::vector<double> gate_factors(per_row);
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    const int qv = query[dim];
    if (qv < 0 || static_cast<std::size_t>(qv) >= encoding_.search_count()) {
      throw std::out_of_range("search: query value out of range");
    }
    const std::size_t src = static_cast<std::size_t>(qv) * fefets_per_cell_;
    const std::size_t dst = dim * fefets_per_cell_;
    std::copy_n(bias_vgs_.data() + src, fefets_per_cell_, vgs.data() + dst);
    std::copy_n(bias_vds_.data() + src, fefets_per_cell_, vds.data() + dst);
    std::copy_n(bias_gate_factor_.data() + src, fefets_per_cell_,
                gate_factors.data() + dst);
  }
  std::vector<double> currents(rows_);
  std::vector<RowSolve> solves(rows_);
  const auto run_row = [&](std::size_t row) {
    if (live_[row] == 0) {
      // Erased row: branch disabled in the post-decoder. No solve runs
      // (and none is counted); the +infinity sentinel can never win a
      // minimum-current comparison even for callers that ignore masks.
      currents[row] = std::numeric_limits<double>::infinity();
      return;
    }
    solves[row] = solve_row(row, vgs, vds, gate_factors);
    currents[row] = solves[row].current_a;
  };
  if (parallel_rows && rows_ > 1) {
    util::parallel_for(rows_, run_row);
  } else {
    for (std::size_t row = 0; row < rows_; ++row) run_row(row);
  }
  // One batched counter update per query, so parallel row solves never
  // contend on the shared atomics.
  std::uint64_t iterations = 0;
  std::uint64_t non_converged = 0;
  for (const auto& solve : solves) {
    iterations += static_cast<std::uint64_t>(solve.iterations);
    non_converged += solve.converged ? 0 : 1;
  }
  stat_solves_.fetch_add(live_rows_, std::memory_order_relaxed);
  stat_iterations_.fetch_add(iterations, std::memory_order_relaxed);
  stat_non_converged_.fetch_add(non_converged, std::memory_order_relaxed);
  return currents;
}

std::vector<double> CrossbarArray::search_reference(
    std::span<const int> query) const {
  if (query.size() != dims_) {
    throw std::invalid_argument("search: query.size() != dims");
  }
  const std::size_t per_row = dims_ * fefets_per_cell_;
  std::vector<double> vgs(per_row, 0.0);
  std::vector<double> vds(per_row, 0.0);
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    const int qv = query[dim];
    if (qv < 0 || static_cast<std::size_t>(qv) >= encoding_.search_count()) {
      throw std::out_of_range("search: query value out of range");
    }
    for (std::size_t i = 0; i < fefets_per_cell_; ++i) {
      const std::size_t col = dim * fefets_per_cell_ + i;
      const int level = encoding_.search_level(static_cast<std::size_t>(qv), i);
      vgs[col] = ladder_.vsearch(static_cast<std::size_t>(level));
      vds[col] = config_.cell.vds_unit_v *
                 encoding_.vds_multiple(static_cast<std::size_t>(qv), i);
    }
  }
  // Every factor re-derived from first principles, per cell, per pass —
  // the readable form of the cell model the cached tables must
  // reproduce exactly.
  const auto cell_current_reference = [&](std::size_t dev, double vgs_v,
                                          double vds_v, double v_scl) {
    const double gate_factor = gate_factor_for(vgs_v, subvt_alpha_);
    const double vth_factor = std::exp(-vth_[dev] * subvt_alpha_);
    const double scl_factor = std::exp(-v_scl * subvt_alpha_);
    return cell_model(vgs_v - v_scl, vds_v - v_scl, vth_[dev],
                      1.0 / resistances_[dev], gate_factor, vth_factor,
                      scl_factor, config_.fet.isat_a, config_.fet.min_leak_a,
                      -subvt_alpha_);
  };
  const std::size_t main_end = per_row - per_row % 4;
  std::vector<double> currents(rows_);
  for (std::size_t row = 0; row < rows_; ++row) {
    if (live_[row] == 0) {
      // Mirror the optimized kernel's disabled-branch sentinel exactly.
      currents[row] = std::numeric_limits<double>::infinity();
      continue;
    }
    const std::size_t base = row * per_row;
    const auto pass = [&](double v_scl, double /*scl_factor*/) {
      LaneSums lanes;
      for (std::size_t j = 0; j < per_row; ++j) {
        lanes.add(lane_of(j, main_end),
                  cell_current_reference(base + j, vgs[j], vds[j], v_scl));
      }
      return lanes;
    };
    currents[row] = solve_scl(source_res_ohm(), subvt_alpha_, pass).current_a;
  }
  return currents;
}

int CrossbarArray::nominal_distance(std::span<const int> query,
                                    std::size_t row) const {
  validate_nominal_query(query);
  if (row >= rows_) {
    throw std::out_of_range("nominal_distance: row out of range");
  }
  int total = 0;
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    total += encoding_.nominal_current(
        static_cast<std::size_t>(query[dim]),
        static_cast<std::size_t>(stored_value(row, dim)));
  }
  return total;
}

// The row loop's inner gather is about 20 bytes of code. Where it lands
// otherwise depends on the size of unrelated code linked before it, and
// placed across a 64-byte line it runs markedly slower: on a 4-vCPU
// Xeon VM a 4-shard nominal fleet's search p50 rose 15% (p90 25%) with
// no change to this file. 32-byte loop alignment keeps it inside one
// line. GCC only; other compilers keep their default placement.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("align-loops=32")))
#endif
std::vector<int> CrossbarArray::nominal_distances(
    std::span<const int> query) const {
  validate_nominal_query(query);
  // Hoist the per-dim LUT-row resolution out of the row loop; the row
  // loop is then a gather over the contiguous stored values.
  std::vector<const int*> lut_rows(dims_);
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    lut_rows[dim] =
        encoding_.nominal_currents(static_cast<std::size_t>(query[dim]))
            .data();
  }
  std::vector<int> out(rows_, 0);
  for (std::size_t row = 0; row < rows_; ++row) {
    if (live_[row] == 0) {
      // Disabled branch: the integer-domain analogue of search()'s
      // +infinity sentinel, so a caller ignoring the mask never sees an
      // erased row's stale values as a finite distance.
      out[row] = std::numeric_limits<int>::max();
      continue;
    }
    const int* const stored = stored_values_.data() + row * dims_;
    int total = 0;
    for (std::size_t dim = 0; dim < dims_; ++dim) {
      total += lut_rows[dim][stored[dim]];
    }
    out[row] = total;
  }
  return out;
}

std::vector<int> CrossbarArray::nominal_distances_reference(
    std::span<const int> query) const {
  validate_nominal_query(query);
  std::vector<int> out(rows_, 0);
  for (std::size_t row = 0; row < rows_; ++row) {
    if (live_[row] == 0) {
      out[row] = std::numeric_limits<int>::max();
      continue;
    }
    int total = 0;
    for (std::size_t dim = 0; dim < dims_; ++dim) {
      total += encoding_.nominal_current_reference(
          static_cast<std::size_t>(query[dim]),
          static_cast<std::size_t>(stored_value(row, dim)));
    }
    out[row] = total;
  }
  return out;
}

void CrossbarArray::validate_nominal_query(std::span<const int> query) const {
  if (query.size() != dims_) {
    throw std::invalid_argument("nominal_distance: query.size() != dims");
  }
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    const int qv = query[dim];
    if (qv < 0 || static_cast<std::size_t>(qv) >= encoding_.search_count()) {
      throw std::out_of_range("nominal_distance: query value out of range");
    }
  }
}

SclSolveStats CrossbarArray::scl_solve_stats() const noexcept {
  SclSolveStats stats;
  stats.solves = stat_solves_.load(std::memory_order_relaxed);
  stats.iterations = stat_iterations_.load(std::memory_order_relaxed);
  stats.non_converged = stat_non_converged_.load(std::memory_order_relaxed);
  return stats;
}

void CrossbarArray::reset_scl_solve_stats() const noexcept {
  stat_solves_.store(0, std::memory_order_relaxed);
  stat_iterations_.store(0, std::memory_order_relaxed);
  stat_non_converged_.store(0, std::memory_order_relaxed);
}

double CrossbarArray::device_vth(std::size_t row, std::size_t dim,
                                 std::size_t fefet) const {
  return vth_[device_index(row, dim, fefet)];
}

double CrossbarArray::device_resistance(std::size_t row, std::size_t dim,
                                        std::size_t fefet) const {
  return resistances_[device_index(row, dim, fefet)];
}

}  // namespace ferex::circuit
