// Shared vocabulary of the FeReX benchmark: clock helpers, the run
// configuration, generated inputs and the result record every workload
// fills in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Vec = std::vector<int>;

/// Microseconds from `a` to `b`.
double us_between(Clock::time_point a, Clock::time_point b);

/// Linear-interpolation percentile, p in [0, 100]; 0 for an empty set.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Pool width the benchmark pins (FEREX_POOL_WIDTH) for every workload:
/// every parallel_for runs inline, so a run is one thread at circuit
/// fidelity and the generator, collector and dispatcher in the open loop,
/// all on the one CPU the run is pinned to (see CpuRotation). On a shared
/// host each extra CPU a request's path crosses is one more CPU whose
/// co-tenant stalls it waits on. Left to spread over four CPUs, the open
/// loop's pooled p90 ranged from 0.6 to 2.0 ms across runs; pinned to
/// one CPU, in the same minutes, from 0.48 to 0.55 ms.
constexpr std::size_t kPoolWidth = 1;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string results_dir;  ///< under the checkout; WALs and spans go here
  std::string scratch_dir;  ///< per-run subdirectory of results_dir
};

/// A deterministic random stream for one purpose of one run: the same
/// seed and salt always give the same inputs.
ferex::util::Rng stream(const Config& config, std::uint64_t salt);

/// `rows` vectors of `dims` uniform values in [0, levels).
std::vector<Vec> random_database(ferex::util::Rng& rng, std::size_t rows,
                                 std::size_t dims, int levels);

/// Half the queries are a stored row with 1-3 dims perturbed, half are
/// uniform random vectors.
Vec make_query(ferex::util::Rng& rng, const std::vector<Vec>& database,
               int levels);

/// A fresh uniform vector (write payloads).
Vec random_vector(ferex::util::Rng& rng, std::size_t dims, int levels);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. Failed correctness checks are collected in
/// `problems` (printed to stderr) and clear `correct`.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;

  void fail_check(const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Moves the whole process round-robin over the CPUs it may use. On a
/// shared host some cores run up to 1.8x slower than others, and which
/// ones changes every few seconds; a run left where the scheduler put it
/// can spend most of its time on a slow core. Each round of a run pins every
/// thread of the process to the next CPU, so every run samples every core;
/// threads created while pinned inherit the CPU.
class CpuRotation {
 public:
  CpuRotation();
  /// Pins every thread to the `turn`-th CPU (modulo the count).
  void pin(std::size_t turn) const;

 private:
  std::vector<int> cpus_;
};

/// Keeps the process's CPU from idling while it lives: a SCHED_IDLE
/// thread spins whenever no other thread of the process is runnable. In a
/// virtual machine an idle CPU halts, and waking it costs a hypervisor
/// round trip whose length follows the host's load; with the CPU kept
/// running, a wake-up of the open loop's threads stays inside the guest.
class KeepAwake {
 public:
  KeepAwake();

 private:
  std::jthread spinner_;  ///< stopped and joined on destruction
};

/// Host-speed yardstick: the time of a fixed floating-point loop in the
/// benchmark's own code, the best of two tries. It reads
/// about kYardstickReferenceUs on the sizing host (4-vCPU KVM guest,
/// Intel Xeon) when quiet, and up to 1.8x that while co-tenants slow the
/// core.
double yardstick_us();
constexpr double kYardstickReferenceUs = 130.0;

/// Times `work` on the calling thread in reference microseconds: the wall
/// time scaled by kYardstickReferenceUs over the mean of the yardsticks
/// taken just before and just after it on the same CPU. For single-threaded
/// compute this removes most of the host's speed swings: within one run the
/// spread of a circuit phase's median fell from 12-16% to 2-4%.
template <class Work>
double reference_us(Work&& work) {
  const double before = yardstick_us();
  const auto start = Clock::now();
  work();
  const double wall = us_between(start, Clock::now());
  return wall * kYardstickReferenceUs / (0.5 * (before + yardstick_us()));
}

}  // namespace perfbench
