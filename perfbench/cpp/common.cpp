#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "util/stats.hpp"

namespace perfbench {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double percentile(std::vector<double> values, double p) {
  return ferex::util::percentile(values, p);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

ferex::util::Rng stream(const Config& config, std::uint64_t salt) {
  return ferex::util::Rng(config.seed * 0x9e3779b97f4a7c15ULL ^
                          (salt * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL));
}

Vec random_vector(ferex::util::Rng& rng, std::size_t dims, int levels) {
  Vec v(dims);
  for (int& x : v) x = static_cast<int>(rng.uniform_below(levels));
  return v;
}

std::vector<Vec> random_database(ferex::util::Rng& rng, std::size_t rows,
                                 std::size_t dims, int levels) {
  std::vector<Vec> db(rows);
  for (Vec& row : db) row = random_vector(rng, dims, levels);
  return db;
}

Vec make_query(ferex::util::Rng& rng, const std::vector<Vec>& database,
               int levels) {
  const std::size_t dims = database.front().size();
  if (rng.bernoulli(0.5)) return random_vector(rng, dims, levels);
  Vec q = database[rng.uniform_below(database.size())];
  const auto flips = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < flips; ++i) {
    int& x = q[rng.uniform_below(dims)];
    x = (x + static_cast<int>(rng.uniform_int(1, levels - 1))) % levels;
  }
  return q;
}

void Outcome::fail_check(const std::string& what) {
  correct = false;
  // Keep stderr readable when one defect fails thousands of answers.
  if (problems.size() < 20) problems.push_back(what);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuRotation::pin(std::size_t turn) const {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[turn % cpus_.size()], &set);
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    if (tid > 0) sched_setaffinity(tid, sizeof set, &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

KeepAwake::KeepAwake()
    : spinner_([](const std::stop_token& stop) {
        const sched_param idle{};
        sched_setscheduler(0, SCHED_IDLE, &idle);
        while (!stop.stop_requested()) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      }) {}

double yardstick_us() {
  double best = 0.0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto start = Clock::now();
    double x = 1.0001;
    double acc = 0.0;
    for (int i = 0; i < 20000; ++i) {
      acc += std::exp(-1e-3 * x * static_cast<double>(i & 1023)) / (1.0 + x);
      x *= 1.0000001;
    }
    const volatile double sink = acc;
    (void)sink;
    const double us = us_between(start, Clock::now());
    best = attempt == 0 ? us : std::min(best, us);
  }
  return best;
}

}  // namespace perfbench
