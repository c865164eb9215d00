// perfbench — the FeReX benchmark binary.
//
//   perfbench --workload <circuit_reconfig|fleet_light>
//             --seed <n> --seconds <s> --trace <0|1> --results-dir <dir>
//
// Prints one run-context line, then, as the last line, the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace is 0 and the per-layer
// metrics when it is 1. Exits 2 on bad arguments and 1 when a run cannot
// complete (nothing is printed on stdout then).
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "ladder.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Config;
using perfbench::Metric;
using perfbench::Outcome;

int usage() {
  std::cerr << "usage: perfbench --workload <circuit_reconfig|fleet_light> "
               "--seed <n> --seconds <s> --trace <0|1> --results-dir <dir>\n";
  return 2;
}

bool parse(int argc, char** argv, Config& config) {
  bool have_workload = false;
  bool have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        config.seed = std::stoull(value);
      } else if (key == "--seconds") {
        config.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        config.trace = value == "1";
      } else if (key == "--results-dir") {
        config.results_dir = value;
        have_dir = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_dir &&
         config.seconds >= 1.0 && config.seconds <= 600.0;
}

/// The metrics object; a non-finite value clears `correct`.
std::string format_metrics(const std::vector<Metric>& metrics,
                           bool& correct) {
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double value = metrics[i].value;
    if (!std::isfinite(value)) {
      std::cerr << "metric " << metrics[i].name << " is not finite\n";
      correct = false;
      value = 0.0;
    }
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + number + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  if (!parse(argc, argv, config)) return usage();
  Outcome (*run)(const Config&) = nullptr;
  if (config.workload == "circuit_reconfig") {
    run = perfbench::circuit_reconfig;
  } else if (config.workload == "fleet_light") {
    run = perfbench::fleet_light;
  } else {
    return usage();
  }
  // Freed memory stays in the heap. Every round builds and drops whole
  // indexes; in a virtual machine that hands free pages back to the host,
  // touching them again costs host round trips whose price follows the
  // host's load, not the code under test.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  // Pinned before the pool's first use reads it.
  setenv("FEREX_POOL_WIDTH", std::to_string(perfbench::kPoolWidth).c_str(), 1);

  config.scratch_dir = config.results_dir + "/run-" +
                       std::to_string(static_cast<long>(getpid()));
  Outcome outcome;
  double fsync_us = 0.0;
  double reference_us = 0.0;
  double yardstick_us = 0.0;
  try {
    std::filesystem::remove_all(config.scratch_dir);
    std::filesystem::create_directories(config.scratch_dir);
    fsync_us = perfbench::fsync_p50_us(config.scratch_dir);
    reference_us = perfbench::reference_search_us();
    yardstick_us = perfbench::yardstick_us();
    outcome = run(config);
    std::filesystem::remove_all(config.scratch_dir);
  } catch (const std::exception& e) {
    std::error_code ignored;
    std::filesystem::remove_all(config.scratch_dir, ignored);
    std::cerr << "perfbench: " << config.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& problem : outcome.problems) {
    std::cerr << "check failed: " << problem << "\n";
  }
  outcome.e2e("success_rate",
              outcome.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome.attempted - outcome.failed) /
                        static_cast<double>(outcome.attempted),
              "share");
  outcome.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"ferex_pool_width\": %zu, "
      "\"fsync_p50_us\": %.17g, \"reference_search_64x32_us\": %.17g, "
      "\"yardstick_us\": %.17g}}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0,
      std::thread::hardware_concurrency(), ferex::util::pool_width(), fsync_us,
      reference_us, yardstick_us);
  bool correct = outcome.correct;
  const std::string metrics = format_metrics(
      config.trace ? outcome.per_layer : outcome.end_to_end, correct);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return 0;
}
