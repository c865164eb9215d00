// Shared --json output for the bench binaries.
//
// Every bench that accepts `--json <path>` emits one document with the
// same stable schema, so the perf trajectory (BENCH_*.json files) can be
// collected and diffed across commits without parsing stdout:
//
//   {
//     "bench": "<binary name>",
//     "schema_version": 4,
//     "hardware_concurrency": <uint>,
//     "results": [
//       {
//         "label": "<measurement mode>",
//         "geometry": {"rows": <uint>, "dims": <uint>},
//         "queries": <uint>,
//         "fidelity": "circuit" | "nominal",
//         "qps": <double>,
//         "latency_p50_us": <double>,
//         "latency_p95_us": <double>,
//         "latency_p99_us": <double>,
//         "offered_qps": <double>,     // optional (open-loop modes only)
//         "achieved_qps": <double>,    // optional
//         "shed_rate": <double>,       // optional, in [0, 1]
//         "write_p50_us": <double>,    // optional (mixed-class modes)
//         "write_p95_us": <double>,    // optional
//         "scl_iterations_per_solve": <double>  // optional (circuit
//                                               // kernel modes, v4)
//       }, ...
//     ]
//   }
//
// Latency percentiles are per measured call; batched modes divide each
// batch call's wall time by its query count first (amortized per-query
// latency), which is noted in the mode's label. Schema v2 added
// latency_p99_us (serve-path tails). Schema v3 adds the optional
// open-loop fields above: offered_qps is the generator's target arrival
// rate, achieved_qps counts completed (non-shed) requests over wall
// time, shed_rate is shed / offered, and write_p50/p95_us carry the
// write class's end-to-end latency when a mode mixes classes. A record
// omits the optional keys when the mode has nothing to report (closed
// loop, search-only); consumers key on label/geometry and must tolerate
// their absence. Schema v4 adds the optional scl_iterations_per_solve:
// mean device passes per ScL row solve (after each solve's v = 0 seed)
// over the mode's calls, a machine-independent work count that
// bench_compare gates on every host.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "util/durable_file.hpp"

namespace ferex::benchjson {

struct Record {
  std::string label;
  std::size_t rows = 0;
  std::size_t dims = 0;
  std::size_t queries = 0;
  std::string fidelity;  // "circuit" | "nominal"
  double qps = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  // Schema-v3 optional fields. Negative means "not applicable": the key
  // is left out of the JSON entirely rather than emitted as a sentinel.
  double offered_qps = -1.0;
  double achieved_qps = -1.0;
  double shed_rate = -1.0;
  double write_p50_us = -1.0;
  double write_p95_us = -1.0;
  // Schema-v4 optional field, same convention.
  double scl_iterations_per_solve = -1.0;
};

/// Linear-interpolated percentile over already-sorted samples, p in
/// [0, 100] (numpy's default "linear" interpolation, not nearest-rank).
inline double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Times fn(0), ..., fn(n - 1), one wall-clock sample per call, in
/// seconds — the one timing loop every bench shares.
template <typename Fn>
std::vector<double> time_calls(std::size_t n, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> seconds;
  seconds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto start = Clock::now();
    fn(i);
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  return seconds;
}

/// Fills a record's qps and latency percentiles from per-call samples
/// (seconds) where each call covered `queries_per_call` queries.
inline void fill_timing(Record& record, std::span<const double> call_seconds,
                        std::size_t queries_per_call) {
  double total = 0.0;
  std::vector<double> per_query_us;
  per_query_us.reserve(call_seconds.size());
  for (const double s : call_seconds) {
    total += s;
    per_query_us.push_back(s * 1e6 / static_cast<double>(queries_per_call));
  }
  std::sort(per_query_us.begin(), per_query_us.end());
  const std::size_t queries = call_seconds.size() * queries_per_call;
  record.queries = queries;
  record.qps = total > 0.0 ? static_cast<double>(queries) / total : 0.0;
  record.latency_p50_us = percentile_sorted(per_query_us, 50.0);
  record.latency_p95_us = percentile_sorted(per_query_us, 95.0);
  record.latency_p99_us = percentile_sorted(per_query_us, 99.0);
}

/// Writes the document atomically (util::atomic_write_file: the path
/// holds either the previous complete document or the new one — a
/// crashed or killed bench can never leave a torn JSON for
/// bench_compare to reject). Returns false (with a message on stderr)
/// on I/O failure so benches can exit non-zero.
inline bool write_json(const std::string& path, const std::string& bench,
                       std::span<const Record> records) {
  std::string out;
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "{\n  \"bench\": \"%s\",\n  \"schema_version\": 4,\n"
                "  \"hardware_concurrency\": %u,\n  \"results\": [",
                bench.c_str(), std::thread::hardware_concurrency());
  out += buffer;
  const auto append_optional = [&](std::string& doc, const char* key,
                                   double value) {
    if (value < 0.0) return;
    std::snprintf(buffer, sizeof buffer, ", \"%s\": %.3f", key, value);
    doc += buffer;
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::snprintf(
        buffer, sizeof buffer,
        "%s\n    {\"label\": \"%s\", \"geometry\": {\"rows\": %zu, "
        "\"dims\": %zu}, \"queries\": %zu, \"fidelity\": \"%s\", "
        "\"qps\": %.3f, \"latency_p50_us\": %.3f, \"latency_p95_us\": %.3f, "
        "\"latency_p99_us\": %.3f",
        i == 0 ? "" : ",", r.label.c_str(), r.rows, r.dims, r.queries,
        r.fidelity.c_str(), r.qps, r.latency_p50_us, r.latency_p95_us,
        r.latency_p99_us);
    out += buffer;
    append_optional(out, "offered_qps", r.offered_qps);
    append_optional(out, "achieved_qps", r.achieved_qps);
    append_optional(out, "shed_rate", r.shed_rate);
    append_optional(out, "write_p50_us", r.write_p50_us);
    append_optional(out, "write_p95_us", r.write_p95_us);
    append_optional(out, "scl_iterations_per_solve",
                    r.scl_iterations_per_solve);
    out += "}";
  }
  out += "\n  ]\n}\n";
  try {
    util::atomic_write_file(
        path, reinterpret_cast<const std::uint8_t*>(out.data()), out.size());
  } catch (const std::system_error& error) {
    std::fprintf(stderr, "error: write to %s failed: %s\n", path.c_str(),
                 error.what());
    return false;
  }
  return true;
}

}  // namespace ferex::benchjson
