// Bench regression gate: diffs a fresh `--json` document from
// bench_search_hotpath / bench_batch / bench_serve against a committed
// BENCH_*.json snapshot and fails when any shared label regressed past
// the threshold — in throughput, in tail latency or in solver work.
//
// Usage:
//   bench_compare <baseline.json> <fresh.json>
//                 [--max-regression <frac>]          (default 0.25)
//                 [--max-latency-regression <frac>]  (default 0.25)
//                 [--max-shed-increase <frac>]       (default 0.05)
//                 [--require-same-concurrency]
//
// Labels are matched by name; labels present in only one document are
// reported but never gate (benches grow modes over time). Three gates
// per shared label:
//   * q/s: fresh qps below (1 - frac) x baseline qps -> regression;
//   * p95 latency: fresh latency_p95_us above (1 + frac) x baseline ->
//     regression (serve-path tails regress long before means do);
//   * shed rate (schema v3 open-loop records): fresh shed_rate above
//     baseline shed_rate + frac -> regression. Absolute margin, not
//     relative: a committed operating point of 0.00 shed would make any
//     relative threshold vacuous or infinite.
//   * solver work (schema v4 circuit kernel records): fresh
//     scl_iterations_per_solve above 1.10 x baseline -> regression. A
//     count, not a time: it does not depend on the host.
// Any kind -> exit 1. A label whose baseline p95 is 0 (older snapshot,
// or a mode without latency samples) skips the latency gate; a label
// where either side carries no shed_rate (schema v2 snapshots, closed
// loop modes) skips the shed gate, and likewise for the work count — the
// dispatch is per record, so a v4 document gates v4-vs-v4 labels while
// still reading v2 baselines.
//
// --require-same-concurrency downgrades the wall-clock gates (q/s, p95,
// shed rate) to a note when the two documents record different
// hardware_concurrency values: those measured on differently shaped
// hosts are not comparable, and CI runners rarely match the machine that
// committed the snapshot. The work-count gate applies regardless.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Entry {
  std::string key;  ///< "label rowsxdims" — labels repeat per geometry
  double qps = 0.0;
  double p95_us = 0.0;     ///< 0 when the record carries no latency
  double shed_rate = -1.0;  ///< negative when the record carries none
  double scl_iterations_per_solve = -1.0;  ///< likewise
};

/// Largest tolerated growth of a work count: counts repeat exactly on
/// any host, so the margin only absorbs deliberate small changes.
constexpr double kMaxCountRegression = 0.10;

struct BenchDoc {
  unsigned schema_version = 2;  ///< pre-v3 documents did gate already
  unsigned hardware_concurrency = 0;
  std::vector<Entry> results;
};

/// Minimal parser for the bench_json.hpp schema (this repo writes it; a
/// full JSON library would be overkill for two known keys).
bool parse_doc(const std::string& path, BenchDoc& doc) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const auto find_number_after = [&](std::size_t pos, const char* key,
                                     double& out) {
    const std::size_t at = text.find(key, pos);
    if (at == std::string::npos) return std::string::npos;
    const std::size_t colon = text.find(':', at);
    if (colon == std::string::npos) return std::string::npos;
    // Validate that a number was actually consumed: strtod returns 0.0
    // for garbage, which would silently pass a corrupted snapshot
    // through the gate as "qps collapsed to zero" or worse, "no
    // regression" (when the baseline is the corrupt side).
    const char* start = text.c_str() + colon + 1;
    char* end = nullptr;
    out = std::strtod(start, &end);
    if (end == start) {
      std::fprintf(stderr, "bench_compare: %s: malformed number for %s\n",
                   path.c_str(), key);
      return std::string::npos;
    }
    return at;
  };

  double hw = 0.0;
  if (find_number_after(0, "\"hardware_concurrency\"", hw) ==
      std::string::npos) {
    std::fprintf(stderr, "bench_compare: %s: no hardware_concurrency\n",
                 path.c_str());
    return false;
  }
  doc.hardware_concurrency = static_cast<unsigned>(hw);
  // schema_version dispatches the optional-field parse: a v2 document
  // legitimately has no shed_rate anywhere, so don't even look for it —
  // a stray "shed_rate" substring in a label could otherwise be
  // misparsed as data.
  double version = 0.0;
  if (find_number_after(0, "\"schema_version\"", version) !=
      std::string::npos) {
    doc.schema_version = static_cast<unsigned>(version);
  }

  std::size_t pos = 0;
  for (;;) {
    const std::size_t label_at = text.find("\"label\"", pos);
    if (label_at == std::string::npos) break;
    const std::size_t open = text.find('"', text.find(':', label_at));
    const std::size_t close = text.find('"', open + 1);
    if (open == std::string::npos || close == std::string::npos) break;
    const std::string label = text.substr(open + 1, close - open - 1);
    // The writer emits geometry then qps after every label, in order.
    // Bound the field search at the next record's label so a truncated
    // or hand-edited record fails loudly instead of silently borrowing
    // the next record's numbers.
    const std::size_t record_end = text.find("\"label\"", close);
    double rows = 0.0, dims = 0.0, qps = 0.0, p95 = 0.0;
    const std::size_t rows_at = find_number_after(close, "\"rows\"", rows);
    const std::size_t dims_at = find_number_after(close, "\"dims\"", dims);
    const std::size_t qps_at = find_number_after(close, "\"qps\"", qps);
    if (rows_at == std::string::npos || rows_at >= record_end ||
        dims_at == std::string::npos || dims_at >= record_end ||
        qps_at == std::string::npos || qps_at >= record_end) {
      std::fprintf(stderr,
                   "bench_compare: %s: label %s missing geometry or qps\n",
                   path.c_str(), label.c_str());
      return false;
    }
    // Optional (schema v1 documents predate p99; p95 has always been
    // written, but stay permissive: a missing field just skips the
    // latency gate for this label).
    const std::size_t p95_at =
        find_number_after(close, "\"latency_p95_us\"", p95);
    if (p95_at == std::string::npos || p95_at >= record_end) p95 = 0.0;
    // shed_rate is v3-only and per-record optional (open-loop modes
    // write it, closed-loop modes omit it).
    double shed = -1.0;
    if (doc.schema_version >= 3) {
      const std::size_t shed_at =
          find_number_after(close, "\"shed_rate\"", shed);
      if (shed_at == std::string::npos || shed_at >= record_end) shed = -1.0;
    }
    // scl_iterations_per_solve is v4-only and per-record optional (the
    // circuit kernel modes write it).
    double iterations = -1.0;
    if (doc.schema_version >= 4) {
      const std::size_t iterations_at = find_number_after(
          close, "\"scl_iterations_per_solve\"", iterations);
      if (iterations_at == std::string::npos || iterations_at >= record_end) {
        iterations = -1.0;
      }
    }
    Entry entry;
    entry.key = label + " " + std::to_string(static_cast<long>(rows)) + "x" +
                std::to_string(static_cast<long>(dims));
    entry.qps = qps;
    entry.p95_us = p95;
    entry.shed_rate = shed;
    entry.scl_iterations_per_solve = iterations;
    doc.results.push_back(entry);
    pos = close;
  }
  if (doc.results.empty()) {
    std::fprintf(stderr, "bench_compare: %s: no results\n", path.c_str());
    return false;
  }
  return true;
}

const Entry* lookup(const BenchDoc& doc, const std::string& key) {
  for (const auto& entry : doc.results) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <baseline.json> <fresh.json> "
               "[--max-regression <frac in (0,1)>] "
               "[--max-latency-regression <frac in (0,1)>] "
               "[--max-shed-increase <frac in (0,1)>] "
               "[--require-same-concurrency]\n",
               argv0);
  return 2;
}

/// Parses a strict (0,1) fraction; returns false on any malformation.
bool parse_fraction(const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && errno == 0 && out > 0.0 && out < 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double max_regression = 0.25;
  double max_latency_regression = 0.25;
  double max_shed_increase = 0.05;
  bool require_same_concurrency = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-regression") == 0 && i + 1 < argc) {
      if (!parse_fraction(argv[++i], max_regression)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--max-latency-regression") == 0 &&
               i + 1 < argc) {
      if (!parse_fraction(argv[++i], max_latency_regression)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--max-shed-increase") == 0 &&
               i + 1 < argc) {
      if (!parse_fraction(argv[++i], max_shed_increase)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--require-same-concurrency") == 0) {
      require_same_concurrency = true;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.size() != 2) return usage(argv[0]);

  BenchDoc baseline, fresh;
  if (!parse_doc(paths[0], baseline) || !parse_doc(paths[1], fresh)) return 2;

  bool wall_clock_gated = true;
  if (baseline.hardware_concurrency != fresh.hardware_concurrency) {
    std::printf("bench_compare: hardware_concurrency differs "
                "(baseline %u, fresh %u) — q/s is not host-comparable\n",
                baseline.hardware_concurrency, fresh.hardware_concurrency);
    if (require_same_concurrency) {
      std::printf("bench_compare: q/s, p95 and shed gates skipped "
                  "(--require-same-concurrency); the work-count gate "
                  "still applies\n");
      wall_clock_gated = false;
    }
  }

  std::printf("%-32s %12s %12s %9s %11s %11s\n", "label", "baseline q/s",
              "fresh q/s", "ratio", "base p95us", "fresh p95us");
  int regressions = 0;
  for (const auto& base : baseline.results) {
    const Entry* now = lookup(fresh, base.key);
    if (now == nullptr) {
      std::printf("%-32s %12.0f %12s %9s %11s %11s  (missing from fresh)\n",
                  base.key.c_str(), base.qps, "-", "-", "-", "-");
      continue;
    }
    const double ratio = base.qps > 0.0 ? now->qps / base.qps : 1.0;
    const bool qps_regressed =
        wall_clock_gated && ratio < 1.0 - max_regression;
    // Latency gates only with a baseline to compare against; a fresh
    // p95 of 0 with a nonzero baseline would be an improvement, not a
    // regression, so it passes on its own terms.
    const bool latency_regressed =
        wall_clock_gated && base.p95_us > 0.0 &&
        now->p95_us > base.p95_us * (1.0 + max_latency_regression);
    // The shed gate needs both sides to carry the field; absolute
    // margin because the committed operating point is typically 0.00.
    const bool shed_regressed =
        wall_clock_gated && base.shed_rate >= 0.0 && now->shed_rate >= 0.0 &&
        now->shed_rate > base.shed_rate + max_shed_increase;
    const bool has_count = base.scl_iterations_per_solve >= 0.0 &&
                           now->scl_iterations_per_solve >= 0.0;
    const bool count_regressed =
        has_count && now->scl_iterations_per_solve >
                         base.scl_iterations_per_solve *
                             (1.0 + kMaxCountRegression);
    const bool regressed =
        qps_regressed || latency_regressed || shed_regressed ||
        count_regressed;
    std::printf("%-32s %12.0f %12.0f %8.2fx %11.1f %11.1f%s%s%s%s%s\n",
                base.key.c_str(), base.qps, now->qps, ratio, base.p95_us,
                now->p95_us, regressed ? "  REGRESSION" : "",
                qps_regressed ? " (q/s)" : "",
                latency_regressed ? " (p95)" : "",
                shed_regressed ? " (shed)" : "",
                count_regressed ? " (passes/solve)" : "");
    if (base.shed_rate >= 0.0 && now->shed_rate >= 0.0) {
      std::printf("%-32s %12s %12s %9s shed %.3f -> %.3f\n", "", "", "", "",
                  base.shed_rate, now->shed_rate);
    }
    if (has_count) {
      std::printf("%-32s %12s %12s %9s passes/solve %.3f -> %.3f\n", "", "",
                  "", "", base.scl_iterations_per_solve,
                  now->scl_iterations_per_solve);
    }
    if (regressed) ++regressions;
  }
  for (const auto& entry : fresh.results) {
    if (lookup(baseline, entry.key) == nullptr) {
      std::printf("%-32s %12s %12.0f %9s %11s %11.1f  (new label)\n",
                  entry.key.c_str(), "-", entry.qps, "-", "-", entry.p95_us);
    }
  }
  if (regressions > 0) {
    std::printf("bench_compare: %d label(s) regressed beyond %.0f%% q/s, "
                "%.0f%% p95 latency, +%.2f shed rate, or %.0f%% "
                "passes/solve\n",
                regressions, max_regression * 100.0,
                max_latency_regression * 100.0, max_shed_increase,
                kMaxCountRegression * 100.0);
    return 1;
  }
  std::printf("bench_compare: no regression beyond %.0f%% q/s / %.0f%% "
              "p95 latency / +%.2f shed rate / %.0f%% passes/solve\n",
              max_regression * 100.0, max_latency_regression * 100.0,
              max_shed_increase, kMaxCountRegression * 100.0);
  return 0;
}
