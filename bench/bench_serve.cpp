// Serve-path throughput and latency through the AsyncAmIndex front
// door, against the synchronous AmIndex baseline.
//
// Three measurement modes per backend (EngineIndex "engine_*",
// BankedIndex "banked_*"), circuit fidelity:
//
//   *_serve_sync       search() in a sequential loop — the synchronous
//                      baseline; per-call latency samples.
//   *_serve_async      submit() every request up front, then drain the
//                      futures — the coalescing path; percentiles are
//                      the wrapper's end-to-end reservoir (submit ->
//                      future complete), q/s is wall-clock over the run.
//   *_serve_roundtrip  submit() + get() one request at a time — queue +
//                      dispatch + wake overhead on an idle server; the
//                      p50 gap to *_serve_sync is the async tax per
//                      request.
//
// A fourth record per backend, *_serve_queue_wait, re-exports the async
// run's queue-wait reservoir (submit -> dispatch) so the regression
// gate also watches time spent waiting rather than working.
//
//   *_serve_mixed      the mutable-write-path mode: 5% of submissions
//                      are in-place overwrites (submit_update) riding
//                      the same queue as the searches, which serialize
//                      around them in submission order. q/s counts all
//                      operations; percentiles are the search class's
//                      end-to-end reservoir (writes keep their own
//                      class reservoir in ServeStats). The gap to
//                      *_serve_async is the price of write barriers.
//
//   engine_open_loop   the open-loop operating point: Poisson arrivals
//                      at a fixed offered rate with 20 ms deadlines and
//                      5% writes, at a fixed 128x64 geometry (see
//                      measure_open_loop_point). Emits schema-v3
//                      offered_qps / achieved_qps / shed_rate fields so
//                      bench_compare gates shed growth. The printed
//                      open-loop section also sweeps offered load,
//                      replays a 5x burst, and A/Bs FIFO vs
//                      search-first admission — printed only, since
//                      those points are relative to this host's
//                      measured capacity.
//
// Sharded fleet modes (4 engine shards, scatter-gather) ride the same
// run:
//
//   sharded_serve_sync       fleet search() in a sequential loop —
//                            scatter to every live shard, k-way merge.
//   sharded_serve_roundtrip  AsyncShardedIndex submit() + get() one
//                            request at a time — per-shard queues, the
//                            gather on the calling thread.
//   sharded_serve_large      the million-row trajectory point: a fixed
//                            65536-row x 16-dim 4-shard fleet served
//                            sync, emitted at its own geometry so the
//                            regression gate tracks it regardless of
//                            the positional row count.
//
// The write-interference experiment demonstrates shard-local write
// isolation: each sample submits a burst of updates and then times one
// roundtrip search behind it. On a single index the search serializes
// behind the whole burst (its queue wait IS the burst); on the fleet
// the burst lands on shard 0's queue while the search goes to shard 1,
// whose queue — and queue-wait reservoir — never holds a write. The
// four-way comparison (single/fleet x idle/under-writes) is printed,
// not emitted into the JSON: its per-run numbers are scheduler-noise
// scale (a few us idle), which would make the 25% regression gate cry
// wolf, while the printed wall + queue-wait p95 contrast is the point.
//
// With --durability the binary instead measures the persistence layer
// (snapshot save/load throughput, WAL append cost with and without
// fsync, recovery time vs log length) — see run_durability below; the
// records land in BENCH_durable.json under the same schema-v2 gate.
//
// With --open-loop <qps> the binary runs ONLY one open-loop pass at the
// positional geometry and the given offered rate (generous 100 ms
// deadline); --assert-no-shed then exits non-zero if anything was shed
// — the CI smoke that proves admission control stays out of the way at
// low load.
//
// Usage: bench_serve [--durability] [--json <path>]
//                    [--open-loop <qps>] [--assert-no-shed]
//                    [rows] [dims] [queries]
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/datasets.hpp"
#include "serve/async_index.hpp"
#include "serve/async_sharded.hpp"
#include "serve/banked_index.hpp"
#include "serve/durable.hpp"
#include "serve/engine_index.hpp"
#include "serve/sharded_index.hpp"
#include "serve/snapshot.hpp"
#include "serve/wal.hpp"
#include "util/durable_file.hpp"
#include "util/rng.hpp"

#include "bench_json.hpp"

namespace {

using namespace ferex;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

benchjson::Record base_record(const std::string& label, std::size_t rows,
                              std::size_t dims) {
  benchjson::Record record;
  record.label = label;
  record.rows = rows;
  record.dims = dims;
  record.fidelity = "circuit";
  return record;
}

benchjson::Record from_reservoir(
    const std::string& label, std::size_t rows, std::size_t dims,
    const core::LatencyReservoir::Summary& summary, double qps) {
  auto record = base_record(label, rows, dims);
  record.queries = summary.count;
  record.qps = qps;
  record.latency_p50_us = summary.p50_us;
  record.latency_p95_us = summary.p95_us;
  record.latency_p99_us = summary.p99_us;
  return record;
}

struct ServeNumbers {
  double sync_qps = 0.0;
  double async_qps = 0.0;
  double mixed_qps = 0.0;
  double sync_p50_us = 0.0;
  double roundtrip_p50_us = 0.0;
  double mean_batch = 0.0;
  std::uint64_t writes = 0;
};

/// Measures one backend through all serve modes. `sync_index` and
/// `async_backend` are twin indexes (same construction) so the two
/// paths serve identical work from identical state.
ServeNumbers measure(const std::string& prefix, std::size_t rows,
                     std::size_t dims, serve::AmIndex& sync_index,
                     serve::AmIndex& async_backend,
                     const std::vector<std::vector<int>>& queries,
                     std::vector<benchjson::Record>& records) {
  std::vector<serve::SearchRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
  }
  ServeNumbers numbers;

  // Synchronous baseline.
  auto sync_record = base_record(prefix + "_serve_sync", rows, dims);
  benchjson::fill_timing(
      sync_record,
      benchjson::time_calls(
          requests.size(),
          [&](std::size_t i) { (void)sync_index.search(requests[i]); }),
      1);
  numbers.sync_qps = sync_record.qps;
  numbers.sync_p50_us = sync_record.latency_p50_us;
  records.push_back(sync_record);

  // Coalescing async path: enqueue everything, then drain. A fresh
  // wrapper per mode keeps its reservoirs scoped to the measured run.
  {
    serve::AsyncOptions options;
    options.queue_depth = requests.size();
    options.max_batch = 32;
    options.max_wait_us = 100;
    serve::AsyncAmIndex async_index(async_backend, options);
    std::vector<std::future<serve::SearchResponse>> futures;
    futures.reserve(requests.size());
    const auto start = Clock::now();
    for (const auto& request : requests) {
      futures.push_back(async_index.submit(request));
    }
    for (auto& future : futures) (void)future.get();
    const double wall = seconds_since(start);
    const auto stats = async_index.stats();
    numbers.async_qps =
        wall > 0.0 ? static_cast<double>(requests.size()) / wall : 0.0;
    numbers.mean_batch =
        stats.batches > 0 ? static_cast<double>(stats.search.served) /
                                static_cast<double>(stats.batches)
                          : 0.0;
    records.push_back(from_reservoir(prefix + "_serve_async", rows, dims,
                                     stats.search.end_to_end_us,
                                     numbers.async_qps));
    records.push_back(from_reservoir(prefix + "_serve_queue_wait", rows,
                                     dims, stats.search.queue_wait_us,
                                     numbers.async_qps));
  }

  // Idle round trip: queue-in, dispatch, future-wake per request. No
  // coalescing linger — with one request in flight at a time the linger
  // would only add its full max_wait_us to every sample, so this mode
  // measures the pure async tax.
  {
    serve::AsyncOptions options;
    options.max_wait_us = 0;
    serve::AsyncAmIndex async_index(async_backend, options);
    auto roundtrip = base_record(prefix + "_serve_roundtrip", rows, dims);
    benchjson::fill_timing(
        roundtrip,
        benchjson::time_calls(requests.size(),
                              [&](std::size_t i) {
                                (void)async_index.submit(requests[i]).get();
                              }),
        1);
    numbers.roundtrip_p50_us = roundtrip.latency_p50_us;
    records.push_back(roundtrip);
  }

  // Mixed read/write: every 20th submission (5%) is an in-place
  // overwrite through the same queue. Runs last — the writes mutate the
  // backend, so the read-only modes above must already be done.
  {
    const auto writes =
        data::random_int_vectors(requests.size() / 20 + 1, dims, 4, 3);
    serve::AsyncOptions options;
    options.queue_depth = requests.size();
    options.max_batch = 32;
    options.max_wait_us = 100;
    serve::AsyncAmIndex async_index(async_backend, options);
    std::vector<std::future<serve::SearchResponse>> search_futures;
    std::vector<std::future<serve::WriteReceipt>> write_futures;
    search_futures.reserve(requests.size());
    const auto start = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (i % 20 == 19) {
        write_futures.push_back(
            async_index.submit_update(i % rows, writes[i / 20]));
      } else {
        search_futures.push_back(async_index.submit(requests[i]));
      }
    }
    for (auto& future : search_futures) (void)future.get();
    for (auto& future : write_futures) (void)future.get();
    const double wall = seconds_since(start);
    const auto stats = async_index.stats();
    numbers.mixed_qps =
        wall > 0.0 ? static_cast<double>(requests.size()) / wall : 0.0;
    numbers.writes = stats.write.served;
    records.push_back(from_reservoir(prefix + "_serve_mixed", rows, dims,
                                     stats.search.end_to_end_us,
                                     numbers.mixed_qps));
  }
  return numbers;
}

/// The sharded serve modes: scatter-gather sync + async roundtrip over
/// a 4-shard engine fleet, then the write-interference quartet (see the
/// file comment) against the single-index baseline.
void measure_sharded(std::size_t rows, std::size_t dims,
                     const std::vector<std::vector<int>>& db,
                     const std::vector<std::vector<int>>& queries,
                     std::vector<benchjson::Record>& records) {
  serve::ShardedOptions opt;
  opt.shards = 4;
  // At least two routing blocks per shard so the fleet actually spreads
  // at small row counts.
  opt.shard_block = rows / 8 ? rows / 8 : 1;
  opt.backend = serve::ShardBackend::kEngine;
  const auto make_fleet = [&] {
    auto fleet = std::make_unique<serve::ShardedIndex>(opt);
    fleet->configure(csp::DistanceMetric::kHamming, 2);
    fleet->store(db);
    return fleet;
  };
  std::vector<serve::SearchRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
  }
  serve::SearchRequest warm;
  warm.query = queries.front();

  auto sync_record = base_record("sharded_serve_sync", rows, dims);
  {
    auto fleet = make_fleet();
    (void)fleet->search(warm);
    benchjson::fill_timing(
        sync_record,
        benchjson::time_calls(
            requests.size(),
            [&](std::size_t i) { (void)fleet->search(requests[i]); }),
        1);
    records.push_back(sync_record);
  }

  auto roundtrip = base_record("sharded_serve_roundtrip", rows, dims);
  {
    auto fleet = make_fleet();
    serve::AsyncOptions options;
    options.max_wait_us = 0;
    serve::AsyncShardedIndex async_fleet(*fleet, options);
    benchjson::fill_timing(
        roundtrip,
        benchjson::time_calls(requests.size(),
                              [&](std::size_t i) {
                                (void)async_fleet.submit(requests[i]).get();
                              }),
        1);
    records.push_back(roundtrip);
    async_fleet.shutdown();
  }

  // Write interference, measured per operation: each timed sample is
  // one roundtrip search submitted right after a burst of updates
  // enters the queue. On the single index the search serializes behind
  // the whole burst (write barrier), so every sample pays it; on the
  // fleet the burst sits on shard 0's queue while the search goes to
  // shards 1..3, which never see it. The *_no_writes twins are the
  // identical loops minus the updates.
  constexpr std::size_t kBurst = 16;
  const auto fresh = data::random_int_vectors(kBurst, dims, 4, 7);
  serve::AsyncOptions queue_options;
  // One burst plus the search in flight per sample, with headroom.
  queue_options.queue_depth = kBurst + 8;
  queue_options.max_batch = 32;
  queue_options.max_wait_us = 0;

  struct Interference {
    std::vector<double> seconds;  ///< per-search wall roundtrip
    core::LatencyReservoir::Summary queue_wait;
  };

  const auto single_pair = [&](bool with_writes) {
    serve::EngineIndex index;
    index.configure(csp::DistanceMetric::kHamming, 2);
    index.store(db);
    (void)index.search(warm);
    serve::AsyncAmIndex async_index(index, queue_options);
    std::vector<std::future<serve::WriteReceipt>> writes;
    writes.reserve(kBurst);
    Interference out;
    out.seconds.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (with_writes) {
        for (std::size_t w = 0; w < kBurst; ++w) {
          writes.push_back(
              async_index.submit_update((i + w) % rows, fresh[w]));
        }
      }
      const auto start = Clock::now();
      (void)async_index.submit(requests[i]).get();
      out.seconds.push_back(seconds_since(start));
      // Drain outside the timed region so exactly one burst is in
      // flight per sample (no backlog snowball across samples).
      for (auto& write : writes) (void)write.get();
      writes.clear();
    }
    // The search class's own reservoir: the search is always last in
    // its burst, so its queue wait IS the serialization stall behind
    // the writes queued ahead of it.
    out.queue_wait = async_index.stats().search.queue_wait_us;
    return out;
  };

  const auto fleet_pair = [&](bool with_writes) {
    auto fleet = make_fleet();
    // Rows the router sends to shard 0 — the updates' sole target.
    std::vector<std::size_t> shard0_rows;
    for (std::size_t g = 0; g < rows; ++g) {
      if (fleet->shard_of(g) == 0) shard0_rows.push_back(g);
    }
    serve::AsyncShardedIndex async_fleet(*fleet, queue_options);
    std::vector<serve::AsyncShardedIndex::PendingWrite> writes;
    writes.reserve(kBurst);
    Interference out;
    out.seconds.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (with_writes) {
        for (std::size_t w = 0; w < kBurst; ++w) {
          writes.push_back(async_fleet.submit_update(
              shard0_rows[(i + w) % shard0_rows.size()], fresh[w]));
        }
      }
      // Every search goes to shard 1 only: its queue — and its
      // queue-wait reservoir — never holds a write.
      const auto start = Clock::now();
      (void)async_fleet.submit_shard(1, requests[i]).get();
      out.seconds.push_back(seconds_since(start));
      for (auto& write : writes) (void)write.get();
      writes.clear();
    }
    out.queue_wait =
        async_fleet.shard_session(1).stats().search.queue_wait_us;
    async_fleet.shutdown();
    return out;
  };

  const auto wall_p95_us = [](const Interference& run) {
    std::vector<double> us;
    us.reserve(run.seconds.size());
    for (const double s : run.seconds) us.push_back(s * 1e6);
    std::sort(us.begin(), us.end());
    return benchjson::percentile_sorted(us, 95.0);
  };
  const auto single_idle = single_pair(false);
  const auto single_busy = single_pair(true);
  const auto fleet_idle = fleet_pair(false);
  const auto fleet_busy = fleet_pair(true);

  std::printf("ShardedIndex  sync %8.0f q/s   roundtrip p50 %7.1f us\n",
              sync_record.qps, roundtrip.latency_p50_us);
  std::printf(
      "write interference (%zu updates/search)  wall p95: single %7.1f -> "
      "%8.1f us   other shard %7.1f -> %8.1f us\n",
      kBurst, wall_p95_us(single_idle), wall_p95_us(single_busy),
      wall_p95_us(fleet_idle), wall_p95_us(fleet_busy));
  std::printf(
      "                              queue-wait p95: single %7.1f -> "
      "%8.1f us   other shard %7.1f -> %8.1f us\n",
      single_idle.queue_wait.p95_us, single_busy.queue_wait.p95_us,
      fleet_idle.queue_wait.p95_us, fleet_busy.queue_wait.p95_us);
}

/// The fixed large-geometry trajectory point: 65536 rows x 16 dims over
/// 4 shards, served sync. Emitted at its own geometry on every run so
/// the bench_compare gate tracks it no matter what the positional
/// arguments say.
void measure_sharded_large(std::vector<benchjson::Record>& records) {
  constexpr std::size_t kRows = 65536;
  constexpr std::size_t kDims = 16;
  constexpr std::size_t kQueries = 16;
  serve::ShardedOptions opt;
  opt.shards = 4;
  opt.shard_block = 4096;
  opt.backend = serve::ShardBackend::kEngine;
  const auto db = data::random_int_vectors(kRows, kDims, 4, 11);
  const auto queries = data::random_int_vectors(kQueries, kDims, 4, 12);
  serve::ShardedIndex fleet(opt);
  fleet.configure(csp::DistanceMetric::kHamming, 2);
  fleet.store(db);
  serve::SearchRequest request;
  request.query = queries.front();
  (void)fleet.search(request);
  auto record = base_record("sharded_serve_large", kRows, kDims);
  benchjson::fill_timing(record,
                         benchjson::time_calls(kQueries,
                                               [&](std::size_t i) {
                                                 request.query = queries[i];
                                                 (void)fleet.search(request);
                                               }),
                         1);
  records.push_back(record);
  std::printf("sharded_serve_large  %zu rows x 4 shards   %6.0f q/s   "
              "p95 %8.1f us\n",
              kRows, record.qps, record.latency_p95_us);
}

// ---------------------------------------------------------------------
// Open-loop load generation.
//
// The closed-loop modes above submit as fast as the server completes —
// offered load adapts to capacity, so they can never show what happens
// when demand exceeds it. The open-loop generator schedules Poisson
// arrivals at a fixed offered rate on an absolute timeline
// (sleep_until against the run's start, so generator jitter never
// compounds) and submits without waiting; requests carry a deadline and
// the admission policy decides what to shed. Per-class streams fall out
// of Poisson superposition: thinning one arrival process with a
// Bernoulli class draw is equivalent to independent search and write
// Poisson streams at the split rates.

struct OpenLoopConfig {
  double offered_qps = 0.0;       ///< base arrival rate (> 0)
  std::size_t arrivals = 0;       ///< total scheduled arrivals
  std::uint64_t deadline_us = 0;  ///< per-search deadline; 0 = none
  double write_fraction = 0.0;    ///< P(arrival is an in-place update)
  double burst_mult = 1.0;        ///< rate multiplier inside the burst
  serve::AdmissionPolicy admission;
};

struct OpenLoopResult {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::uint64_t shed_submit = 0;
  std::uint64_t shed_dispatch = 0;
  double achieved_qps = 0.0;
  double shed_rate = 0.0;
  core::LatencyReservoir::Summary latency;        ///< served searches
  core::LatencyReservoir::Summary write_latency;  ///< served writes
};

/// One open-loop run against a fresh async session over `backend`.
/// Arrivals in [arrivals/3, arrivals/2) — the middle sixth — use
/// burst_mult x the base rate, so burst_mult = 1 is a flat run.
OpenLoopResult open_loop_run(serve::AmIndex& backend, std::size_t rows,
                             const std::vector<serve::SearchRequest>& requests,
                             const std::vector<std::vector<int>>& fresh,
                             const OpenLoopConfig& config,
                             std::uint64_t seed) {
  serve::AsyncOptions options;
  // Deep queue: deadline shedding, not queue overflow, is the
  // admission mechanism under test here.
  options.queue_depth = config.arrivals + 8;
  options.max_batch = 32;
  options.max_wait_us = 100;
  options.admission = config.admission;
  serve::AsyncAmIndex async_index(backend, options);

  util::Rng rng(seed);
  std::vector<std::future<serve::SearchResponse>> search_futures;
  std::vector<std::future<serve::WriteReceipt>> write_futures;
  search_futures.reserve(config.arrivals);
  OpenLoopResult out;
  out.offered = config.arrivals;

  const auto start = Clock::now();
  double t = 0.0;  // absolute arrival time offset, seconds
  for (std::size_t i = 0; i < config.arrivals; ++i) {
    const bool in_burst =
        i >= config.arrivals / 3 && i < config.arrivals / 2;
    const double rate =
        config.offered_qps * (in_burst ? config.burst_mult : 1.0);
    t += -std::log(1.0 - rng.uniform()) / rate;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(t)));
    try {
      if (rng.bernoulli(config.write_fraction)) {
        write_futures.push_back(
            async_index.submit_update(i % rows, fresh[i % fresh.size()]));
      } else {
        serve::SearchRequest request = requests[i % requests.size()];
        request.deadline_us = config.deadline_us;
        search_futures.push_back(async_index.submit(request));
      }
    } catch (const serve::RejectedRequest&) {
      ++out.shed;  // submit-time: deadline estimate or queue at depth
    }
  }
  for (auto& future : search_futures) {
    try {
      (void)future.get();
      ++out.completed;
    } catch (const serve::RejectedRequest&) {
      ++out.shed;  // dispatch-time: deadline expired while queued
    }
  }
  for (auto& future : write_futures) {
    (void)future.get();
    ++out.completed;
  }
  const double wall = seconds_since(start);

  const auto stats = async_index.stats();
  out.shed_submit = stats.shed_submit;
  out.shed_dispatch = stats.shed_dispatch;
  out.achieved_qps =
      wall > 0.0 ? static_cast<double>(out.completed) / wall : 0.0;
  out.shed_rate = out.offered > 0
                      ? static_cast<double>(out.shed) /
                            static_cast<double>(out.offered)
                      : 0.0;
  out.latency = stats.search.end_to_end_us;
  out.write_latency = stats.write.end_to_end_us;
  return out;
}

/// The printed open-loop scenarios at the CLI geometry: a latency-vs-
/// offered-load sweep, a 5x burst, and the priority A/B (FIFO vs
/// search-first admission behind a write-heavy stream). Every run gets
/// its own backend built from `db` — the write streams mutate it.
void measure_open_loop(std::size_t rows, std::size_t dims,
                       const std::vector<std::vector<int>>& db,
                       const std::vector<std::vector<int>>& queries) {
  std::vector<serve::SearchRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
  }
  const auto fresh = data::random_int_vectors(64, dims, 4, 9);
  const auto run = [&](const OpenLoopConfig& config) {
    serve::EngineIndex backend;
    backend.configure(csp::DistanceMetric::kHamming, 2);
    backend.store(db);
    (void)backend.search(requests.front());
    return open_loop_run(backend, rows, requests, fresh, config, 17);
  };

  // Capacity estimate from a quick closed sync loop: the sweep's load
  // points are fractions of what one dispatcher can actually serve.
  double capacity;
  {
    serve::EngineIndex probe;
    probe.configure(csp::DistanceMetric::kHamming, 2);
    probe.store(db);
    (void)probe.search(requests.front());
    const std::size_t n = std::min<std::size_t>(requests.size(), 64);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) (void)probe.search(requests[i]);
    const double wall = seconds_since(t0);
    capacity = wall > 0.0 ? static_cast<double>(n) / wall : 1000.0;
  }

  std::printf("\nopen loop (Poisson arrivals, deadline 20 ms, capacity "
              "estimate %.0f q/s):\n",
              capacity);
  std::printf("  %-14s %10s %10s %9s %9s %6s\n", "scenario", "offered",
              "achieved", "p50 us", "p95 us", "shed");
  const auto row = [&](const char* name, double offered,
                       const OpenLoopResult& r) {
    std::printf("  %-14s %10.0f %10.0f %9.1f %9.1f %5.1f%%  "
                "(submit %llu, dispatch %llu)\n",
                name, offered, r.achieved_qps, r.latency.p50_us,
                r.latency.p95_us, r.shed_rate * 100.0,
                static_cast<unsigned long long>(r.shed_submit),
                static_cast<unsigned long long>(r.shed_dispatch));
  };

  OpenLoopConfig config;
  config.arrivals = std::max<std::size_t>(queries.size(), 128);
  config.deadline_us = 20000;
  for (const double load : {0.25, 0.5, 1.0, 1.5}) {
    config.offered_qps = capacity * load;
    char name[32];
    std::snprintf(name, sizeof name, "load %.2fx", load);
    row(name, config.offered_qps, run(config));
  }

  // Burst: a flat half-capacity stream with a 5x window in the middle
  // sixth — the deadline sheds the excess instead of letting the queue
  // backlog smear the tail across the rest of the run.
  config.offered_qps = capacity * 0.5;
  config.burst_mult = 5.0;
  row("burst 5x", config.offered_qps, run(config));
  config.burst_mult = 1.0;

  // Priority A/B: 30% writes riding the same stream. FIFO makes every
  // search wait behind the writes ahead of it; search-first admission
  // bounds that wait at max_writes_ahead.
  config.offered_qps = capacity * 0.5;
  config.write_fraction = 0.3;
  config.admission.order = serve::AdmissionPolicy::ClassOrder::kFifo;
  const auto fifo = run(config);
  config.admission.order = serve::AdmissionPolicy::ClassOrder::kSearchFirst;
  config.admission.max_writes_ahead = 2;
  const auto ahead = run(config);
  row("30%w fifo", config.offered_qps, fifo);
  row("30%w search1st", config.offered_qps, ahead);
  std::printf("  search-first search p95 %7.1f us vs fifo %7.1f us "
              "(write p95 %7.1f vs %7.1f us)\n",
              ahead.latency.p95_us, fifo.latency.p95_us,
              ahead.write_latency.p95_us, fifo.write_latency.p95_us);
}

/// The committed open-loop operating point: fixed 128 x 64 geometry,
/// 512 arrivals at 700 offered q/s (about half this container's
/// closed-loop capacity), 5% writes, 20 ms deadline. Emitted at its
/// own geometry on every run — like sharded_serve_large — so the
/// bench_compare shed-rate and latency gates track it no matter what
/// the positional arguments say.
void measure_open_loop_point(std::vector<benchjson::Record>& records) {
  constexpr std::size_t kRows = 128;
  constexpr std::size_t kDims = 64;
  const auto db = data::random_int_vectors(kRows, kDims, 4, 1);
  const auto queries = data::random_int_vectors(256, kDims, 4, 2);
  const auto fresh = data::random_int_vectors(64, kDims, 4, 9);
  std::vector<serve::SearchRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
  }
  serve::EngineIndex backend;
  backend.configure(csp::DistanceMetric::kHamming, 2);
  backend.store(db);
  (void)backend.search(requests.front());

  OpenLoopConfig config;
  config.offered_qps = 700.0;
  config.arrivals = 512;
  config.deadline_us = 20000;
  config.write_fraction = 0.05;
  const auto result =
      open_loop_run(backend, kRows, requests, fresh, config, 17);

  auto record = base_record("engine_open_loop", kRows, kDims);
  record.queries = result.offered;
  record.qps = result.achieved_qps;  // the existing throughput gate
  record.latency_p50_us = result.latency.p50_us;
  record.latency_p95_us = result.latency.p95_us;
  record.latency_p99_us = result.latency.p99_us;
  record.offered_qps = config.offered_qps;
  record.achieved_qps = result.achieved_qps;
  record.shed_rate = result.shed_rate;
  record.write_p50_us = result.write_latency.p50_us;
  record.write_p95_us = result.write_latency.p95_us;
  records.push_back(record);
  std::printf("engine_open_loop  offered %4.0f q/s   achieved %4.0f q/s   "
              "p95 %7.1f us   shed %.1f%%\n",
              config.offered_qps, result.achieved_qps,
              result.latency.p95_us, result.shed_rate * 100.0);
}

// Persistence-layer measurements, emitted as schema-v2 records so the
// same bench_compare gate that watches serve throughput watches
// durability cost:
//
//   *_snapshot_save     save_snapshot() per call — encode + atomic
//                       write (temp, fsync, rename, dir fsync).
//   *_snapshot_load     fresh index + load_snapshot() per call, so the
//                       number is the full cold-start path.
//   wal_append_fsync    one insert record per append, fsync-on-commit —
//                       the write-path tax every durable mutation pays.
//   wal_append_nosync   same records, SyncPolicy::kNever; the p50 gap
//                       to the fsync mode is the pure fsync cost.
//   engine_recover_*_log  recover_index() over a WAL of n_ops (short)
//                       or 4*n_ops (long) insert records — recovery
//                       time should scale with log length, which is
//                       what checkpointing exists to bound.
int run_durability(std::size_t rows, std::size_t dims, std::size_t n_ops,
                   const std::string& json_path) {
  namespace fs = std::filesystem;
  std::string dir =
      (fs::temp_directory_path() / "ferex_durability_XXXXXX").string();
  if (::mkdtemp(dir.data()) == nullptr) {
    std::perror("bench_serve: mkdtemp");
    return 1;
  }

  const auto db = data::random_int_vectors(rows, dims, 4, 1);
  const auto fresh = data::random_int_vectors(n_ops, dims, 4, 5);
  constexpr std::size_t kSnapshotIters = 16;
  constexpr std::size_t kRecoverIters = 8;

  std::printf("bench_serve --durability: %zu rows x %zu dims, %zu ops\n\n",
              rows, dims, n_ops);
  std::vector<benchjson::Record> records;

  const auto snapshot_modes = [&](const char* prefix, serve::AmIndex& index,
                                  auto make_fresh) {
    const std::string path = dir + "/snapshot.ferex";
    const double mb =
        static_cast<double>(serve::encode_snapshot(index, 0).size()) /
        (1024.0 * 1024.0);
    auto save = base_record(std::string(prefix) + "_snapshot_save", rows,
                            dims);
    benchjson::fill_timing(
        save,
        benchjson::time_calls(
            kSnapshotIters,
            [&](std::size_t) { serve::save_snapshot(index, path, 0); }),
        1);
    records.push_back(save);
    auto load = base_record(std::string(prefix) + "_snapshot_load", rows,
                            dims);
    benchjson::fill_timing(load,
                           benchjson::time_calls(kSnapshotIters,
                                                 [&](std::size_t) {
                                                   auto target = make_fresh();
                                                   (void)serve::load_snapshot(
                                                       *target, path);
                                                 }),
                           1);
    records.push_back(load);
    util::remove_file(path);
    std::printf("%-6s snapshot %6.3f MB   save %7.1f MB/s   load %7.1f MB/s\n",
                prefix, mb, save.qps * mb, load.qps * mb);
  };

  {
    serve::EngineIndex index;
    index.configure(csp::DistanceMetric::kHamming, 2);
    index.store(db);
    snapshot_modes("engine", index, [] {
      return std::make_unique<serve::EngineIndex>();
    });
  }
  {
    arch::BankedOptions opt;
    opt.bank_rows = rows / 4 ? rows / 4 : 1;
    serve::BankedIndex index(opt);
    index.configure(csp::DistanceMetric::kHamming, 2);
    index.store(db);
    snapshot_modes("banked", index, [&] {
      return std::make_unique<serve::BankedIndex>(opt);
    });
  }

  const auto wal_mode = [&](const char* label, util::SyncPolicy policy) {
    const std::string path = dir + "/wal.ferex";
    auto record = base_record(label, rows, dims);
    {
      serve::Wal wal(path, policy);
      benchjson::fill_timing(
          record,
          benchjson::time_calls(
              n_ops, [&](std::size_t i) { wal.append_insert(fresh[i]); }),
          1);
      wal.close();
    }
    util::remove_file(path);
    records.push_back(record);
    std::printf("%-18s %9.0f appends/s   p50 %7.1f us\n", label, record.qps,
                record.latency_p50_us);
    return record;
  };
  const auto synced = wal_mode("wal_append_fsync", util::SyncPolicy::kEveryAppend);
  const auto unsynced = wal_mode("wal_append_nosync", util::SyncPolicy::kNever);
  std::printf("fsync tax p50 %+.1f us per append\n\n",
              synced.latency_p50_us - unsynced.latency_p50_us);

  const auto recovery_mode = [&](const char* label, std::size_t log_records) {
    util::remove_file(dir + "/wal.ferex");
    util::remove_file(dir + "/snapshot.ferex");
    {
      serve::Wal wal(dir + "/wal.ferex", util::SyncPolicy::kNever);
      wal.append_configure(csp::DistanceMetric::kHamming, 2,
                           /*composite=*/false);
      wal.append_store(db);
      for (std::size_t i = 0; i < log_records; ++i) {
        wal.append_insert(fresh[i % fresh.size()]);
      }
      wal.close();
    }
    auto record = base_record(label, rows, dims);
    benchjson::fill_timing(record,
                           benchjson::time_calls(kRecoverIters,
                                                 [&](std::size_t) {
                                                   serve::EngineIndex target;
                                                   (void)serve::recover_index(
                                                       target, dir);
                                                 }),
                           1);
    records.push_back(record);
    std::printf("%-26s %6zu records   %8.2f ms/recovery\n", label,
                log_records + 2, record.latency_p50_us / 1000.0);
  };
  recovery_mode("engine_recover_short_log", n_ops);
  recovery_mode("engine_recover_long_log", n_ops * 4);

  std::error_code cleanup_error;
  fs::remove_all(dir, cleanup_error);

  if (!json_path.empty() &&
      !benchjson::write_json(json_path, "bench_serve_durability", records)) {
    return 1;
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--durability] [--json <path>] "
               "[--open-loop <qps>] [--assert-no-shed] [rows] [dims] "
               "[queries]  (positive integers up to 2^20)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rows = 128, dims = 64, n_queries = 256;
  std::string json_path;
  bool durability = false;
  double open_loop_qps = 0.0;
  bool assert_no_shed = false;
  std::size_t* const params[] = {&rows, &dims, &n_queries};
  std::size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (std::string(argv[i]) == "--durability") {
      durability = true;
      continue;
    }
    if (std::string(argv[i]) == "--open-loop" && i + 1 < argc) {
      char* end = nullptr;
      errno = 0;
      open_loop_qps = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || errno != 0 ||
          open_loop_qps <= 0.0 || open_loop_qps > 1e6) {
        return usage(argv[0]);
      }
      continue;
    }
    if (std::string(argv[i]) == "--assert-no-shed") {
      assert_no_shed = true;
      continue;
    }
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(argv[i], &end, 10);
    if (positional >= 3 || argv[i][0] == '-' || end == argv[i] ||
        *end != '\0' || errno != 0 || v == 0 || v > 1u << 20) {
      return usage(argv[0]);
    }
    *params[positional++] = static_cast<std::size_t>(v);
  }

  if (durability) return run_durability(rows, dims, n_queries, json_path);

  const auto db = data::random_int_vectors(rows, dims, 4, 1);
  const auto queries = data::random_int_vectors(n_queries, dims, 4, 2);
  serve::SearchRequest warm;
  warm.query = queries.front();

  if (open_loop_qps > 0.0) {
    // Smoke mode: one open-loop pass at the positional geometry. The
    // 100 ms deadline is deliberately generous — at low offered load
    // nothing should come near it, which is exactly what
    // --assert-no-shed checks.
    std::vector<serve::SearchRequest> requests(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      requests[i].query = queries[i];
    }
    serve::EngineIndex backend;
    backend.configure(csp::DistanceMetric::kHamming, 2);
    backend.store(db);
    (void)backend.search(warm);
    OpenLoopConfig config;
    config.offered_qps = open_loop_qps;
    config.arrivals = n_queries;
    config.deadline_us = 100000;
    const auto fresh = data::random_int_vectors(16, dims, 4, 9);
    const auto result =
        open_loop_run(backend, rows, requests, fresh, config, 17);
    std::printf("open loop %zu rows x %zu dims  offered %.0f q/s  "
                "achieved %.0f q/s  p95 %.1f us  shed %zu/%zu\n",
                rows, dims, config.offered_qps, result.achieved_qps,
                result.latency.p95_us, result.shed, result.offered);
    if (assert_no_shed && result.shed > 0) {
      std::fprintf(stderr,
                   "bench_serve: --assert-no-shed: %zu of %zu requests "
                   "shed at offered %.0f q/s\n",
                   result.shed, result.offered, config.offered_qps);
      return 1;
    }
    return 0;
  }

  std::printf("bench_serve: %zu rows x %zu dims, %zu queries, "
              "hardware_concurrency=%u\n\n",
              rows, dims, n_queries, std::thread::hardware_concurrency());

  std::vector<benchjson::Record> records;
  const auto report = [](const char* name, const ServeNumbers& n) {
    std::printf("%s  sync %8.0f q/s   async %8.0f q/s (mean batch %.1f)   "
                "mixed %8.0f op/s (%llu writes)   "
                "dispatch overhead p50 %+.1f us\n",
                name, n.sync_qps, n.async_qps, n.mean_batch, n.mixed_qps,
                static_cast<unsigned long long>(n.writes),
                n.roundtrip_p50_us - n.sync_p50_us);
  };

  {
    serve::EngineIndex sync_index;
    sync_index.configure(csp::DistanceMetric::kHamming, 2);
    sync_index.store(db);
    serve::EngineIndex async_backend;
    async_backend.configure(csp::DistanceMetric::kHamming, 2);
    async_backend.store(db);
    // Warm both (programming/allocation stays out of the window); the
    // warm search consumes ordinal 0 on each, keeping the twins aligned.
    (void)sync_index.search(warm);
    (void)async_backend.search(warm);
    report("EngineIndex",
           measure("engine", rows, dims, sync_index, async_backend, queries,
                   records));
  }

  {
    arch::BankedOptions opt;
    opt.bank_rows = rows / 4 ? rows / 4 : 1;
    serve::BankedIndex sync_index(opt);
    sync_index.configure(csp::DistanceMetric::kHamming, 2);
    sync_index.store(db);
    serve::BankedIndex async_backend(opt);
    async_backend.configure(csp::DistanceMetric::kHamming, 2);
    async_backend.store(db);
    (void)sync_index.search(warm);
    (void)async_backend.search(warm);
    report("BankedIndex",
           measure("banked", rows, dims, sync_index, async_backend, queries,
                   records));
  }

  measure_sharded(rows, dims, db, queries, records);
  measure_sharded_large(records);
  measure_open_loop(rows, dims, db, queries);
  measure_open_loop_point(records);

  if (!json_path.empty() &&
      !benchjson::write_json(json_path, "bench_serve", records)) {
    return 1;
  }
  return 0;
}
