#include "workloads.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "ladder.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "serve/async_index.hpp"
#include "serve/banked_index.hpp"
#include "serve/sharded_index.hpp"
#include "trace.hpp"

namespace perfbench {

using ferex::core::SearchFidelity;
using ferex::csp::DistanceMetric;
using ferex::serve::AmIndex;
using ferex::serve::AsyncAmIndex;
using ferex::serve::BankedIndex;
using ferex::serve::SearchRequest;
using ferex::serve::SearchResponse;
using ferex::serve::ShardedIndex;

namespace {

constexpr std::size_t kDims = 64;
constexpr int kLevels = 4;  // 2-bit values
constexpr int kBits = 2;
/// The open-loop session runs as this many back-to-back segments, with
/// one round of probes after each (the circuit session's rounds are its
/// metric phases), so the probes' samples spread over the run.
constexpr std::size_t kRounds = 30;
constexpr std::size_t kWritesPerRound = 100;
constexpr std::size_t kRecoveryProbes = 16;
constexpr std::size_t kWarmup = 32;

// Random-stream salts: one independent stream per purpose.
enum : std::uint64_t {
  kSaltDatabase = 1,
  kSaltSchedule,
  kSaltOps,
  kSaltProbe,
  kSaltWrites,
  kSaltWarmup,
  kSaltPhase = 1000,
};

ferex::arch::BankedOptions banked_options(SearchFidelity fidelity) {
  ferex::arch::BankedOptions options;
  options.bank_rows = 128;
  options.engine.fidelity = fidelity;
  return options;
}

ferex::serve::ShardedOptions fleet_options(SearchFidelity fidelity) {
  ferex::serve::ShardedOptions options;
  options.shards = 4;
  options.shard_block = 128;
  options.backend = ferex::serve::ShardBackend::kBanked;
  options.bank_rows = 128;
  options.engine.fidelity = fidelity;
  return options;
}

std::vector<Vec> queries(const Config& config, std::uint64_t salt,
                         const std::vector<Vec>& db, std::size_t n) {
  auto rng = stream(config, salt);
  std::vector<Vec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(make_query(rng, db, kLevels));
  return out;
}

std::vector<Op> probe_writes(const Config& config, const std::vector<Vec>& db,
                             DistanceMetric metric, std::size_t count) {
  Oracle model(metric, kDims);
  model.store(db);
  auto rng = stream(config, kSaltWrites);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < count; ++i) {
    ops.push_back(next_write(rng, model, kDims, kLevels, db.size() / 2));
  }
  return ops;
}

/// Splits a schedule into kRounds segments of `seconds / kRounds` each,
/// every segment's due times counted from its own start.
std::vector<std::vector<Op>> segments(std::vector<Op> ops, double seconds) {
  const double segment_us = seconds * 1e6 / kRounds;
  std::vector<std::vector<Op>> out(kRounds);
  for (Op& op : ops) {
    const auto s = std::min<std::size_t>(
        kRounds - 1, static_cast<std::size_t>(op.due_us / segment_us));
    op.due_us -= static_cast<double>(s) * segment_us;
    out[s].push_back(std::move(op));
  }
  return out;
}

/// End-to-end values a workload measures; success_rate and peak_rss_mb
/// are added by the caller from the Outcome itself. Every value is taken
/// over the whole run: latency percentiles over all of its searches, the
/// probe figures as the median over all rounds.
struct EndToEnd {
  double setup_s = 0.0;
  double search_p50_us = 0.0;
  double search_p90_us = 0.0;
  double search_qps = 0.0;
  double reconfigure_ms = 0.0;
  double recover_s = 0.0;
  double top1_agreement = 0.0;
};

/// Per-layer values measured outside the ladder replay.
struct Layers {
  double margin_sigma_p10 = 0.0;
  double program_row_us = 0.0;
  double configure_us = 0.0;
  double queue_wait_p50_us = 0.0;
  double queue_wait_p95_us = 0.0;
  double batch_mean = 0.0;
  double async_tax_us = 0.0;
  double write_apply_us = 0.0;
  double wal_append_us = 0.0;
  double wal_bytes_per_write = 0.0;
  double checkpoint_ms = 0.0;
  double recover_records_per_s = 0.0;
  double late_p90_us = 0.0;
  double pooled_p90_us = 0.0;
  double overhead_share = 0.0;
};

void emit(const EndToEnd& e, const Layers& l, const Recorder& rec,
          const LadderCounters& counters, Outcome& out) {
  out.e2e("setup_s", e.setup_s, "s");
  out.e2e("search_p50_us", e.search_p50_us, "us");
  out.e2e("search_p90_us", e.search_p90_us, "us");
  out.e2e("search_qps", e.search_qps, "1/s");
  out.e2e("reconfigure_ms", e.reconfigure_ms, "ms");
  out.e2e("recover_s", e.recover_s, "s");
  out.e2e("top1_agreement", e.top1_agreement, "share");

  report_ladder(rec, counters, out);
  out.layer("circuit.margin_sigma_p10", l.margin_sigma_p10, "sigma");
  out.layer("circuit.program_row_us", l.program_row_us, "us");
  out.layer("encode.configure_us", l.configure_us, "us");
  out.layer("serve.async_queue_wait_p50_us", l.queue_wait_p50_us, "us");
  out.layer("serve.async_queue_wait_p95_us", l.queue_wait_p95_us, "us");
  out.layer("serve.async_batch_mean", l.batch_mean, "count");
  out.layer("serve.async_tax_us", l.async_tax_us, "us");
  out.layer("serve.write_apply_us", l.write_apply_us, "us");
  out.layer("serve.wal_append_us", l.wal_append_us, "us");
  out.layer("serve.wal_bytes_per_write", l.wal_bytes_per_write, "bytes");
  out.layer("serve.checkpoint_ms", l.checkpoint_ms, "ms");
  out.layer("serve.recover_records_per_s", l.recover_records_per_s, "1/s");
  out.layer("loadgen.late_p90_us", l.late_p90_us, "us");
  out.layer("loadgen.pooled_p90_us", l.pooled_p90_us, "us");
  out.layer("trace.overhead_share", l.overhead_share, "share");
}

void take_async_stats(const AsyncAmIndex& server, Layers& layers) {
  const auto stats = server.stats();
  layers.queue_wait_p50_us = stats.search.queue_wait_us.p50_us;
  layers.queue_wait_p95_us = stats.search.queue_wait_us.p95_us;
  layers.batch_mean = stats.batches > 0
                          ? static_cast<double>(stats.search.served) /
                                static_cast<double>(stats.batches)
                          : 0.0;
}

std::function<std::unique_ptr<AmIndex>()> banked_factory(
    const ferex::arch::BankedOptions& options) {
  return [options] { return std::make_unique<BankedIndex>(options); };
}

/// The probes that run once per round, on the round's CPU, so that their
/// samples spread over the run like the session's: one full setup of the
/// workload's stack, one batch of synchronous writes on a twin index
/// (then, if asked, one reconfigure of it), and one replay of the probe
/// WAL into a fresh index. Times are in reference microseconds.
struct RoundProbes {
  std::function<void()> setup;  ///< builds and drops one stack
  AmIndex* write_twin = nullptr;
  std::vector<Op> writes;  ///< kWritesPerRound per round, in order
  std::optional<DistanceMetric> reconfigure;
  std::string replay_dir;
  std::function<std::unique_ptr<AmIndex>()> make_replay;

  std::size_t rounds = 0;
  std::vector<double> setup_s;
  std::vector<double> write_us;
  std::vector<double> reconfigure_ms;
  std::vector<double> recover_s;
  std::unique_ptr<AmIndex> last_replay;

  void round(Outcome& out) {
    setup_s.push_back(reference_us(setup) * 1e-6);
    const std::size_t first = std::min(rounds * kWritesPerRound, writes.size());
    const std::size_t last = std::min(first + kWritesPerRound, writes.size());
    const std::vector<Op> batch(writes.begin() + static_cast<long>(first),
                                writes.begin() + static_cast<long>(last));
    for (const double us : apply_writes(*write_twin, batch, out)) {
      write_us.push_back(us);
    }
    if (reconfigure) {
      reconfigure_ms.push_back(
          reference_us([&] { write_twin->configure(*reconfigure, kBits); }) *
          1e-3);
    }
    last_replay.reset();
    last_replay = make_replay();
    recover_s.push_back(
        reference_us([&] { recover_into(*last_replay, replay_dir); }) * 1e-6);
    ++rounds;
  }
};

/// Journals configure + store + every probe write to a WAL in `dir` and
/// fills the WAL per-layer values. `db` is what the WAL's store holds.
void journal_probe_writes(const std::string& dir, DistanceMetric metric,
                          const std::vector<Vec>& db,
                          const std::vector<Op>& writes, Layers& layers) {
  const WalProbe wal = wal_probe(dir, metric, db, writes);
  layers.wal_append_us = median(wal.append_update_us);
  layers.wal_bytes_per_write = wal.bytes_per_write;
}

/// Open-loop search latencies: over the whole session, and the p50 and
/// p90 of each segment.
struct SessionTimes {
  std::vector<double> search;
  std::vector<double> search_k1;
  std::vector<double> late;
  std::vector<double> segment_p50;
  std::vector<double> segment_p90;
  double span_us = 0.0;

  void add(const std::vector<Op>& ops, const SessionReport& report) {
    span_us += report.span_us;
    const std::size_t first = search.size();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const OpResult& r = report.results[i];
      late.push_back(r.late_us);
      if (r.failed) continue;
      search.push_back(r.latency_us);
      if (ops[i].k == 1) search_k1.push_back(r.latency_us);
    }
    const std::vector<double> segment(search.begin() + static_cast<long>(first),
                                      search.end());
    if (segment.empty()) return;
    segment_p50.push_back(percentile(segment, 50));
    segment_p90.push_back(percentile(segment, 90));
  }
};

void warm_up(AsyncAmIndex& server, const std::vector<Vec>& warm) {
  for (const Vec& q : warm) (void)server.submit(SearchRequest(q, 1)).get();
}

void write_spans(const Config& config, const Recorder& rec) {
  if (config.trace) {
    rec.write_jsonl(config.results_dir + "/spans-" + config.workload +
                    ".jsonl");
  }
}

}  // namespace

Outcome circuit_reconfig(const Config& config) {
  constexpr std::size_t kRows = 512;
  constexpr std::size_t kCycles = 10;
  constexpr std::size_t kPhases = kCycles * 3;
  // Queries at the head of every phase always run, whatever the time
  // budget; top-1 agreement and margins are taken over them only, so
  // they repeat exactly for a seed.
  constexpr std::size_t kExactPrefix = 96;
  constexpr std::size_t kLadderQueries = 24;
  constexpr std::size_t kOverheadCalls = 8;
  constexpr std::size_t kOverheadPairs = 8;
  const DistanceMetric metrics[] = {DistanceMetric::kHamming,
                                    DistanceMetric::kManhattan,
                                    DistanceMetric::kEuclideanSquared};
  Outcome out;
  EndToEnd e2e;
  Layers layers;
  Recorder rec;
  LadderCounters counters;

  const CpuRotation rotation;
  rotation.pin(0);
  auto db_rng = stream(config, kSaltDatabase);
  const auto db = random_database(db_rng, kRows, kDims, kLevels);
  const auto options = banked_options(SearchFidelity::kCircuit);
  const auto warm = queries(config, kSaltWarmup, db, 4);

  std::vector<double> store_us;
  const auto build = [&] {
    auto index = std::make_unique<BankedIndex>(options);
    index->configure(metrics[0], kBits);
    const auto store_start = Clock::now();
    index->store(db);
    store_us.push_back(us_between(store_start, Clock::now()));
    for (std::size_t i = 0; i < warm.size(); ++i) {
      (void)index->search(SearchRequest(warm[i], 1, kProbeOrdinal + i));
    }
    return index;
  };
  RoundProbes probes;
  probes.setup = [&] { build(); };
  std::unique_ptr<BankedIndex> index;
  probes.setup_s.push_back(reference_us([&] { index = build(); }) * 1e-6);

  // Writes and recovery on a twin: the session has neither.
  probes.writes =
      probe_writes(config, db, metrics[0], kPhases * kWritesPerRound);
  BankedIndex twin(options);
  twin.configure(metrics[0], kBits);
  twin.store(db);
  probes.write_twin = &twin;
  probes.replay_dir = config.scratch_dir + "/durability";
  probes.make_replay = banked_factory(options);
  journal_probe_writes(probes.replay_dir, metrics[0], db, probes.writes,
                       layers);

  Oracle oracle(metrics[0], kDims);
  oracle.store(db);
  std::vector<std::vector<double>> reconfigure_ms(3);
  std::vector<double> latency;
  std::vector<double> gaps;
  std::vector<double> margins;
  std::size_t top1_total = 0;
  std::size_t top1_hits = 0;
  const double phase_us = config.seconds * 1e6 / static_cast<double>(kPhases);
  std::uint64_t request = 0;
  for (std::size_t phase = 0; phase < kPhases; ++phase) {
    rotation.pin(phase);
    const DistanceMetric metric = metrics[phase % 3];
    reconfigure_ms[phase % 3].push_back(
        reference_us([&] { index->configure(metric, kBits); }) * 1e-3);
    oracle.set_metric(metric);
    const double sigma_a = options.engine.lta.offset_sigma_rel *
                           index->banked().bank(0).array()->unit_current_a();
    auto rng = stream(config, kSaltPhase + phase);
    const auto phase_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::micro>(phase_us));
    std::optional<Clock::time_point> previous_end;
    for (std::size_t i = 0;; ++i) {
      if (i >= kExactPrefix && Clock::now() >= phase_end) break;
      const Vec q = make_query(rng, db, kLevels);
      const std::size_t k = rng.bernoulli(0.25) ? 5 : 1;
      const SearchRequest req(q, k, (std::uint64_t{phase} << 32) | i);
      SearchResponse response;
      bool failed = false;
      if (previous_end) gaps.push_back(us_between(*previous_end, Clock::now()));
      // reference_us() inlined, so that the span is the search alone.
      const double yard_before = yardstick_us();
      const auto start = Clock::now();
      try {
        response = index->search(req);
      } catch (const std::exception&) {
        failed = true;
      }
      const auto end = Clock::now();
      const double yard = 0.5 * (yard_before + yardstick_us());
      if (config.trace) {
        rec.record("client.search", request, Recorder::kNoParent, start, end);
      }
      ++request;
      ++out.attempted;
      if (failed) {
        ++out.failed;
        previous_end = Clock::now();
        continue;
      }
      latency.push_back(us_between(start, end) * kYardstickReferenceUs / yard);
      const std::string why = check_well_formed(oracle, q, k, response);
      if (!why.empty()) out.fail_check("circuit search: " + why);
      if (k == 1 && i < kExactPrefix) {
        ++top1_total;
        top1_hits += top1_agrees(oracle, q, response) ? 1 : 0;
        margins.push_back(response.hits[0].margin_a / sigma_a);
      }
      previous_end = Clock::now();
    }
    probes.round(out);
  }
  e2e.setup_s = median(probes.setup_s);
  e2e.search_p50_us = percentile(latency, 50);
  e2e.search_p90_us = percentile(latency, 90);
  layers.pooled_p90_us = e2e.search_p90_us;
  double busy_us = 0.0;
  for (const double us : latency) busy_us += us;
  e2e.search_qps = static_cast<double>(latency.size()) / (busy_us * 1e-6);
  // The three metrics re-encode at different costs: average them.
  e2e.reconfigure_ms = (median(reconfigure_ms[0]) + median(reconfigure_ms[1]) +
                        median(reconfigure_ms[2])) /
                       3.0;
  e2e.recover_s = median(probes.recover_s);
  e2e.top1_agreement =
      static_cast<double>(top1_hits) / static_cast<double>(top1_total);
  check_recovered(twin, *probes.last_replay,
                  queries(config, kSaltProbe, db, kRecoveryProbes), out);

  layers.program_row_us = median(store_us) / kRows;
  layers.margin_sigma_p10 = percentile(margins, 10);
  layers.late_p90_us = percentile(gaps, 90);
  layers.write_apply_us = median(probes.write_us);
  layers.recover_records_per_s =
      static_cast<double>(wal_records(probes.replay_dir)) / e2e.recover_s;
  layers.checkpoint_ms =
      checkpoint_probe_ms(probes.replay_dir, banked_factory(options));

  // The ladder, then the same queries through the async front door.
  const auto ladder = queries(config, kSaltProbe, db, kLadderQueries);
  trace_index(rec, *index, ladder, ladder.size(), counters);
  // Before the probe fleet adds its shards' serve.index spans.
  const double sync_p50_us = median(rec.durations("serve.index"));
  layers.overhead_share = tracing_overhead_share(
      [&](std::size_t i) {
        (void)index->search_at(SearchRequest(ladder[i], 1), kProbeOrdinal + i);
      },
      kOverheadCalls, kOverheadPairs);
  {
    ShardedIndex fleet(fleet_options(SearchFidelity::kCircuit));
    fleet.configure(metrics[(kPhases - 1) % 3], kBits);
    fleet.store(db);
    trace_fleet(rec, fleet, ladder, /*deep=*/false, counters);
  }
  {
    AsyncAmIndex server(*index);
    std::vector<double> client_us;
    for (const Vec& q : ladder) {
      const auto start = Clock::now();
      (void)server.submit(SearchRequest(q, 1)).get();
      client_us.push_back(us_between(start, Clock::now()));
    }
    take_async_stats(server, layers);
    layers.async_tax_us = median(client_us) - sync_p50_us;
  }
  layers.configure_us = configure_empty_us(
      options.engine, {metrics[0], metrics[1], metrics[2]});
  emit(e2e, layers, rec, counters, out);
  write_spans(config, rec);
  return out;
}

Outcome fleet_light(const Config& config) {
  constexpr std::size_t kRows = 1024;
  constexpr double kRate = 2000.0;
  constexpr std::size_t kLadderQueries = 256;
  constexpr std::size_t kOverheadPairs = 16;
  const DistanceMetric metric = DistanceMetric::kManhattan;
  Outcome out;
  EndToEnd e2e;
  Layers layers;
  Recorder rec;
  LadderCounters counters;

  auto db_rng = stream(config, kSaltDatabase);
  const auto db = random_database(db_rng, kRows, kDims, kLevels);
  const auto options = fleet_options(SearchFidelity::kNominal);
  const auto warm = queries(config, kSaltWarmup, db, kWarmup);
  const CpuRotation rotation;
  rotation.pin(0);
  const KeepAwake awake;

  std::vector<Op> ops;
  {
    auto rng = stream(config, kSaltOps);
    auto schedule_rng = stream(config, kSaltSchedule);
    for (const double due :
         poisson_schedule(schedule_rng, kRate, config.seconds)) {
      Op op;
      op.due_us = due;
      op.vector = make_query(rng, db, kLevels);
      op.k = rng.bernoulli(0.2) ? 8 : 1;
      ops.push_back(std::move(op));
    }
  }
  const auto session = segments(std::move(ops), config.seconds);

  // Members are destroyed in reverse: the front door before its fleet.
  struct Stack {
    std::unique_ptr<ShardedIndex> fleet;
    std::unique_ptr<AsyncAmIndex> server;
  };
  std::vector<double> store_us;
  const auto build = [&] {
    Stack stack;
    stack.fleet = std::make_unique<ShardedIndex>(options);
    stack.fleet->configure(metric, kBits);
    const auto store_start = Clock::now();
    stack.fleet->store(db);
    store_us.push_back(us_between(store_start, Clock::now()));
    stack.server = std::make_unique<AsyncAmIndex>(*stack.fleet);
    warm_up(*stack.server, warm);
    return stack;
  };
  RoundProbes probes;
  probes.setup = [&] { build(); };
  Stack stack;
  probes.setup_s.push_back(reference_us([&] { stack = build(); }) * 1e-6);

  // Writes and reconfigures on a twin fleet; recovery of the same writes
  // journaled for a BankedIndex (snapshots cover single indexes only).
  probes.writes = probe_writes(config, db, metric, kRounds * kWritesPerRound);
  ShardedIndex twin(options);
  twin.configure(metric, kBits);
  twin.store(db);
  probes.write_twin = &twin;
  probes.reconfigure = metric;
  const auto banked = banked_options(SearchFidelity::kNominal);
  BankedIndex banked_twin(banked);
  banked_twin.configure(metric, kBits);
  banked_twin.store(db);
  (void)apply_writes(banked_twin, probes.writes, out);
  probes.replay_dir = config.scratch_dir + "/durability";
  probes.make_replay = banked_factory(banked);
  journal_probe_writes(probes.replay_dir, metric, db, probes.writes, layers);

  SessionTimes t;
  Oracle oracle(metric, kDims);
  oracle.store(db);
  double top1 = 1.0;
  for (std::size_t round = 0; round < session.size(); ++round) {
    rotation.pin(round);
    const std::vector<Op>& segment = session[round];
    const SessionReport report =
        run_open_loop(*stack.server, segment, config.trace ? &rec : nullptr);
    t.add(segment, report);
    top1 = std::min(top1, verify_session(segment, report, oracle, out));
    probes.round(out);
  }
  take_async_stats(*stack.server, layers);
  stack.server.reset();  // hands the fleet back to synchronous use

  e2e.setup_s = median(probes.setup_s);
  // The median segment: co-tenant stalls that hit a few segments hard
  // move the pooled tail of a run several times over; the pooled p90 is
  // per-layer.
  e2e.search_p50_us = median(t.segment_p50);
  e2e.search_p90_us = median(t.segment_p90);
  e2e.search_qps = static_cast<double>(t.search.size()) / (t.span_us * 1e-6);
  layers.pooled_p90_us = percentile(t.search, 90);
  e2e.reconfigure_ms = median(probes.reconfigure_ms);
  e2e.recover_s = median(probes.recover_s);
  e2e.top1_agreement = top1;
  check_recovered(banked_twin, *probes.last_replay,
                  queries(config, kSaltProbe, db, kRecoveryProbes), out);

  layers.program_row_us = median(store_us) / kRows;
  layers.late_p90_us = percentile(t.late, 90);
  layers.write_apply_us = median(probes.write_us);
  layers.recover_records_per_s =
      static_cast<double>(wal_records(probes.replay_dir)) / e2e.recover_s;
  layers.checkpoint_ms =
      checkpoint_probe_ms(probes.replay_dir, banked_factory(banked));

  const auto ladder = queries(config, kSaltProbe, db, kLadderQueries);
  trace_fleet(rec, *stack.fleet, ladder, /*deep=*/true, counters);
  layers.overhead_share = tracing_overhead_share(
      [&](std::size_t i) {
        (void)stack.fleet->search_at(SearchRequest(ladder[i], 1),
                                     kProbeOrdinal + i);
      },
      ladder.size(), kOverheadPairs);
  layers.async_tax_us =
      median(t.search_k1) - median(rec.durations("serve.sharded"));
  layers.configure_us = configure_empty_us(options.engine, {metric});
  emit(e2e, layers, rec, counters, out);
  write_spans(config, rec);
  return out;
}

}  // namespace perfbench
