#include "ladder.hpp"

#include <filesystem>

#include "alloc_count.hpp"
#include "circuit/lta.hpp"
#include "core/ferex.hpp"
#include "serve/durable.hpp"
#include "serve/wal.hpp"
#include "util/durable_file.hpp"

namespace perfbench {

using ferex::arch::BankedAm;
using ferex::core::FerexEngine;
using ferex::core::SearchFidelity;
using ferex::serve::AmIndex;
using ferex::serve::BankedIndex;
using ferex::serve::SearchRequest;
using ferex::serve::ShardedIndex;

namespace {

/// The rungs below serve.index for one query: arch.banked, then per live
/// bank core.engine with its kernel and LTA leaves. Returns whether the
/// crossbar kernel ran for this query.
bool trace_banked(Recorder& rec, const BankedAm& banked, const Vec& q,
                  std::uint64_t ordinal, std::uint64_t request,
                  Recorder::SpanId parent, bool side_probe,
                  LadderCounters& counters) {
  const Recorder::SpanId banked_span =
      timed_span(rec, "arch.banked", request, parent,
                 [&] { (void)banked.search_at(q, ordinal); });
  const bool circuit =
      banked.options().engine.fidelity == SearchFidelity::kCircuit;
  const ferex::circuit::LtaCircuit lta(banked.options().engine.lta);
  bool crossbar_ran = false;
  for (std::size_t b = 0; b < banked.bank_count(); ++b) {
    const FerexEngine& engine = banked.bank(b);
    if (engine.live_count() == 0) continue;
    const Recorder::SpanId engine_span =
        timed_span(rec, "core.engine", request, banked_span,
                   [&] { (void)engine.search_hits_at(q, 1, ordinal); });
    const auto* array = engine.array();
    // The crossbar leaf: the engine's child rung at circuit fidelity, a
    // side probe (its own root) at nominal fidelity.
    std::vector<double> currents;
    if (circuit || side_probe) {
      const auto before = array->scl_solve_stats();
      const auto span = timed_span(
          rec, "circuit.crossbar", request,
          circuit ? engine_span : Recorder::kNoParent,
          [&] { currents = array->search(q, /*parallel_rows=*/false); });
      const auto after = array->scl_solve_stats();
      counters.solves += after.solves - before.solves;
      counters.iterations += after.iterations - before.iterations;
      counters.non_converged += after.non_converged - before.non_converged;
      counters.device_passes +=
          static_cast<double>(after.iterations - before.iterations) *
          static_cast<double>(array->dims() * array->fefets_per_cell());
      counters.crossbar_us += rec.duration_of(span);
      crossbar_ran = true;
    }
    std::vector<int> distances;
    if (!circuit || side_probe) {
      timed_span(rec, "circuit.nominal", request,
                 circuit ? Recorder::kNoParent : engine_span,
                 [&] { distances = array->nominal_distances(q); });
    }
    // The LTA leaf decides on what this engine senses.
    if (circuit) {
      ferex::util::Rng noise(ordinal);
      timed_span(rec, "circuit.lta", request, engine_span, [&] {
        (void)lta.decide_k_detailed(currents, array->unit_current_a(), 1,
                                    &noise, array->live_mask());
      });
    } else {
      const std::vector<double> sensed(distances.begin(), distances.end());
      timed_span(rec, "circuit.lta", request, engine_span, [&] {
        (void)lta.decide_k_detailed(sensed, 1.0, 1, nullptr,
                                    array->live_mask());
      });
    }
  }
  return crossbar_ran;
}

/// serve.index (AmIndex::search_at) and the rungs below it.
bool trace_index_query(Recorder& rec, const BankedIndex& index, const Vec& q,
                       std::uint64_t ordinal, std::uint64_t request,
                       Recorder::SpanId parent, bool side_probe,
                       LadderCounters& counters) {
  const SearchRequest req(q, 1);
  const bool root = parent == Recorder::kNoParent;
  const std::uint64_t allocs = allocation_count();
  const Recorder::SpanId span =
      timed_span(rec, "serve.index", request, parent,
                 [&] { (void)index.search_at(req, ordinal); });
  if (root) {
    counters.root_allocs += allocation_count() - allocs;
    ++counters.root_calls;
  }
  return trace_banked(rec, index.banked(), q, ordinal, request, span,
                      side_probe, counters);
}

}  // namespace

void trace_index(Recorder& rec, const BankedIndex& index,
                 const std::vector<Vec>& queries, std::size_t side_queries,
                 LadderCounters& counters) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (trace_index_query(rec, index, queries[i], kProbeOrdinal + i,
                          kProbeOrdinal + i, Recorder::kNoParent,
                          i < side_queries, counters)) {
      ++counters.crossbar_queries;
    }
  }
}

void trace_fleet(Recorder& rec, ShardedIndex& fleet,
                 const std::vector<Vec>& queries, bool deep,
                 LadderCounters& counters) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint64_t ordinal = kProbeOrdinal + i;
    const std::uint64_t request = 2 * kProbeOrdinal + i;
    const SearchRequest req(queries[i], 1, ordinal);
    const std::uint64_t allocs = allocation_count();
    const Recorder::SpanId fleet_span =
        timed_span(rec, "serve.sharded", request, Recorder::kNoParent,
                   [&] { (void)fleet.search_at(req, ordinal); });
    if (deep) {
      counters.root_allocs += allocation_count() - allocs;
      ++counters.root_calls;
    }
    bool crossbar_ran = false;
    for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
      if (fleet.shard(s).live_count() == 0) continue;
      const Recorder::SpanId shard_span =
          timed_span(rec, "serve.shard", request, fleet_span,
                     [&] { (void)fleet.search_shard(s, req); });
      if (deep) {
        const auto& shard = dynamic_cast<const BankedIndex&>(fleet.shard(s));
        crossbar_ran |= trace_index_query(rec, shard, queries[i], ordinal,
                                          request, shard_span,
                                          /*side_probe=*/i < kSideQueries,
                                          counters);
      }
    }
    if (crossbar_ran) ++counters.crossbar_queries;
  }
}

void report_ladder(const Recorder& rec, const LadderCounters& c,
                   Outcome& out) {
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  out.layer("circuit.crossbar_search_us",
            median(rec.durations("circuit.crossbar")), "us");
  out.layer("circuit.scl_passes_per_solve",
            per(static_cast<double>(c.iterations),
                static_cast<double>(c.solves)),
            "count");
  out.layer("circuit.device_passes_per_query",
            per(c.device_passes, static_cast<double>(c.crossbar_queries)),
            "count");
  out.layer("circuit.ns_per_device_pass",
            per(c.crossbar_us * 1e3, c.device_passes), "ns");
  out.layer("circuit.scl_non_converged",
            static_cast<double>(c.non_converged), "count");
  out.layer("circuit.lta_decide_us", median(rec.durations("circuit.lta")),
            "us");
  out.layer("circuit.nominal_distances_us",
            median(rec.durations("circuit.nominal")), "us");
  out.layer("core.engine_self_us", median(rec.self_times("core.engine")),
            "us");
  out.layer("arch.banked_self_us", median(rec.self_times("arch.banked")),
            "us");
  out.layer("serve.index_self_us", median(rec.self_times("serve.index")),
            "us");
  out.layer("serve.shard_scatter_self_us",
            median(rec.self_times("serve.sharded")), "us");
  out.layer("serve.shard_straggler_us",
            median(rec.child_spread("serve.sharded")), "us");
  out.layer("util.allocs_per_search",
            per(static_cast<double>(c.root_allocs),
                static_cast<double>(c.root_calls)),
            "count");
  out.layer("trace.unexplained_share", rec.unexplained_share(), "share");
}

double tracing_overhead_share(const std::function<void(std::size_t)>& root,
                              std::size_t calls, std::size_t pairs) {
  Recorder scratch;
  const auto batch = [&](bool traced) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) {
      if (traced) {
        timed_span(scratch, "trace.overhead", i, Recorder::kNoParent,
                   [&] { root(i); });
      } else {
        root(i);
      }
    }
    return us_between(start, Clock::now());
  };
  std::vector<double> ratios;
  for (std::size_t p = 0; p < pairs; ++p) {
    // Alternate which half runs first, so warm caches favour neither.
    const bool traced_first = p % 2 == 0;
    const double first = batch(traced_first);
    const double second = batch(!traced_first);
    ratios.push_back(traced_first ? first / second - 1.0
                                  : second / first - 1.0);
  }
  return median(ratios);
}

Op next_write(ferex::util::Rng& rng, Oracle& model, std::size_t dims,
              int levels, std::size_t min_live) {
  const auto random_live_row = [&] {
    for (;;) {
      const std::size_t row = rng.uniform_below(model.slots());
      if (model.live(row)) return row;
    }
  };
  Op op;
  op.vector = random_vector(rng, dims, levels);
  const double draw = rng.uniform();
  const bool slot_free = model.live_count() < model.slots();
  if (draw < 0.2 && slot_free) {
    op.kind = Op::Kind::kInsert;
    op.row = model.insert(op.vector);
  } else if (draw < 0.4 && model.live_count() > min_live) {
    op.kind = Op::Kind::kRemove;
    op.row = random_live_row();
    op.vector.clear();
    model.remove(op.row);
  } else {
    op.kind = Op::Kind::kUpdate;
    op.row = random_live_row();
    model.update(op.row, op.vector);
  }
  return op;
}

std::vector<double> apply_writes(AmIndex& index, const std::vector<Op>& writes,
                                 Outcome& out) {
  std::vector<double> latency;
  latency.reserve(writes.size());
  for (const Op& op : writes) {
    ferex::serve::WriteReceipt receipt;
    const auto start = Clock::now();
    switch (op.kind) {
      case Op::Kind::kUpdate:
        receipt = index.update(op.row, op.vector);
        break;
      case Op::Kind::kInsert:
        receipt = index.insert(op.vector);
        break;
      case Op::Kind::kRemove:
        receipt = index.remove(op.row);
        break;
      case Op::Kind::kSearch:
        continue;
    }
    latency.push_back(us_between(start, Clock::now()));
    ++out.attempted;
    const std::string why = check_receipt(op.row, receipt);
    if (!why.empty()) out.fail_check("sync write: " + why);
  }
  return latency;
}

WalProbe wal_probe(const std::string& dir, ferex::csp::DistanceMetric metric,
                   const std::vector<Vec>& database,
                   const std::vector<Op>& writes) {
  std::filesystem::create_directories(dir);
  ferex::serve::Wal wal(dir + "/wal.ferex",
                        ferex::util::SyncPolicy::kEveryAppend);
  wal.append_configure(metric, 2, /*composite=*/false);
  wal.append_store(database);
  const std::uint64_t before = wal.size();
  WalProbe probe;
  for (const Op& op : writes) {
    const auto start = Clock::now();
    switch (op.kind) {
      case Op::Kind::kUpdate:
        wal.append_update(op.row, op.vector);
        probe.append_update_us.push_back(us_between(start, Clock::now()));
        break;
      case Op::Kind::kInsert:
        wal.append_insert(op.vector);
        break;
      case Op::Kind::kRemove:
        wal.append_remove(op.row);
        break;
      case Op::Kind::kSearch:
        break;
    }
  }
  probe.bytes_per_write =
      writes.empty() ? 0.0
                     : static_cast<double>(wal.size() - before) /
                           static_cast<double>(writes.size());
  wal.close();
  return probe;
}

void recover_into(AmIndex& fresh, const std::string& dir) {
  ferex::serve::recover_index(fresh, dir);
}

std::size_t wal_records(const std::string& dir) {
  return ferex::serve::read_wal(dir + "/wal.ferex").records.size();
}

void check_recovered(const AmIndex& live, const AmIndex& recovered,
                     const std::vector<Vec>& probes, Outcome& out) {
  for (std::size_t i = 0; i < probes.size(); ++i) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{5}}) {
      const SearchRequest req(probes[i], k);
      const std::uint64_t ordinal = kProbeOrdinal + i;
      ++out.attempted;
      const std::string why = check_identical(
          live.search_at(req, ordinal), recovered.search_at(req, ordinal));
      if (!why.empty()) out.fail_check("recovery: " + why);
    }
  }
}

double checkpoint_probe_ms(
    const std::string& dir,
    const std::function<std::unique_ptr<AmIndex>()>& make_index) {
  const auto index = make_index();
  ferex::serve::DurableIndex durable(*index, dir);
  const auto start = Clock::now();
  durable.checkpoint();
  return us_between(start, Clock::now()) * 1e-3;
}

double configure_empty_us(
    const ferex::core::FerexOptions& options,
    const std::vector<ferex::csp::DistanceMetric>& metrics) {
  std::vector<double> times;
  for (int round = 0; round < 3; ++round) {
    for (const auto metric : metrics) {
      FerexEngine engine(options);
      const auto start = Clock::now();
      engine.configure(metric, 2);
      times.push_back(us_between(start, Clock::now()));
    }
  }
  return median(times);
}

double fsync_p50_us(const std::string& dir) {
  const std::string path = dir + "/fsync-probe.bin";
  std::vector<double> times;
  {
    ferex::util::AppendFile file(path, ferex::util::SyncPolicy::kEveryAppend);
    const std::vector<std::uint8_t> record(256, 0x5a);
    for (int i = 0; i < 200; ++i) {
      const auto start = Clock::now();
      file.append(record.data(), record.size());
      times.push_back(us_between(start, Clock::now()));
    }
  }
  ferex::util::remove_file(path);
  return median(times);
}

double reference_search_us() {
  ferex::core::FerexOptions options;
  options.fidelity = SearchFidelity::kCircuit;
  FerexEngine engine(options);
  engine.configure(ferex::csp::DistanceMetric::kHamming, 2);
  ferex::util::Rng rng(0x64'32);
  engine.store(random_database(rng, 64, 32, 4));
  std::vector<double> times;
  for (int i = 0; i < 32; ++i) {
    const Vec q = random_vector(rng, 32, 4);
    const auto start = Clock::now();
    (void)engine.array()->search_reference(q);
    times.push_back(us_between(start, Clock::now()));
  }
  return median(times);
}

}  // namespace perfbench
