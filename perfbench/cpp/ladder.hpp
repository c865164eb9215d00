// The per-layer half of the benchmark: the traced ladder replay and the
// post-session probes. Everything here calls public functions of the
// system from outside; nothing is instrumented inside src/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "ops.hpp"
#include "oracle.hpp"
#include "serve/am_index.hpp"
#include "serve/banked_index.hpp"
#include "serve/sharded_index.hpp"
#include "trace.hpp"

namespace perfbench {

/// Counters gathered by a ladder replay.
struct LadderCounters {
  std::uint64_t solves = 0;         ///< ScL solves in crossbar rungs
  std::uint64_t iterations = 0;     ///< fixed-point passes in those solves
  std::uint64_t non_converged = 0;  ///< solves that hit the iteration cap
  double device_passes = 0.0;       ///< passes x devices per row
  double crossbar_us = 0.0;         ///< time in those crossbar rungs
  std::size_t crossbar_queries = 0;  ///< queries the crossbar rungs served
  std::uint64_t root_allocs = 0;    ///< operator new calls in root rungs
  std::size_t root_calls = 0;
};

/// Ordinal space of the ladder and probes, clear of session ordinals.
inline constexpr std::uint64_t kProbeOrdinal = std::uint64_t{1} << 40;

/// Nominal workloads time the circuit kernel on this many ladder queries
/// only: it is not their path, and each call costs milliseconds.
inline constexpr std::size_t kSideQueries = 4;

/// Replays k = 1 queries through serve.index -> arch.banked ->
/// core.engine -> circuit.crossbar / circuit.nominal + circuit.lta on one
/// BankedIndex. The leaf of the index's own fidelity is the engine's child
/// rung; the other leaf is timed on `side_queries` queries as a separate
/// root span, so both kernels are measured in every workload.
void trace_index(Recorder& rec, const ferex::serve::BankedIndex& index,
                 const std::vector<Vec>& queries, std::size_t side_queries,
                 LadderCounters& counters);

/// Replays k = 1 queries through serve.sharded -> serve.shard (one per
/// live shard, ShardedIndex::search_shard). With `deep`, each shard's
/// rung continues into its BankedIndex as in trace_index, with side
/// probes on the first kSideQueries queries.
void trace_fleet(Recorder& rec, ferex::serve::ShardedIndex& fleet,
                 const std::vector<Vec>& queries, bool deep,
                 LadderCounters& counters);

/// Emits the rung metrics of a replay (and the session-independent
/// trace.unexplained_share) into `out`.
void report_ladder(const Recorder& rec, const LadderCounters& counters,
                   Outcome& out);

/// trace.overhead_share: what recording a span adds to a root rung.
/// `root(i)` makes the i-th of `calls` root calls; they run in `pairs`
/// pairs of untraced and traced batches, the order flipping every pair,
/// and the result is the median of traced / untraced - 1. The traced
/// batch wraps each call in timed_span, so the clock reads and the
/// record are inside the timed window.
double tracing_overhead_share(const std::function<void(std::size_t)>& root,
                              std::size_t calls, std::size_t pairs);

/// Draws one write against the reference model and applies it there:
/// 60% update, 20% insert (predicted slot in Op::row), 20% remove, with
/// removes turned into updates once `min_live` rows remain. Inserts only
/// refill freed slots (a remove is drawn instead when none is free), so
/// the index never grows past its stored extent: a random walk of appends
/// would add a bank on some seeds and not others, and move peak memory
/// with the seed. Updates, the slowest kind, are the majority, so a write
/// p50 falls inside one kind instead of on the boundary between the
/// insert and update costs.
Op next_write(ferex::util::Rng& rng, Oracle& model, std::size_t dims,
              int levels, std::size_t min_live);

/// Applies writes synchronously, checking each receipt. Returns each
/// write's latency in us.
std::vector<double> apply_writes(ferex::serve::AmIndex& index,
                                 const std::vector<Op>& writes, Outcome& out);

struct WalProbe {
  std::vector<double> append_update_us;
  double bytes_per_write = 0.0;
};

/// Journals configure + store + `writes` to a fresh fsync-per-append WAL
/// in `dir`, timing every append_update.
WalProbe wal_probe(const std::string& dir, ferex::csp::DistanceMetric metric,
                   const std::vector<Vec>& database,
                   const std::vector<Op>& writes);

/// Replays `dir`'s durable state into `fresh`.
void recover_into(ferex::serve::AmIndex& fresh, const std::string& dir);

/// Records in `dir`'s WAL.
std::size_t wal_records(const std::string& dir);

/// Checks that `recovered` answers `probes` (k = 1 and k = 5, pinned
/// ordinals) bit-identically to `live`.
void check_recovered(const ferex::serve::AmIndex& live,
                     const ferex::serve::AmIndex& recovered,
                     const std::vector<Vec>& probes, Outcome& out);

/// Opens a DurableIndex over a fresh index on `dir` and times checkpoint().
double checkpoint_probe_ms(
    const std::string& dir,
    const std::function<std::unique_ptr<ferex::serve::AmIndex>()>& make_index);

/// Median configure() time (us) of a fresh, empty FerexEngine: the CSP
/// solve and encoding build alone.
double configure_empty_us(const ferex::core::FerexOptions& options,
                          const std::vector<ferex::csp::DistanceMetric>& metrics);

/// Run context: fsync p50 (us) of 256-byte appends in `dir`.
double fsync_p50_us(const std::string& dir);

/// Run context: median CrossbarArray::search_reference time (us) on a
/// fixed 64x32 Hamming array — the machine-speed yardstick.
double reference_search_us();

}  // namespace perfbench
