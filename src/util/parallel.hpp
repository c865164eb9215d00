// Persistent worker pool for data-parallel fan-out.
//
// Batched search amortizes per-query overheads by running independent
// queries concurrently; intra-query parallelism fans one query's rows or
// banks the same way. The unit of work is microseconds of float math, so
// per-call std::thread spawn (tens of microseconds each) used to dominate
// at small geometries. parallel_for therefore runs on a process-wide pool
// of workers spawned lazily on the first multi-threaded call and reused
// for every call after it: submission is a mutex acquisition and a
// condition-variable wake, not a thread launch.
//
// Semantics (unchanged from the fork/join version):
//   * fn(0) .. fn(n-1) each run exactly once unless an earlier item threw;
//   * the call blocks until every claimed item finished;
//   * the first exception thrown by any fn is rethrown on the calling
//     thread after the fan-in; remaining unclaimed items are skipped;
//   * fn must be safe to call concurrently for distinct indices.
//
// Scheduling rules the implementation adds:
//   * a parallel_for issued from inside a pool worker (nesting) runs its
//     items inline on that worker. This is the one place the codebase
//     decides pool nesting: every layer fans its own items whenever its
//     work-size heuristic says so — AmIndex a batch's requests,
//     ShardedIndex its shards, BankedAm its banks, FerexEngine one
//     query's rows — the outermost fan gets the pool and every fan
//     nested under it runs as a plain serial loop. No caller passes
//     "already inside the pool" flags down;
//   * when another thread's parallel_for currently owns the pool, the
//     call runs inline on the caller instead of queueing behind it.
// Neither rule affects results: every caller in this codebase is
// bit-identical across schedules by construction.
#pragma once

#include <cstddef>
#include <functional>

namespace ferex::util {

/// Width of the worker pool for unbounded work: hardware_concurrency,
/// and at least 1. Schedulers compare their batch size against this to
/// decide whether to fan out across items or within one item. The
/// FEREX_POOL_WIDTH environment variable (1..512), read once at first
/// use, overrides the detected width — for pinned containers whose
/// hardware_concurrency misreports the cgroup quota, and for exercising
/// the pool on single-core hosts.
std::size_t pool_width() noexcept;

/// Number of workers to launch for `jobs` independent work items:
/// min(pool_width, jobs), and at least 1.
std::size_t worker_count(std::size_t jobs) noexcept;

/// True on a pool worker thread (a nested parallel_for would run inline).
bool on_pool_worker() noexcept;

/// Runs fn(0), fn(1), ..., fn(n - 1) across the persistent worker pool
/// (inline when pool_width() is 1, n <= 1, or the pool is unavailable —
/// see the scheduling rules above). Blocks until all claimed items
/// finish; the first exception thrown by any fn is rethrown on the
/// calling thread after the fan-in, and remaining items may be skipped.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// parallel_for with shard affinity: item i is preferentially claimed by
/// the pool participant with stable index i % P (P = submitter + spawned
/// workers, each with a fixed id for the pool's lifetime), so a workload
/// that repeatedly fans the *same* item set — e.g. a banked search firing
/// its banks on every query — keeps each item on the same thread across
/// calls and that thread's caches (a bank's bias/current tables) stay
/// warm. Affinity is best-effort, never a liveness dependency: once a
/// participant drains its own lane it steals from the others, so a slow
/// or missing worker only costs locality. Semantics otherwise match
/// parallel_for exactly; every call site must be schedule-invariant.
void parallel_for_affine(std::size_t n,
                         const std::function<void(std::size_t)>& fn);

}  // namespace ferex::util
