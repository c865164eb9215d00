// Durable serving: WAL-fronted mutations, checkpoints, and recovery.
//
// DurableIndex wraps any snapshot-capable AmIndex — an EngineIndex, a
// BankedIndex, or a whole ShardedIndex fleet — with the write-ahead
// protocol: every synchronous mutation journals one WAL record *before*
// it applies, so a crash at any instant is recoverable to the exact
// serialized state — recovery (snapshot + replay) is bit-identical,
// currents and hits, to the uninterrupted run. Asynchronous sessions
// journal through the same log: hand wal() to AsyncAmIndex
// (AsyncOptions::wal), which appends at admission under its submit
// mutex, so log order equals queue order equals apply order.
//
//   serve::EngineIndex index(options);                  // or a fleet
//   serve::DurableIndex durable(index, "/data/ferex");   // recovers
//   durable.configure(csp::DistanceMetric::kHamming, 2); // journaled
//   durable.store(db);                                   // journaled
//   durable.insert(vec);  durable.remove(3);             // journaled
//   durable.checkpoint();  // snapshot + WAL rotation
//
// A directory holds <dir>/snapshot.ferex (snapshot.hpp) and
// <dir>/wal.ferex (wal.hpp), whatever the backend. A fleet journals in
// global row coordinates, the arguments of its own entry points, so a
// fleet-wide configure() or store() is one record and therefore atomic:
// recovery never sees some shards reconfigured and others not. The
// fleet's topology is checked when a snapshot is installed; a directory
// holding only a WAL pins no options, for a fleet as for a single
// index. A directory in the removed per-shard fleet layout
// (manifest.ferex plus shard-<s>/) is refused with SnapshotMismatch.
//
// Failed mutations are journaled too (the record lands before
// validation inside the backend): replay re-applies the record through
// the same entry point, fails with the same typed error (a
// std::logic_error, or core::InfeasibleEncoding for a metric with no
// encoding), and swallows it — exactly the no-op the live run saw,
// since every backend rejects before it changes anything. Compaction is not journaled;
// it checkpoints instead (the snapshot captures the compacted layout,
// provably bit-identical to a fresh store() of the survivors). A fleet
// does not compact: its routing formula fixes every row's shard slot.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/am_index.hpp"
#include "serve/wal.hpp"

namespace ferex::serve {

struct DurableOptions {
  /// WAL fsync policy: kEveryAppend makes every acknowledged mutation
  /// durable (commit == stable storage); kOnClose/kNever trade the tail
  /// for append throughput (bench_serve --durability quantifies it).
  util::SyncPolicy sync = util::SyncPolicy::kEveryAppend;
};

/// Replays `dir`'s durable state (snapshot, if any, then WAL records
/// past its watermark; a torn WAL tail is truncated first) into a
/// freshly constructed index. Returns the last applied sequence number
/// (0 when the directory holds no state — a cold start). Throws
/// encode::CorruptSnapshot / CorruptLog / SnapshotMismatch on damage
/// that truncation cannot explain, and SnapshotMismatch on a directory
/// in the removed per-shard fleet layout.
std::uint64_t recover_index(AmIndex& index, const std::string& dir);

class DurableIndex {
 public:
  /// Recovers `index` from `dir` (which must exist), then opens the WAL
  /// for append, continuing the recovered sequence numbering.
  DurableIndex(AmIndex& index, std::string dir, DurableOptions options = {});

  /// Journaled mutations — same semantics and exceptions as the wrapped
  /// index's entry points, with one WAL record appended first.
  void configure(csp::DistanceMetric metric, int bits);
  /// Journaled EngineIndex::configure_composite (throws
  /// std::invalid_argument on any other backend, before journaling).
  void configure_composite(csp::DistanceMetric metric, int bits);
  void store(const std::vector<std::vector<int>>& database);
  WriteReceipt insert(std::span<const int> vector);
  WriteReceipt remove(std::size_t global_row);
  WriteReceipt update(std::size_t global_row, std::span<const int> vector);

  /// Snapshot the full index state, then rotate the WAL (records at or
  /// below the snapshot's watermark are dropped). Crash-safe at every
  /// instant: the snapshot write is atomic, and replay past the
  /// watermark is idempotent.
  void checkpoint();

  /// Tombstone compaction (backend compact(), bit-identical to a fresh
  /// store() of the survivors) followed by a checkpoint. Returns the
  /// slots reclaimed. Throws std::invalid_argument on a fleet.
  std::size_t compact();

  /// Last journaled sequence number (every earlier record is applied or
  /// deterministically failed).
  std::uint64_t last_seq() const noexcept { return wal_->next_seq() - 1; }

  AmIndex& index() noexcept { return index_; }
  const AmIndex& index() const noexcept { return index_; }

  /// The live WAL — pass to AsyncOptions::wal for async journaling.
  Wal& wal() noexcept { return *wal_; }

  std::string snapshot_path() const { return dir_ + "/snapshot.ferex"; }
  std::string wal_path() const { return dir_ + "/wal.ferex"; }

 private:
  /// Asserts the synchronous mutation capability (throws
  /// MutationWhileServed while an AsyncAmIndex owns the index) before
  /// anything is journaled — a rejected mutation must leave no record.
  void assert_sync_ownership();

  AmIndex& index_;
  std::string dir_;
  DurableOptions options_;
  std::unique_ptr<Wal> wal_;
};

}  // namespace ferex::serve
