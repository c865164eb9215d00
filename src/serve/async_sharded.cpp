#include "serve/async_sharded.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"

namespace ferex::serve {

namespace {

/// Logical alphabet of the fleet's configured encoding, for submit-time
/// write validation (the shadow must accept exactly the values the
/// shards will). ShardedIndex only configures monolithic encodings, so
/// any configured shard speaks for the fleet; a configured fleet with
/// no banks built anywhere re-derives the encoding with a probe engine
/// (configure is deterministic). Returns 0 for an unconfigured fleet.
std::size_t fleet_alphabet(const ShardedIndex& sharded) {
  if (!sharded.configured()) return 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    const AmIndex& shard = sharded.shard(s);
    if (const auto* engine = dynamic_cast<const EngineIndex*>(&shard)) {
      if (!engine->engine().configured()) continue;
      const auto* codec = engine->engine().codec();
      return codec != nullptr ? codec->logical_levels()
                              : engine->engine().encoding().stored_count();
    }
    const auto& banked = dynamic_cast<const BankedIndex&>(shard).banked();
    if (banked.bank_count() > 0) {
      return banked.bank(0).encoding().stored_count();
    }
  }
  core::FerexEngine probe(sharded.options().engine);
  probe.configure(sharded.metric(), sharded.bits());
  return probe.encoding().stored_count();
}

}  // namespace

AsyncShardedIndex::AsyncShardedIndex(ShardedIndex& sharded, AsyncOptions base)
    : sharded_(sharded) {
  if (base.wal != nullptr) {
    throw std::invalid_argument(
        "AsyncShardedIndex: a WAL would journal per shard; serve a durable "
        "fleet through AsyncAmIndex with AsyncOptions::wal");
  }
  // Claim the fleet first: from here on no synchronous mutator can move
  // the routing state out from under the shadow snapshot below, and the
  // snapshot is taken on a quiescent fleet.
  sharded_.claim_async_owner();
  try {
    serial_ = sharded_.query_serial();
    shadow_total_ = sharded_.stored_count();
    shadow_dims_ = sharded_.dims();
    shadow_free_ = sharded_.free_rows();
    configured_ = sharded_.configured();
    alphabet_ = fleet_alphabet(sharded_);
    shadow_live_.resize(sharded_.shard_count());
    for (std::size_t s = 0; s < sharded_.shard_count(); ++s) {
      shadow_live_[s] = sharded_.shard(s).live_count();
    }
    sessions_.reserve(sharded_.shard_count());
    for (std::size_t s = 0; s < sharded_.shard_count(); ++s) {
      // Each session claims its shard and spawns its own dispatcher —
      // the shard-local queues that keep one shard's writes out of
      // every other shard's way.
      sessions_.push_back(
          std::make_unique<AsyncAmIndex>(sharded_.shard(s), base));
    }
  } catch (...) {
    // Mid-construction failure: unwind the shard sessions that did
    // open (their destructors drain and release their shards) and hand
    // the fleet back, or it stays locked behind the guard forever.
    sessions_.clear();
    sharded_.release_async_owner();
    throw;
  }
}

AsyncShardedIndex::~AsyncShardedIndex() { shutdown(); }

void AsyncShardedIndex::check_open() const {
  if (shutdown_) {
    throw ShutDown("AsyncShardedIndex: submit after shutdown");
  }
}

std::size_t AsyncShardedIndex::shadow_live_total() const {
  std::size_t total = 0;
  for (const std::size_t live : shadow_live_) total += live;
  return total;
}

void AsyncShardedIndex::validate_vector(std::span<const int> vector) const {
  if (vector.empty()) {
    throw std::invalid_argument("AsyncShardedIndex: empty vector");
  }
  if (shadow_dims_ != 0 && vector.size() != shadow_dims_) {
    throw std::invalid_argument(
        "AsyncShardedIndex: vector length != stored dimensionality");
  }
  for (const int v : vector) {
    if (v < 0 || static_cast<std::size_t>(v) >= alphabet_) {
      throw std::out_of_range("AsyncShardedIndex: value outside alphabet");
    }
  }
}

AsyncShardedIndex::Ticket AsyncShardedIndex::submit(SearchRequest request) {
  util::MutexLock lock(submit_mutex_);
  check_open();
  const std::size_t live_total = shadow_live_total();
  if (live_total == 0) {
    throw EmptyIndex("AsyncShardedIndex: no live rows to search");
  }
  if (request.k == 0 || request.k > live_total) {
    throw std::invalid_argument("AsyncShardedIndex: request.k out of range");
  }
  if (shadow_dims_ != 0 && request.query.size() != shadow_dims_) {
    throw std::invalid_argument(
        "AsyncShardedIndex: query length != stored dimensionality");
  }
  const std::uint64_t ordinal = request.ordinal ? *request.ordinal : serial_;
  std::size_t live_shards = 0;
  for (const std::size_t live : shadow_live_) {
    live_shards += live > 0 ? 1 : 0;
  }
  Ticket ticket(this, request.k, sessions_.size(), Ticket::kAllShards);
  ticket.parts_.reserve(sessions_.size());
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    // A shard whose rows are all removed (in shadow terms: including
    // every write already queued) is never asked — no search, no noise
    // draws, exactly the synchronous scatter.
    if (shadow_live_[s] == 0) continue;
    SearchRequest sub;
    sub.query = request.query;
    // Mirror the synchronous scatter's per-shard k exactly (including
    // the sole-live-shard passthrough, which needs no overfetch).
    sub.k = (request.k == 1 || live_shards == 1)
                ? request.k
                : std::min(request.k + 1, shadow_live_[s]);
    sub.ordinal = ordinal;
    // The deadline budget rides onto every sub-request — each shard
    // session enforces it against its own queue.
    sub.deadline_us = request.deadline_us;
    // Overloaded from a full shard queue rejects the whole search with
    // the serial unmoved (advanced only below, after every shard
    // accepted); sibling sub-searches already queued are const
    // pinned-ordinal reads whose futures this abandoned ticket drops.
    ticket.parts_.emplace_back(s, sessions_[s]->submit(std::move(sub)));
  }
  if (!request.ordinal) serial_ = ordinal + 1;
  return ticket;
}

AsyncShardedIndex::Ticket AsyncShardedIndex::submit_shard(
    std::size_t shard, const SearchRequest& request) {
  util::MutexLock lock(submit_mutex_);
  check_open();
  if (shard >= sessions_.size()) {
    throw std::out_of_range("AsyncShardedIndex::submit_shard: shard");
  }
  if (shadow_live_[shard] == 0) {
    throw EmptyIndex("AsyncShardedIndex: shard has no live rows");
  }
  if (request.k == 0 || request.k > shadow_live_[shard]) {
    throw std::invalid_argument("AsyncShardedIndex: request.k out of range");
  }
  if (shadow_dims_ != 0 && request.query.size() != shadow_dims_) {
    throw std::invalid_argument(
        "AsyncShardedIndex: query length != stored dimensionality");
  }
  const std::uint64_t ordinal = request.ordinal ? *request.ordinal : serial_;
  SearchRequest sub = request;
  sub.ordinal = ordinal;
  Ticket ticket(this, request.k, sessions_.size(), shard);
  ticket.parts_.emplace_back(shard, sessions_[shard]->submit(std::move(sub)));
  if (!request.ordinal) serial_ = ordinal + 1;
  return ticket;
}

AsyncShardedIndex::PendingWrite AsyncShardedIndex::submit_insert(
    std::vector<int> vector) {
  util::MutexLock lock(submit_mutex_);
  check_open();
  if (!configured_) {
    throw std::logic_error(
        "AsyncShardedIndex::submit_insert: configure() first");
  }
  validate_vector(vector);
  const std::size_t global =
      shadow_free_.empty() ? shadow_total_ : *shadow_free_.begin();
  const std::size_t shard = sharded_.shard_of(global);
  const std::size_t length = vector.size();
  auto future = sessions_[shard]->submit_insert(std::move(vector));
  // Accepted (an Overloaded throw above leaves the shadow untouched):
  // advance the shadow exactly as the shard's queue will advance the
  // shard. The target shard's own insert() reuses its lowest freed
  // local slot, which is precisely to_local(global) — see
  // ShardedIndex::next_insert_target.
  if (shadow_free_.empty()) {
    ++shadow_total_;
  } else {
    shadow_free_.erase(shadow_free_.begin());
  }
  ++shadow_live_[shard];
  if (shadow_dims_ == 0) shadow_dims_ = length;
  return PendingWrite(global, shard, std::move(future));
}

AsyncShardedIndex::PendingWrite AsyncShardedIndex::submit_remove(
    std::size_t global_row) {
  util::MutexLock lock(submit_mutex_);
  check_open();
  if (global_row >= shadow_total_) {
    throw std::out_of_range("AsyncShardedIndex::submit_remove: row");
  }
  if (shadow_free_.count(global_row) != 0) {
    throw std::logic_error(
        "AsyncShardedIndex::submit_remove: row already removed");
  }
  const std::size_t shard = sharded_.shard_of(global_row);
  auto future = sessions_[shard]->submit_remove(sharded_.to_local(global_row));
  shadow_free_.insert(global_row);
  --shadow_live_[shard];
  return PendingWrite(global_row, shard, std::move(future));
}

AsyncShardedIndex::PendingWrite AsyncShardedIndex::submit_update(
    std::size_t global_row, std::vector<int> vector) {
  util::MutexLock lock(submit_mutex_);
  check_open();
  if (global_row >= shadow_total_) {
    throw std::out_of_range("AsyncShardedIndex::submit_update: row");
  }
  validate_vector(vector);
  const std::size_t shard = sharded_.shard_of(global_row);
  auto future =
      sessions_[shard]->submit_update(sharded_.to_local(global_row),
                                      std::move(vector));
  // An update revives a freed slot.
  if (shadow_free_.erase(global_row) != 0) ++shadow_live_[shard];
  return PendingWrite(global_row, shard, std::move(future));
}

void AsyncShardedIndex::shutdown() {
  std::uint64_t final_serial = 0;
  std::set<std::size_t> final_free;
  {
    util::MutexLock lock(submit_mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    final_serial = serial_;
    final_free = shadow_free_;
  }
  // Drain every shard session: all accepted futures complete, each
  // shard's serial hands back, each shard returns to synchronous use.
  for (auto& session : sessions_) session->shutdown();
  // Fleet serial + routing handoff while still owning the ShardedIndex
  // (the guarded setter would reject its own owner), then release it
  // back to synchronous use. The shard sessions are drained and joined,
  // so this wrapper is the sole serialized actor. The freed-row set
  // must hand back too: async writes routed through the shard queues
  // never touched the fleet's own bookkeeping, and the shadow is exact
  // (every accepted write succeeded), so post-session synchronous
  // inserts reuse exactly the slots the session freed.
  sharded_.assert_async_serialized();
  sharded_.set_query_serial_unguarded(final_serial);
  sharded_.free_rows_ = std::move(final_free);
  sharded_.release_async_owner();
}

bool AsyncShardedIndex::shut_down() const {
  util::MutexLock lock(submit_mutex_);
  return shutdown_;
}

std::uint64_t AsyncShardedIndex::query_serial() const {
  util::MutexLock lock(submit_mutex_);
  return serial_;
}

SearchResponse AsyncShardedIndex::merge_parts(
    const ShardedIndex& sharded, std::span<const SearchResponse> parts,
    std::size_t k, std::size_t single_shard) {
  if (single_shard != Ticket::kAllShards) {
    SearchResponse response = parts[single_shard];
    for (auto& hit : response.hits) {
      hit.global_row = sharded.to_global(single_shard, hit.global_row);
      hit.bank = single_shard;
    }
    return response;
  }
  // The exact merge the synchronous path runs — one implementation, so
  // sync and async gathers cannot drift.
  return sharded.merge_shard_responses(parts, k);
}

SearchResponse AsyncShardedIndex::Ticket::get() {
  std::vector<SearchResponse> parts(shards_);
  std::exception_ptr first_error;
  // Settle every part before deciding: abandoning later futures on an
  // early throw would discard results the dispatchers still complete.
  for (auto& [shard, future] : parts_) {
    try {
      parts[shard] = future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return AsyncShardedIndex::merge_parts(owner_->sharded_, parts, k_,
                                        single_shard_);
}

}  // namespace ferex::serve
