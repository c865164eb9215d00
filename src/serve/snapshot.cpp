#include "serve/snapshot.hpp"

#include <cerrno>
#include <cstring>
#include <iterator>
#include <system_error>
#include <utility>

#include "encode/serialize.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"
#include "serve/sharded_index.hpp"
#include "util/durable_file.hpp"

namespace ferex::serve {

namespace {

constexpr char kMagic[8] = {'F', 'E', 'R', 'E', 'X', 'S', 'N', 'P'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kEnvelopeBytes = sizeof kMagic + 4 + 4 + 8;

constexpr std::uint8_t kBackendEngine = 1;
constexpr std::uint8_t kBackendBanked = 2;
constexpr std::uint8_t kBackendSharded = 3;

void put_engine_state(encode::ByteWriter& out,
                      const core::FerexEngine::EngineState& state) {
  const std::size_t rows = state.database.size();
  const std::size_t dims = rows == 0 ? 0 : state.database.front().size();
  out.u64(rows);
  out.u64(dims);
  for (const auto& row : state.database) {
    for (const int v : row) {
      out.u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(v)));
    }
  }
  for (const auto flag : state.live) out.u8(flag);
  for (const auto lane : state.rng.s) out.u64(lane);
  out.f64(state.rng.cached_gaussian);
  out.u8(state.rng.has_cached_gaussian ? 1 : 0);
  out.u64(state.vth_offsets.size());
  for (const double v : state.vth_offsets) out.f64(v);
  for (const double r : state.resistances) out.f64(r);
}

core::FerexEngine::EngineState get_engine_state(encode::ByteReader& in) {
  core::FerexEngine::EngineState state;
  const std::uint64_t rows = in.u64();
  const std::uint64_t dims = in.u64();
  if (rows > in.remaining() || (rows > 0 && dims > in.remaining() / 4)) {
    throw encode::CorruptSnapshot(in.offset(), "database shape too large");
  }
  if (rows > 0 && dims == 0) {
    throw encode::CorruptSnapshot(in.offset(), "zero-dimension database");
  }
  state.database.reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t r = 0; r < rows; ++r) {
    std::vector<int> row(static_cast<std::size_t>(dims));
    for (auto& v : row) {
      v = static_cast<int>(static_cast<std::int32_t>(in.u32()));
    }
    state.database.push_back(std::move(row));
  }
  state.live.resize(static_cast<std::size_t>(rows));
  for (auto& flag : state.live) flag = in.u8();
  for (auto& lane : state.rng.s) lane = in.u64();
  state.rng.cached_gaussian = in.f64();
  state.rng.has_cached_gaussian = in.u8() != 0;
  const std::uint64_t devices = in.u64();
  if (devices > in.remaining() / 8) {
    throw encode::CorruptSnapshot(in.offset(), "device count too large");
  }
  state.vth_offsets.resize(static_cast<std::size_t>(devices));
  for (auto& v : state.vth_offsets) v = in.f64();
  state.resistances.resize(static_cast<std::size_t>(devices));
  for (auto& r : state.resistances) r = in.f64();
  return state;
}

std::uint8_t fidelity_code(core::SearchFidelity fidelity) {
  return fidelity == core::SearchFidelity::kCircuit ? 0 : 1;
}

const char* fidelity_name(std::uint8_t code) {
  return code == 0 ? "circuit" : "nominal";
}

const char* backend_name(std::uint8_t code) {
  constexpr const char* kNames[] = {"an unknown backend", "a single macro",
                                    "banked", "a sharded fleet"};
  return code < std::size(kNames) ? kNames[code] : kNames[0];
}

/// Banks in order, each with its row offset. bank_rows is not written
/// here: a banked snapshot records it once, a fleet once per fleet.
void put_banks(encode::ByteWriter& out, const arch::BankedAm& banked) {
  const arch::BankedAm::BankedState state = banked.snapshot_state();
  out.u64(state.banks.size());
  for (std::size_t b = 0; b < state.banks.size(); ++b) {
    out.u64(state.bank_offsets[b]);
    put_engine_state(out, state.banks[b]);
  }
}

arch::BankedAm::BankedState get_banks(encode::ByteReader& in) {
  arch::BankedAm::BankedState state;
  const std::uint64_t bank_count = in.u64();
  if (bank_count > in.remaining()) {
    throw encode::CorruptSnapshot(in.offset(), "bank count too large");
  }
  for (std::uint64_t b = 0; b < bank_count; ++b) {
    state.bank_offsets.push_back(static_cast<std::size_t>(in.u64()));
    state.banks.push_back(get_engine_state(in));
  }
  return state;
}

void check_field(const char* field, std::uint64_t snapshot,
                 std::uint64_t index) {
  if (snapshot != index) {
    throw SnapshotMismatch(std::string("snapshot ") + field + " " +
                           std::to_string(snapshot) + ", index " + field +
                           " " + std::to_string(index));
  }
}

/// Backend kind and fidelity of a live index (std::invalid_argument for
/// a backend snapshots do not cover).
std::pair<std::uint8_t, std::uint8_t> kind_of(const AmIndex& index,
                                              const char* caller) {
  if (const auto* engine_index = dynamic_cast<const EngineIndex*>(&index)) {
    return {kBackendEngine,
            fidelity_code(engine_index->engine().options().fidelity)};
  }
  if (const auto* banked_index = dynamic_cast<const BankedIndex*>(&index)) {
    return {kBackendBanked,
            fidelity_code(banked_index->banked().options().engine.fidelity)};
  }
  if (const auto* fleet = dynamic_cast<const ShardedIndex*>(&index)) {
    return {kBackendSharded, fidelity_code(fleet->options().engine.fidelity)};
  }
  throw std::invalid_argument(std::string(caller) + ": unsupported backend");
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const AmIndex& index,
                                          std::uint64_t wal_watermark) {
  const auto [backend, fidelity] = kind_of(index, "encode_snapshot");
  encode::ByteWriter payload;
  const auto put_header = [&](bool configured, bool composite,
                              csp::DistanceMetric metric, int bits) {
    if (!configured) {
      throw std::logic_error("encode_snapshot: configure() first");
    }
    payload.u8(backend);
    payload.u8(fidelity);
    payload.u8(composite ? 1 : 0);
    payload.u32(static_cast<std::uint32_t>(metric));
    payload.u32(static_cast<std::uint32_t>(bits));
    payload.u64(wal_watermark);
    payload.u64(index.query_serial());
  };
  if (backend == kBackendEngine) {
    const core::FerexEngine& engine =
        dynamic_cast<const EngineIndex&>(index).engine();
    put_header(engine.configured(), engine.codec() != nullptr,
               engine.metric(), engine.bits());
    put_engine_state(payload, engine.snapshot_state());
  } else if (backend == kBackendBanked) {
    const arch::BankedAm& banked =
        dynamic_cast<const BankedIndex&>(index).banked();
    put_header(banked.configured(), false, banked.metric(), banked.bits());
    payload.u64(banked.options().bank_rows);
    put_banks(payload, banked);
  } else {
    // A fleet configures as one, so metric and bits are written once:
    // a fleet of mixed metrics has no encoding.
    const auto& fleet = dynamic_cast<const ShardedIndex&>(index);
    put_header(fleet.configured(), false, fleet.metric(), fleet.bits());
    payload.u64(fleet.options().shards);
    payload.u64(fleet.options().shard_block);
    payload.u8(static_cast<std::uint8_t>(fleet.options().backend));
    payload.u64(fleet.options().bank_rows);
    for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
      const AmIndex& shard = fleet.shard(s);
      if (const auto* engine = dynamic_cast<const EngineIndex*>(&shard)) {
        put_engine_state(payload, engine->engine().snapshot_state());
      } else {
        put_banks(payload, dynamic_cast<const BankedIndex&>(shard).banked());
      }
    }
  }

  encode::ByteWriter out;
  out.bytes(reinterpret_cast<const std::uint8_t*>(kMagic), sizeof kMagic);
  out.u32(kVersion);
  out.u32(encode::crc32(payload.data()));
  out.u64(payload.size());
  out.bytes(payload.data().data(), payload.size());
  return out.take();
}

std::uint64_t install_snapshot(AmIndex& index,
                               const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kEnvelopeBytes) {
    throw encode::CorruptSnapshot(bytes.size(), "truncated envelope");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw encode::CorruptSnapshot(0, "bad magic");
  }
  encode::ByteReader envelope(bytes.data() + sizeof kMagic, 4 + 4 + 8);
  const std::uint32_t version = envelope.u32();
  if (version != kVersion) {
    throw encode::CorruptSnapshot(sizeof kMagic, "unsupported version " +
                                                     std::to_string(version));
  }
  const std::uint32_t stored_crc = envelope.u32();
  const std::uint64_t payload_size = envelope.u64();
  if (payload_size != bytes.size() - kEnvelopeBytes) {
    throw encode::CorruptSnapshot(sizeof kMagic + 8, "payload size mismatch");
  }
  const std::uint8_t* payload_bytes = bytes.data() + kEnvelopeBytes;
  if (encode::crc32(payload_bytes, payload_size) != stored_crc) {
    throw encode::CorruptSnapshot(sizeof kMagic + 4, "checksum mismatch");
  }

  encode::ByteReader payload(payload_bytes, payload_size);
  const std::uint8_t backend = payload.u8();
  const std::uint8_t fidelity = payload.u8();
  const bool composite = payload.u8() != 0;
  const auto metric = static_cast<csp::DistanceMetric>(payload.u32());
  const int bits = static_cast<int>(payload.u32());
  const std::uint64_t watermark = payload.u64();
  const std::uint64_t serving_serial = payload.u64();

  const auto [own_backend, own_fidelity] = kind_of(index, "install_snapshot");
  if (backend != own_backend) {
    throw SnapshotMismatch(std::string("snapshot is ") +
                           backend_name(backend) + ", index is " +
                           backend_name(own_backend));
  }
  if (fidelity != own_fidelity) {
    throw SnapshotMismatch(std::string("snapshot fidelity is ") +
                           fidelity_name(fidelity) + ", index is " +
                           fidelity_name(own_fidelity));
  }

  if (backend == kBackendEngine) {
    auto& engine_index = dynamic_cast<EngineIndex&>(index);
    if (composite) {
      engine_index.configure_composite(metric, bits);
    } else {
      engine_index.configure(metric, bits);
    }
    auto state = get_engine_state(payload);
    payload.expect_end();
    engine_index.engine().restore_state(std::move(state));
  } else if (backend == kBackendBanked) {
    auto& banked_index = dynamic_cast<BankedIndex&>(index);
    banked_index.configure(metric, bits);
    check_field("bank_rows", payload.u64(),
                banked_index.banked().options().bank_rows);
    auto state = get_banks(payload);
    payload.expect_end();
    banked_index.banked().restore_state(std::move(state));
  } else {
    // Topology is pinned here, at install: a directory holding only a
    // WAL replays into whatever fleet the caller built, exactly as a
    // single index's does.
    auto& fleet = dynamic_cast<ShardedIndex&>(index);
    const ShardedOptions& options = fleet.options();
    check_field("shards", payload.u64(), options.shards);
    check_field("shard_block", payload.u64(), options.shard_block);
    check_field("shard backend", payload.u8(),
                static_cast<std::uint8_t>(options.backend));
    const std::uint64_t bank_rows = payload.u64();
    if (options.backend == ShardBackend::kBanked) {
      check_field("bank_rows", bank_rows, options.bank_rows);
    }
    fleet.configure(metric, bits);
    for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
      if (auto* shard = dynamic_cast<EngineIndex*>(&fleet.shard(s))) {
        shard->engine().restore_state(get_engine_state(payload));
      } else {
        dynamic_cast<BankedIndex&>(fleet.shard(s)).banked().restore_state(
            get_banks(payload));
      }
    }
    payload.expect_end();
    fleet.rebuild_routing();
  }
  index.set_query_serial(serving_serial);
  return watermark;
}

void save_snapshot(const AmIndex& index, const std::string& path,
                   std::uint64_t wal_watermark) {
  util::atomic_write_file(path, encode_snapshot(index, wal_watermark));
}

std::uint64_t load_snapshot(AmIndex& index, const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (!util::read_file(path, bytes)) {
    throw std::system_error(ENOENT, std::generic_category(),
                            "load_snapshot: " + path);
  }
  return install_snapshot(index, bytes);
}

}  // namespace ferex::serve
