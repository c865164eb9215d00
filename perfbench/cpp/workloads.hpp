// The two workloads. Each builds its inputs from the seed, sets the
// system up (timed, several times), runs its session for the configured
// seconds, checks every answer against the oracle, then runs the
// post-session probes and the traced ladder. The same work runs with and
// without --trace; tracing only adds the session's client spans.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// Circuit fidelity, closed loop: Hamming -> Manhattan -> Euclidean²
/// reconfiguration cycles on a 512x64 BankedIndex.
Outcome circuit_reconfig(const Config& config);

/// Nominal fidelity, open loop at 2000 q/s: searches through AsyncAmIndex
/// over a 4-shard banked ShardedIndex, 1024x64.
Outcome fleet_light(const Config& config);

}  // namespace perfbench
