// Open-loop search load against an AsyncAmIndex.
//
// The whole schedule is generated before the session: Poisson arrival
// times and every query, so the same seed gives the same traffic. One
// generator thread submits each search when it is due, whatever the state
// of the server; one collector thread waits on the futures in submission
// order. Latency runs from the due time to the moment the collector sees
// the future ready, so a stall is charged to every request queued behind
// it, and generator lateness is measured separately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "ops.hpp"
#include "serve/async_index.hpp"
#include "trace.hpp"

namespace perfbench {

/// Poisson arrival offsets (us) at `rate` per second over `seconds`.
std::vector<double> poisson_schedule(ferex::util::Rng& rng, double rate,
                                     double seconds);

/// Runs the schedule of searches. When `recorder` is set, every request
/// records a "client.search" span from its due time to its completion.
SessionReport run_open_loop(ferex::serve::AsyncAmIndex& server,
                            const std::vector<Op>& ops, Recorder* recorder);

}  // namespace perfbench
