#include "loadgen.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <thread>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace perfbench {

using ferex::serve::SearchRequest;
using ferex::serve::SearchResponse;

std::vector<double> poisson_schedule(ferex::util::Rng& rng, double rate,
                                     double seconds) {
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  const double horizon_us = seconds * 1e6;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate * 1e6;
    if (t >= horizon_us) return due;
    due.push_back(t);
  }
}

SessionReport run_open_loop(ferex::serve::AsyncAmIndex& server,
                            const std::vector<Op>& ops, Recorder* recorder) {
  struct Slot {
    std::future<SearchResponse> search;
    bool rejected = false;
  };
  std::vector<Slot> slots(ops.size());
  SessionReport report;
  report.results.resize(ops.size());
  std::atomic<std::size_t> published{0};
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::micro>(
                           ops[i].due_us));
  };

  std::jthread generator([&] {
#ifdef __linux__
    // The default 50 us timer slack would add up to 50 us of lateness
    // to every sleep; the schedule needs microsecond wake-ups.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const auto due = due_at(i);
      std::this_thread::sleep_until(due);
      report.results[i].late_us = us_between(due, Clock::now());
      Slot& slot = slots[i];
      try {
        slot.search = server.submit(SearchRequest(op.vector, op.k));
      } catch (const std::exception&) {
        slot.rejected = true;
      }
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
  });

  // This thread is the collector.
  Clock::time_point last_ready = start;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::size_t ready_count = published.load(std::memory_order_acquire);
    while (ready_count <= i) {
      published.wait(ready_count, std::memory_order_acquire);
      ready_count = published.load(std::memory_order_acquire);
    }
    OpResult& result = report.results[i];
    Slot& slot = slots[i];
    if (slot.rejected) {
      result.failed = true;
    } else {
      try {
        result.response = slot.search.get();
      } catch (const std::exception&) {
        result.failed = true;
      }
    }
    last_ready = Clock::now();
    const auto due = due_at(i);
    result.latency_us = us_between(due, last_ready);
    if (recorder != nullptr) {
      recorder->record("client.search", i, Recorder::kNoParent, due,
                       last_ready);
    }
  }
  generator.join();
  report.span_us = ops.empty() ? 0.0 : us_between(due_at(0), last_ready);
  return report;
}

}  // namespace perfbench
