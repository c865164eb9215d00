// In-memory span recorder.
//
// A span is one timed call into a layer's public function, made from the
// benchmark's own files: name, start, end, parent span and request id.
// The ladder replays a request rung by rung (AmIndex -> BankedAm ->
// FerexEngine -> CrossbarArray + LtaCircuit), so a child span is a call
// into the layer below on the same input, recorded under its parent.
// A layer's self time is its span's duration minus the sum of its child
// rungs. The benchmark pins FEREX_POOL_WIDTH to 1, under which every
// parallel_for runs inline, so children that fan out (banks, shards) run
// one after another and add up like any other.
//
// Spans stay in memory until write_jsonl(), called once at exit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Recorder {
 public:
  using SpanId = std::uint32_t;
  static constexpr SpanId kNoParent = 0;

  Recorder();

  /// Records a finished span and returns its id (ids start at 1).
  /// `name` must be a string literal (it is stored by pointer).
  SpanId record(const char* name, std::uint64_t request, SpanId parent,
                Clock::time_point start, Clock::time_point end);

  /// Duration (us) of one span.
  double duration_of(SpanId span) const { return duration_us(spans_.at(span - 1)); }

  /// Durations (us) of every span with this name.
  std::vector<double> durations(const char* name) const;

  /// Self times (us) of every span with this name: duration minus the
  /// sum of its children. Negative when the child rungs, called on their
  /// own, took longer than inside the parent.
  std::vector<double> self_times(const char* name) const;

  /// Per parent with this name: slowest minus median child duration.
  std::vector<double> child_spread(const char* name) const;

  /// Share of root-span time that child rungs do not cover even when all
  /// their time is counted: the summed positive remainder (duration minus
  /// the sum of the children) of every span that has children, over the
  /// summed duration of the root spans that have children. It rises when
  /// a parent does work that no rung below it replays.
  double unexplained_share() const;

  /// One JSON object per line; times in us from the recorder's epoch.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    SpanId parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  double duration_us(const Span& s) const;
  /// Children of every span, in recording order (index = id - 1).
  std::vector<std::vector<SpanId>> children() const;
  double children_sum_us(const std::vector<SpanId>& kids) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Times one call and records it as a span.
template <typename Fn>
Recorder::SpanId timed_span(Recorder& rec, const char* name,
                            std::uint64_t request, Recorder::SpanId parent,
                            Fn&& fn) {
  const auto start = Clock::now();
  fn();
  const auto end = Clock::now();
  return rec.record(name, request, parent, start, end);
}

}  // namespace perfbench
