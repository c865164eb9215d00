#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/durable_file.hpp"

namespace perfbench {

Recorder::Recorder() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

Recorder::SpanId Recorder::record(const char* name, std::uint64_t request,
                                  SpanId parent, Clock::time_point start,
                                  Clock::time_point end) {
  spans_.push_back({name, request, parent, start, end});
  return static_cast<SpanId>(spans_.size());
}

double Recorder::duration_us(const Span& s) const {
  return us_between(s.start, s.end);
}

std::vector<std::vector<Recorder::SpanId>> Recorder::children() const {
  std::vector<std::vector<SpanId>> kids(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) {
      kids[spans_[i].parent - 1].push_back(static_cast<SpanId>(i + 1));
    }
  }
  return kids;
}

double Recorder::children_sum_us(const std::vector<SpanId>& kids) const {
  double sum = 0.0;
  for (const SpanId k : kids) sum += duration_us(spans_[k - 1]);
  return sum;
}

std::vector<double> Recorder::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(duration_us(s));
  }
  return out;
}

std::vector<double> Recorder::self_times(const char* name) const {
  const auto kids = children();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      out.push_back(duration_us(spans_[i]) - children_sum_us(kids[i]));
    }
  }
  return out;
}

std::vector<double> Recorder::child_spread(const char* name) const {
  const auto kids = children();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) != 0 || kids[i].empty()) continue;
    std::vector<double> d;
    for (const SpanId k : kids[i]) d.push_back(duration_us(spans_[k - 1]));
    out.push_back(*std::max_element(d.begin(), d.end()) - median(d));
  }
  return out;
}

double Recorder::unexplained_share() const {
  const auto kids = children();
  double self = 0.0;
  double roots = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (kids[i].empty()) continue;
    self += std::max(0.0, duration_us(spans_[i]) - children_sum_us(kids[i]));
    if (spans_[i].parent == kNoParent) roots += duration_us(spans_[i]);
  }
  return roots > 0.0 ? self / roots : 0.0;
}

void Recorder::write_jsonl(const std::string& path) const {
  std::string text;
  char line[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"parent\":%u,\"request\":%llu,\"name\":"
                  "\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  i + 1, s.parent, static_cast<unsigned long long>(s.request),
                  s.name, us_between(epoch_, s.start),
                  us_between(epoch_, s.end));
    text += line;
  }
  ferex::util::atomic_write_file(
      path, reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
}

}  // namespace perfbench
