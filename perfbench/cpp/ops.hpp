// Operations: the searches of an open-loop session and what became of
// each, and the writes of the synchronous write probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "serve/am_index.hpp"

namespace perfbench {

struct Op {
  enum class Kind : std::uint8_t { kSearch, kUpdate, kInsert, kRemove };
  Kind kind = Kind::kSearch;
  double due_us = 0.0;  ///< offset from the session start
  Vec vector;           ///< query, or write payload
  std::size_t k = 1;    ///< searches
  std::size_t row = 0;  ///< update/remove target; insert: predicted slot
};

struct OpResult {
  double late_us = 0.0;     ///< submit start minus due time
  double latency_us = 0.0;  ///< future ready minus due time
  bool failed = false;      ///< rejected at submit or threw via the future
  ferex::serve::SearchResponse response;
};

struct SessionReport {
  std::vector<OpResult> results;  ///< one per op, in submission order
  double span_us = 0.0;  ///< first due time to last completion
};

}  // namespace perfbench
