// The result and receipt types every FeReX search and write returns.
//
// One hit type and one receipt serve every layer: a single macro
// (core::FerexEngine, bank 0), the banked architecture (arch::BankedAm),
// and the serving API (serve::AmIndex and its wrappers, which re-export
// both names).
#pragma once

#include <cstddef>

#include "circuit/write.hpp"

namespace ferex::core {

/// One scored row of a search response.
struct Hit {
  std::size_t global_row = 0;     ///< row index across all banks
  std::size_t bank = 0;           ///< bank holding the row (0 on a macro)
  double sensed_current_a = 0.0;  ///< sensed current (distance domain)
  /// Sensed gap to the best remaining row. For a banked k = 1 search it
  /// is the gap between the two best bank winners (with one live bank,
  /// that bank's own margin).
  double margin_a = 0.0;
  int nominal_distance = 0;       ///< encoding-level distance to the query
};

/// Receipt for one write-path operation (insert / remove / update).
struct WriteReceipt {
  std::size_t global_row = 0;  ///< the row written (or erased)
  std::size_t bank = 0;        ///< bank holding it
  circuit::WriteCost cost{};   ///< write cost of the operation
};

}  // namespace ferex::core
