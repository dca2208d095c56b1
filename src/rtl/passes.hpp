// Word-level optimisation passes applied before bit-blasting — the RTL
// half of the "Design Compiler" substitute.  All designs in the Fig. 10
// comparison run the same passes; the area differences between them come
// from their architectures, not from uneven optimisation effort.
#pragma once

#include <cstddef>

#include "rtl/ir.hpp"

namespace scflow::rtl {

struct PassStats {
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
  std::size_t registers_before = 0;
  std::size_t registers_after = 0;
  std::size_t folded = 0;
};

/// Runs constant folding (plus cheap algebraic identities), structural
/// hashing and unreachable-node removal to a fixpoint (at most four
/// rebuilds) and returns the optimised design.
Design run_passes(const Design& design, PassStats* stats = nullptr);

}  // namespace scflow::rtl
