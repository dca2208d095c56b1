// Word-level to gate-level lowering: ripple-carry adders, array
// multipliers with sign correction, mux trees, comparators — the
// structural part of the "Design Compiler" substitute.
#pragma once

#include "netlist/netlist.hpp"
#include "rtl/ir.hpp"

namespace scflow::nl {

/// Bit-blasts @p design into a gate netlist.  RAM/ROM macros become port
/// groups described by Netlist::macros.
Netlist lower_to_gates(const rtl::Design& design);

/// Converts every DFF into an SDFF and threads scan_in -> ... -> scan_out
/// with a scan_enable input (idempotent on netlists without plain DFFs).
/// The synthesis flow calls it after gate optimisation; it is the one
/// scan path.
/// Returns the number of flops converted to scan flops.
std::size_t insert_scan_chain(Netlist& n);

}  // namespace scflow::nl
