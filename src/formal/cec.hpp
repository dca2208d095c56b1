// Combinational equivalence checking over matched primary-input / flop
// boundaries: the formal gate behind every netlist refinement step
// (gate optimisation, scan insertion, Verilog round-trips, RTL lowering).
//
// Engine: both sides bitblast into one shared, structurally hashed AIG
// (identical cones collapse to the same literal for free); 64-bit-parallel
// random simulation either finds a counterexample outright or partitions
// the nodes into candidate equivalence classes; a fraig-lite SAT sweep
// merges proven-equal internals with budgeted CDCL calls; and each
// remaining comparison bit is discharged by SAT on a miter under an
// activation assumption.  Counterexamples are concrete input vectors
// (including "state:<flop>" pseudo-inputs) that are replayed through
// hdlsim::GateSim on the flop-stripped comb_view of each netlist to
// confirm the mismatch end-to-end.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "obs/histogram.hpp"
#include "rtl/ir.hpp"

namespace scflow::obs {
class Registry;
}

namespace scflow::formal {

/// A finished check is kEquivalent or kNotEquivalent (the final SAT calls
/// run unbudgeted); kUnknown is only CecResult's not-yet-run default.
enum class CecStatus { kEquivalent, kNotEquivalent, kUnknown };

struct CecInputAssignment {
  std::string name;  // port or "state:<flop>" pseudo-input
  int width = 1;
  std::uint64_t value = 0;
};

struct CecCounterexample {
  std::vector<CecInputAssignment> inputs;  // every miter variable
  std::string divergent_output;            // first differing comparison point
  int divergent_bit = 0;
  std::uint64_t value_a = 0;  // full port value predicted for side A
  std::uint64_t value_b = 0;
  bool replayed = false;          // a GateSim replay was run
  bool replay_confirmed = false;  // ...and reproduced the mismatch
};

struct CecStats {
  std::size_t aig_nodes = 0;
  std::size_t compare_points = 0;  // ports/cones compared
  std::size_t compare_bits = 0;
  std::size_t bits_structural = 0;  // proven by hashing or sweep merges
  std::size_t bits_sat_proved = 0;
  std::size_t sweep_classes = 0;
  std::size_t sweep_merges = 0;
  std::size_t sat_calls = 0;
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_decisions = 0;
  std::uint64_t sat_propagations = 0;
  /// Per-SAT-call conflict distribution (one sample per prove_equal call):
  /// the hardness profile behind the flat sat_conflicts total — a long
  /// tail here is what motivates sweep budget tuning.
  obs::Histogram sat_call_conflicts;
};

struct CecOptions {
  /// Input ports tied to constant 0 on whichever side has them (scan pins
  /// for scan-modulo comparisons).
  std::vector<std::string> tie_zero_inputs;
  /// Output ports excluded from the comparison (e.g. "scan_out").
  std::vector<std::string> ignore_outputs;
  /// Seeds the AIG random-simulation patterns.
  std::uint64_t seed = 0x5eedf00dcafe1234ull;
  std::string metric_prefix = "cec";
  /// Preset for comparing a scan-inserted netlist against its pre-scan
  /// original: scan_in/scan_enable tied to 0, scan_out ignored.
  [[nodiscard]] static CecOptions scan_modulo();
};

struct CecResult {
  CecStatus status = CecStatus::kUnknown;
  std::optional<CecCounterexample> cex;
  CecStats stats;
  [[nodiscard]] bool equivalent() const { return status == CecStatus::kEquivalent; }
};

/// Proves (or refutes) combinational equivalence of two netlists over
/// matched primary inputs, outputs and flop boundaries.  Flops are paired
/// by provenance name (Cell::name) with a positional fallback; a flop
/// present on only one side is treated as free state, which is sound for
/// optimisation passes that drop dead flops.  With @p reg, records
/// "<metric_prefix>.*" counters and a scoped timer.
CecResult check_equivalence(const nl::Netlist& a, const nl::Netlist& b,
                            obs::Registry* reg = nullptr,
                            const CecOptions& options = {});

/// RTL-vs-gates variant: proves nl::lower_to_gates preserved the design's
/// combinational next-state/output semantics.  Counterexamples replay
/// through side B (the netlist) only.
CecResult check_rtl_vs_netlist(const rtl::Design& a, const nl::Netlist& b,
                               obs::Registry* reg = nullptr,
                               const CecOptions& options = {});

/// Thrown by assert_equivalent; carries the full result (counterexample
/// included) and names the first divergent net in what().
class EquivalenceError : public std::runtime_error {
 public:
  EquivalenceError(const std::string& what, CecResult result_in)
      : std::runtime_error(what), result(std::move(result_in)) {}
  CecResult result;
};

/// check_equivalence that throws EquivalenceError on anything but
/// kEquivalent.  When @p cex_vcd_path is non-empty and a counterexample
/// exists, it is dumped there first (and the path named in the message).
void assert_equivalent(const nl::Netlist& a, const nl::Netlist& b,
                       obs::Registry* reg = nullptr, const CecOptions& options = {},
                       const std::string& cex_vcd_path = {});

/// Writes a counterexample (the input vector plus both sides' divergent
/// port values) as a VCD file.  Returns false on I/O failure.
bool write_cex_vcd(const CecCounterexample& cex, const std::string& path);

}  // namespace scflow::formal
