// Drives a synthesised SRC gate netlist through GateSim with the standard
// event schedules — the gate-level leg of the refinement verification and
// the DUT side of the Fig. 9 simulations.
#pragma once

#include <vector>

#include "dsp/src_params.hpp"
#include "dsp/stimulus.hpp"
#include "hdlsim/compile.hpp"
#include "hdlsim/gate_sim.hpp"
#include "netlist/netlist.hpp"

namespace scflow::hdlsim {

struct GateRunResult {
  std::vector<dsp::StereoSample> outputs;
  std::uint64_t cycles = 0;
  GateSim::RamViolation ram_violations;
  SimCounters counters;
  /// The run stopped early because its wall-clock deadline expired; the
  /// outputs cover only the cycles actually simulated.
  bool timed_out = false;
  /// Derived from the one SimCounters copy — not a separately maintained
  /// field, so it cannot drift from counters.evaluations.
  [[nodiscard]] std::uint64_t gate_evaluations() const { return counters.evaluations; }
};

/// Runs the netlist over the schedule (events applied at their quantised
/// cycles, inputs before requests); collects out_valid-toggled results.
/// @p deadline_ns (steady-clock stamp, 0 = none) is polled every 64 cycles;
/// on expiry the run stops and flags GateRunResult::timed_out.
/// @p backend selects the engine; Backend::kCompiled falls back to the
/// interpreter when the options request interpreter-only features
/// (x_initial_flops, check_ram, use_reference_eval).  The compiled engine
/// runs two-state and is bit-exact with the interpreter on these fully
/// defined schedules.
GateRunResult run_src_netlist(const nl::Netlist& netlist, dsp::SrcMode mode,
                              const std::vector<dsp::SrcEvent>& events,
                              GateSim::Options options = GateSim::Options(),
                              std::uint64_t deadline_ns = 0,
                              Backend backend = Backend::kInterpreted);

}  // namespace scflow::hdlsim
