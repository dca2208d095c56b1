// Parallel-pattern single-fault (PPSFP) fault simulation on the compiled
// bit-parallel backend: up to 64 faulty machines per CompiledSim run, one
// stuck-at fault per pattern lane (CompiledSim::set_fault_overlay), each
// lane compared word-at-a-time against the cached good-machine response
// and dropped from further simulation at its first detecting (cycle,
// port) — the fault-dropping loop that makes full collapsed fault lists
// interactive.
//
// Exactness contract: CompiledSim is a two-state engine, so the
// bit-parallel path is only taken when the campaign program provably has
// no X anywhere — decided by ppsfp_plan's screen (no x_initial_flops, and
// a cheap broadcast two-state run reproducing the good machine's
// four-valued GateSim samples bit for bit).
// When the screen fails, or the compiler rejects the netlist, the whole
// list falls back to the event-driven faulty-machine overlay, so the
// four-valued taxonomy (kOscillating, kUndetectedBudget, ...) is
// preserved exactly.  Otherwise every fault rides a lane — faults on
// macro (RAM/ROM) address, enable and data buses included, since the
// overlay clamps at each write site and the macro ports track changes
// per lane.  Classifications on the bit-parallel path are bit-identical
// with GateSim's (see tests/test_ppsfp.cpp for the differential proof).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "hdlsim/compile.hpp"
#include "hdlsim/gate_sim.hpp"
#include "netlist/netlist.hpp"

namespace scflow::fault {

/// How the PPSFP engine handles each fault of a campaign, decided up
/// front by the program-level eligibility screen.
struct PpsfpPlan {
  /// Two-state bit-parallel execution is exact for this program.
  bool eligible = false;
  /// Diagnostic when !eligible ("x_initial_flops", "2-state/4-state
  /// divergence", "combinational cycle").
  std::string reason;
  std::vector<std::size_t> parallel;  ///< fault indices, bit-parallel path
  /// Fault indices on the event-driven path: the whole list when
  /// !eligible, else only faults naming a net outside the program.
  std::vector<std::size_t> fallback;
};

/// Screens (netlist, stimulus, reference) for two-state exactness and
/// splits @p faults into bit-parallel and fallback subsets: every fault
/// on a net of the program is bit-parallel when the screen passes
/// (RAM/ROM bus faults too), and every fault falls back when it does
/// not.  @p stimulus and @p reference are the campaign's materialised
/// program and good-machine samples (one per cycle x output port,
/// port-major within a cycle).  Runs one broadcast two-state pass over
/// the program — cheap relative to the fault fan-out it enables.
PpsfpPlan ppsfp_plan(const nl::Netlist& n, const hdlsim::CompiledProgram& prog,
                     const std::vector<std::vector<std::uint64_t>>& stimulus,
                     const std::vector<hdlsim::GateSim::PortSample>& reference,
                     bool x_initial_flops, const std::vector<Fault>& faults);

/// Simulates one PPSFP batch: faults[batch[0..count)] ride lanes
/// 0..count) of a single CompiledSim (count <= CompiledSim::kLanes),
/// writing only their own slots of @p results — the determinism contract
/// that keeps campaigns bit-identical across thread counts.  Detection
/// semantics mirror the event-driven engine exactly: ports scanned in
/// ascending order each cycle, first hard diff sets kDetected with
/// detect_cycle/detect_port/cycles = c+1; surviving lanes classify
/// kUndetected (full program) or kUndetectedBudget (@p cycle_budget hit,
/// or @p expired() true at the same 32-cycle cadence the event-driven
/// loop polls — batch granularity, so leave wall budgets off when
/// comparing engines bit-for-bit).
void run_ppsfp_batch(const nl::Netlist& n, const hdlsim::CompiledProgram& prog,
                     const std::vector<std::vector<std::uint64_t>>& stimulus,
                     const std::vector<hdlsim::GateSim::PortSample>& reference,
                     const std::vector<Fault>& faults, const std::size_t* batch,
                     std::size_t count, std::uint64_t cycle_budget,
                     const std::function<bool()>& expired,
                     std::vector<FaultResult>& results);

}  // namespace scflow::fault
