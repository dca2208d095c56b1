#include "fault/ppsfp.hpp"

#include <bit>

#include "core/wordpack.hpp"
#include "hdlsim/compiled_sim.hpp"

namespace scflow::fault {

using hdlsim::CompiledProgram;
using hdlsim::CompiledSim;
using hdlsim::GateSim;

PpsfpPlan ppsfp_plan(const nl::Netlist& n, const CompiledProgram& prog,
                     const std::vector<std::vector<std::uint64_t>>& stimulus,
                     const std::vector<GateSim::PortSample>& reference,
                     bool x_initial_flops, const std::vector<Fault>& faults) {
  PpsfpPlan plan;
  const auto fall_back_all = [&](const char* reason) {
    plan.reason = reason;
    plan.fallback.resize(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) plan.fallback[i] = i;
    return plan;
  };

  // X power-up state is exactly what two-state execution cannot carry;
  // the event-driven overlay owns the whole list.
  if (x_initial_flops) return fall_back_all("x_initial_flops");

  // The screen: a broadcast two-state run of the good machine must
  // reproduce the four-state reference bit for bit — every sample fully
  // known and value-equal.  Any divergence means the program has a live X
  // (or Z) path the two-state lanes would silently misclassify.
  {
    CompiledSim sim(n, prog);
    const auto& ins = n.inputs();
    const auto& outs = n.outputs();
    const std::size_t n_ports = outs.size();
    for (std::size_t c = 0; c < stimulus.size(); ++c) {
      for (std::size_t i = 0; i < ins.size(); ++i)
        sim.set_input(&ins[i], stimulus[c][i]);
      sim.step();
      for (std::size_t p = 0; p < n_ports; ++p) {
        const GateSim::PortSample got = sim.output_sample(&outs[p]);
        const GateSim::PortSample& ref = reference[c * n_ports + p];
        if (ref.known != got.known || ref.value != got.value)
          return fall_back_all("2-state/4-state divergence");
      }
    }
  }

  // Every in-range fault rides a lane, RAM/ROM bus nets included: the
  // overlay clamps each slot at its write site and the macro ports detect
  // address/enable changes per lane, so a stuck bus bit reaches only its
  // own lane's gathers and writes — GateSim::inject_stuck's semantics.
  plan.eligible = true;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const nl::NetId net = faults[i].net;
    const bool in_range =
        net >= 0 && static_cast<std::size_t>(net) < prog.slot_of_net.size();
    (in_range ? plan.parallel : plan.fallback).push_back(i);
  }
  return plan;
}

void run_ppsfp_batch(const nl::Netlist& n, const CompiledProgram& prog,
                     const std::vector<std::vector<std::uint64_t>>& stimulus,
                     const std::vector<GateSim::PortSample>& reference,
                     const std::vector<Fault>& faults, const std::size_t* batch,
                     std::size_t count, std::uint64_t cycle_budget,
                     const std::function<bool()>& expired,
                     std::vector<FaultResult>& results) {
  CompiledSim sim(n, prog);
  std::vector<CompiledSim::LaneFault> lanes(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Fault& f = faults[batch[i]];
    lanes[i] = {f.net, f.stuck_one, static_cast<unsigned>(i)};
    results[batch[i]].fault = f;
  }
  sim.set_fault_overlay(lanes);

  const auto& ins = n.inputs();
  const auto& outs = n.outputs();
  const std::size_t n_ports = outs.size();
  std::uint64_t alive =
      count >= CompiledSim::kLanes ? ~0ull : (std::uint64_t{1} << count) - 1;
  bool budget_hit = false;
  std::size_t c = 0;
  for (; c < stimulus.size() && alive != 0; ++c) {
    if (c >= cycle_budget) {
      budget_hit = true;
      break;
    }
    if ((c & 31u) == 0 && c != 0 && expired && expired()) {
      budget_hit = true;
      break;
    }
    for (std::size_t i = 0; i < ins.size(); ++i)
      sim.set_input(&ins[i], stimulus[c][i]);
    sim.step();
    for (std::size_t p = 0; p < n_ports && alive != 0; ++p) {
      const GateSim::PortSample& ref = reference[c * n_ports + p];
      std::uint64_t diff = 0;
      // The screen guaranteed ref.known covers the whole port, so the
      // hard-diff word is just XOR against the broadcast reference bit.
      for (std::uint64_t km = ref.known; km != 0; km &= km - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(km));
        diff |= sim.output_word(&outs[p], b) ^
                core::word_broadcast(((ref.value >> b) & 1u) != 0);
      }
      std::uint64_t newly = diff & alive;
      alive &= ~newly;
      // First detecting (cycle, port) in scan order — drop the lane.
      for (; newly != 0; newly &= newly - 1) {
        FaultResult& fr = results[batch[std::countr_zero(newly)]];
        fr.klass = FaultClass::kDetected;
        fr.detect_cycle = c;
        fr.detect_port = static_cast<std::uint32_t>(p);
        fr.cycles = c + 1;
      }
    }
  }
  // Survivors: the two-state screen ruled X out, so there is no soft
  // divergence and kOscillating cannot arise on this path.
  for (std::uint64_t a = alive; a != 0; a &= a - 1) {
    FaultResult& fr = results[batch[std::countr_zero(a)]];
    fr.klass = budget_hit ? FaultClass::kUndetectedBudget : FaultClass::kUndetected;
    fr.cycles = c;
  }
}

}  // namespace scflow::fault
