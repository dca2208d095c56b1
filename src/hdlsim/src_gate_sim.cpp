#include "hdlsim/src_gate_sim.hpp"

#include <chrono>
#include <map>

#include "dsp/time_quantizer.hpp"
#include "dtypes/bit_int.hpp"
#include "hdlsim/compiled_sim.hpp"

namespace scflow::hdlsim {

using P = dsp::SrcParams;

namespace {
std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The schedule driver, generic over the engine: GateSim and CompiledSim
// share the port-handle surface this loop touches, so both backends run
// the exact same stimulus/collection code.
template <typename Sim>
GateRunResult run_impl(Sim& sim, const nl::Netlist& netlist, dsp::SrcMode mode,
                       const std::vector<dsp::SrcEvent>& events,
                       std::uint64_t deadline_ns) {
  sim.set_input("mode", static_cast<std::uint64_t>(mode));
  sim.set_input("in_strobe", 0);
  sim.set_input("in_left", 0);
  sim.set_input("in_right", 0);
  sim.set_input("out_req", 0);
  if (netlist.find_input("scan_in") != nullptr) {
    sim.set_input("scan_in", 0);
    sim.set_input("scan_enable", 0);
  }

  const dsp::TimeQuantizer quant(P::kClockPs);
  std::map<std::uint64_t, std::vector<const dsp::SrcEvent*>> by_cycle;
  std::uint64_t last_cycle = 0;
  for (const auto& e : events) {
    const std::uint64_t c = quant.quantize_cycles(e.t_ps);
    by_cycle[c].push_back(&e);
    last_cycle = std::max(last_cycle, c);
  }

  GateRunResult result;
  bool strobe = false, req = false;
  bool last_valid = false;
  const auto p_in_left = sim.input_port("in_left");
  const auto p_in_right = sim.input_port("in_right");
  const auto p_in_strobe = sim.input_port("in_strobe");
  const auto p_out_req = sim.input_port("out_req");
  const auto p_out_valid = sim.output_port("out_valid");
  const auto p_out_left = sim.output_port("out_left");
  const auto p_out_right = sim.output_port("out_right");
  {
    sim.settle();
    last_valid = sim.output(p_out_valid) != 0;
  }
  auto next_event = by_cycle.begin();
  const std::uint64_t end_cycle = last_cycle + 300;
  std::uint64_t stopped_at = end_cycle;
  for (std::uint64_t cycle = 1; cycle <= end_cycle; ++cycle) {
    // Cooperative deadline: cheap enough to leave in the loop (one branch
    // per cycle, a clock read every 64), and what lets a batch job wind
    // down instead of stalling its lane on a pathological schedule.
    if (deadline_ns != 0 && (cycle & 63u) == 0 && steady_now_ns() > deadline_ns) {
      result.timed_out = true;
      stopped_at = cycle;
      break;
    }
    if (next_event != by_cycle.end() && next_event->first == cycle) {
      for (const dsp::SrcEvent* e : next_event->second) {
        if (e->is_input) {
          sim.set_input(p_in_left, static_cast<std::uint16_t>(e->sample.left));
          sim.set_input(p_in_right, static_cast<std::uint16_t>(e->sample.right));
          strobe = !strobe;
          sim.set_input(p_in_strobe, strobe ? 1 : 0);
        } else {
          req = !req;
          sim.set_input(p_out_req, req ? 1 : 0);
        }
      }
      ++next_event;
    }
    sim.step();
    const bool v = sim.output(p_out_valid) != 0;
    if (v != last_valid) {
      last_valid = v;
      result.outputs.push_back(
          {static_cast<std::int16_t>(scflow::sign_extend(sim.output(p_out_left), 16)),
           static_cast<std::int16_t>(scflow::sign_extend(sim.output(p_out_right), 16))});
    }
  }
  result.cycles = stopped_at;
  result.ram_violations = sim.ram_violations();
  result.counters = sim.counters();
  return result;
}
}  // namespace

GateRunResult run_src_netlist(const nl::Netlist& netlist, dsp::SrcMode mode,
                              const std::vector<dsp::SrcEvent>& events,
                              GateSim::Options options, std::uint64_t deadline_ns,
                              Backend backend) {
  // X power-up, the checking RAM model and the reference evaluator only
  // exist in the interpreter; requesting any of them overrides the
  // backend choice.
  if (backend == Backend::kCompiled && !options.x_initial_flops && !options.check_ram &&
      !options.use_reference_eval) {
    CompiledSim sim(netlist);
    return run_impl(sim, netlist, mode, events, deadline_ns);
  }
  GateSim sim(netlist, options);
  return run_impl(sim, netlist, mode, events, deadline_ns);
}

}  // namespace scflow::hdlsim
