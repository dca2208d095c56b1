#include "cosim/bridge.hpp"

#include <algorithm>

#include "core/testbench.hpp"
#include "dsp/time_quantizer.hpp"
#include "dtypes/bit_int.hpp"
#include "obs/registry.hpp"

namespace scflow::cosim {

using P = dsp::SrcParams;

DutBridge::DutBridge(minisc::Simulation& sim, std::string name, model::SrcPins& pins,
                     hdlsim::Dut& dut, dsp::SrcMode mode,
                     std::vector<std::uint64_t> sync_cycles)
    : Module(sim, std::move(name)),
      pins_(&pins),
      dut_(&dut),
      sync_cycles_(std::move(sync_cycles)) {
  dut.set_input("mode", static_cast<std::uint64_t>(mode));
  // Port handles resolved once; every per-cycle transfer across the
  // bridge then skips the DUT's name lookup.
  h_in_strobe_ = dut.input_handle("in_strobe");
  h_in_left_ = dut.input_handle("in_left");
  h_in_right_ = dut.input_handle("in_right");
  h_out_req_ = dut.input_handle("out_req");
  h_out_valid_ = dut.output_handle("out_valid");
  h_out_left_ = dut.output_handle("out_left");
  h_out_right_ = dut.output_handle("out_right");
  dut.set_input(h_in_strobe_, 0);
  dut.set_input(h_in_left_, 0);
  dut.set_input(h_in_right_, 0);
  dut.set_input(h_out_req_, 0);
  thread("sync", [this] { run(); });
}

void DutBridge::transfer_inputs() {
  dut_->set_input(h_in_strobe_, pins_->in_strobe.read() ? 1 : 0);
  dut_->set_input(h_in_left_, pins_->in_left.read().to_uint64());
  dut_->set_input(h_in_right_, pins_->in_right.read().to_uint64());
  dut_->set_input(h_out_req_, pins_->out_req.read() ? 1 : 0);
}

bool DutBridge::advance_to(std::uint64_t target) {
  bool publish = false;
  while (dut_cycle_ < target) {
    dut_->step();
    ++dut_cycle_;
    const std::uint64_t valid = dut_->output(h_out_valid_);
    if (valid != last_valid_) {
      last_valid_ = valid;
      publish = true;  // at most one result per inter-event batch
    }
  }
  if (publish) {
    pins_->out_left.write(model::Sample16(
        static_cast<std::int64_t>(scflow::sign_extend(dut_->output(h_out_left_), 16))));
    pins_->out_right.write(model::Sample16(
        static_cast<std::int64_t>(scflow::sign_extend(dut_->output(h_out_right_), 16))));
    pins_->out_valid.write(last_valid_ != 0);
  }
  return publish;
}

void DutBridge::run() {
  for (const std::uint64_t ec : sync_cycles_) {
    // Wake at the stimulus edge, then yield one zero-time step so pin
    // writes from same-instant testbench threads have settled.
    const std::uint64_t wake = ec * P::kClockPs;
    const std::uint64_t now = sim().now().picoseconds();
    if (wake > now) wait(minisc::Time::ps(wake - now));
    wait(minisc::Time::ps(0));
    ++syncs_;
    // Catch the DUT up to the cycle *before* the new stimulus; if a result
    // was published, yield once so the pin toggle commits before a second
    // result from the stimulus edge itself could overwrite it.
    if (advance_to(ec - 1)) wait(minisc::Time::ps(0));
    // Apply the pins and clock the stimulus edge.
    transfer_inputs();
    advance_to(ec);
  }
  // Drain: let in-flight computations finish.
  ++syncs_;
  advance_to(dut_cycle_ + 300);
}

CosimResult run_cosim(hdlsim::Dut& dut, dsp::SrcMode mode,
                      const std::vector<dsp::SrcEvent>& events,
                      const std::function<void()>& on_run_start) {
  minisc::Simulation sim;
  model::SrcPins pins(sim);
  model::PinProducer producer(sim, pins, events);
  model::PinConsumer consumer(sim, pins, events);

  const dsp::TimeQuantizer quant(P::kClockPs);
  std::vector<std::uint64_t> sync_cycles;
  for (const auto& e : events) sync_cycles.push_back(quant.quantize_cycles(e.t_ps));
  std::sort(sync_cycles.begin(), sync_cycles.end());
  sync_cycles.erase(std::unique(sync_cycles.begin(), sync_cycles.end()),
                    sync_cycles.end());
  DutBridge bridge(sim, "bridge", pins, dut, mode, std::move(sync_cycles));

  if (on_run_start) on_run_start();
  sim.run();

  CosimResult r;
  r.outputs = consumer.outputs;
  r.kernel_stats = sim.stats();
  r.cycles = bridge.dut_cycles();
  r.syncs = bridge.sync_count();
  r.dut_counters = dut.counters();
  return r;
}

void CosimResult::record_into(scflow::obs::Registry& reg, std::string_view prefix) const {
  const std::string p(prefix);
  minisc::record_stats(reg, p + ".kernel", kernel_stats);
  dut_counters.record_into(reg, p + ".dut");
  reg.set_counter(p + ".bridge.syncs", syncs);
  reg.set_counter(p + ".bridge.dut_cycles", cycles);
}

}  // namespace scflow::cosim
