// Co-simulation bridge (the paper's SystemC/HDL-Cosim substitute): the
// compiled SystemC-style testbench lives in the minisc kernel while the
// DUT runs in the interpreted HDL simulator; the bridge synchronises the
// two at stimulus-event boundaries (the synchronisation-point negotiation
// real cosim tools perform), batching the DUT clocks in between.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "core/pins.hpp"
#include "dsp/src_params.hpp"
#include "dsp/stimulus.hpp"
#include "hdlsim/dut.hpp"
#include "kernel/module.hpp"

namespace scflow::cosim {

namespace dsp = scflow::dsp;

class DutBridge : public minisc::Module {
 public:
  /// @param sync_cycles sorted, unique clock-cycle indices at which the
  /// testbench drives new pin values (the negotiated sync points).
  DutBridge(minisc::Simulation& sim, std::string name, model::SrcPins& pins,
            hdlsim::Dut& dut, dsp::SrcMode mode,
            std::vector<std::uint64_t> sync_cycles);

  /// Number of cross-boundary synchronisations (batches) performed.
  [[nodiscard]] std::uint64_t sync_count() const { return syncs_; }
  [[nodiscard]] std::uint64_t dut_cycles() const { return dut_cycle_; }

 private:
  void run();
  /// Advances the DUT to (and including) edge @p target, publishing any
  /// out_valid toggle it produces on the way; returns true if a result was
  /// published.
  bool advance_to(std::uint64_t target);
  void transfer_inputs();

  model::SrcPins* pins_;
  hdlsim::Dut* dut_;
  // Resolved DUT port handles (see Dut::input_handle).
  int h_in_strobe_ = -1, h_in_left_ = -1, h_in_right_ = -1, h_out_req_ = -1;
  int h_out_valid_ = -1, h_out_left_ = -1, h_out_right_ = -1;
  std::vector<std::uint64_t> sync_cycles_;
  std::uint64_t dut_cycle_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t last_valid_ = 0;
};

struct CosimResult {
  std::vector<dsp::StereoSample> outputs;
  minisc::SimulationStats kernel_stats;
  std::uint64_t cycles = 0;
  std::uint64_t syncs = 0;
  hdlsim::SimCounters dut_counters;
  /// DUT evaluations, derived from the one SimCounters copy so it cannot
  /// drift from dut_counters.evaluations.
  [[nodiscard]] std::uint64_t dut_work_units() const { return dut_counters.evaluations; }

  /// Records the whole result — kernel stats under "<prefix>.kernel.*",
  /// DUT counters under "<prefix>.dut.*", bridge sync counts under
  /// "<prefix>.bridge.*" — into the unified registry.
  void record_into(scflow::obs::Registry& reg, std::string_view prefix) const;
};

/// Runs a schedule against @p dut with the compiled minisc testbench
/// (PinProducer/PinConsumer) through the bridge.  @p on_run_start fires
/// after elaboration/setup, immediately before the kernel starts — the
/// benches use it to keep setup out of the timed region.
CosimResult run_cosim(hdlsim::Dut& dut, dsp::SrcMode mode,
                      const std::vector<dsp::SrcEvent>& events,
                      const std::function<void()>& on_run_start = {});

}  // namespace scflow::cosim
