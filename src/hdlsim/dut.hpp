// Device-under-test abstraction for the Fig. 9 simulations: the same
// testbench (interpreted VM or compiled minisc modules via the cosim
// bridge) can drive the interpreted RTL design ("RTL Verilog") or a gate
// netlist from either synthesis flow.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hdlsim/compiled_sim.hpp"
#include "hdlsim/gate_sim.hpp"
#include "hdlsim/sim_counters.hpp"
#include "rtl/interpreter.hpp"

namespace scflow::hdlsim {

class Dut {
 public:
  virtual ~Dut() = default;
  virtual void set_input(const std::string& name, std::uint64_t value) = 0;
  virtual void step() = 0;
  [[nodiscard]] virtual std::uint64_t output(const std::string& name) = 0;
  /// Resolved port handles: testbench drivers look each port name up once
  /// and use the handle per cycle, keeping string-keyed map lookups out of
  /// the simulation hot loop.  Handles are only valid for this Dut.
  [[nodiscard]] virtual int input_handle(const std::string& name) = 0;
  [[nodiscard]] virtual int output_handle(const std::string& name) = 0;
  virtual void set_input(int handle, std::uint64_t value) = 0;
  [[nodiscard]] virtual std::uint64_t output(int handle) = 0;
  /// Interpreter work performed so far (gate evaluations / node
  /// evaluations) — the simulator-load metric reported by the benches.
  [[nodiscard]] virtual std::uint64_t work_units() const = 0;
  /// Engine observability counters; engines that track fewer dimensions
  /// leave the remaining fields at zero.
  [[nodiscard]] virtual SimCounters counters() const { return {}; }
};

/// Gate netlist under the event-driven 4-value simulator.  Owns its
/// netlist copy so callers can hand in temporaries.
class GateDut final : public Dut {
 public:
  explicit GateDut(nl::Netlist netlist, GateSim::Options options = {})
      : netlist_(std::move(netlist)), sim_(netlist_, options) {}
  void set_input(const std::string& name, std::uint64_t value) override {
    sim_.set_input(name, value);
  }
  void step() override { sim_.step(); }
  std::uint64_t output(const std::string& name) override { return sim_.output(name); }
  int input_handle(const std::string& name) override {
    in_handles_.push_back(sim_.input_port(name));
    return static_cast<int>(in_handles_.size()) - 1;
  }
  int output_handle(const std::string& name) override {
    out_handles_.push_back(sim_.output_port(name));
    return static_cast<int>(out_handles_.size()) - 1;
  }
  void set_input(int handle, std::uint64_t value) override {
    sim_.set_input(in_handles_[static_cast<std::size_t>(handle)], value);
  }
  std::uint64_t output(int handle) override {
    return sim_.output(out_handles_[static_cast<std::size_t>(handle)]);
  }
  std::uint64_t work_units() const override { return sim_.gate_evaluations(); }
  SimCounters counters() const override { return sim_.counters(); }
  GateSim& sim() { return sim_; }

 private:
  nl::Netlist netlist_;  // must outlive (and precede) the simulator
  GateSim sim_;
  std::vector<GateSim::PortRef> in_handles_, out_handles_;
};

/// Gate netlist under the straight-line bit-parallel compiled simulator.
/// Broadcast drive: all 64 pattern lanes carry the testbench stimulus, so
/// every step simulates the pattern 64 times over — the patterns axis the
/// compiled benches report.  Owns its netlist copy.
class CompiledDut final : public Dut {
 public:
  explicit CompiledDut(nl::Netlist netlist)
      : netlist_(std::move(netlist)), sim_(netlist_) {}
  void set_input(const std::string& name, std::uint64_t value) override {
    sim_.set_input(name, value);
  }
  void step() override { sim_.step(); }
  std::uint64_t output(const std::string& name) override { return sim_.output(name); }
  int input_handle(const std::string& name) override {
    in_handles_.push_back(sim_.input_port(name));
    return static_cast<int>(in_handles_.size()) - 1;
  }
  int output_handle(const std::string& name) override {
    out_handles_.push_back(sim_.output_port(name));
    return static_cast<int>(out_handles_.size()) - 1;
  }
  void set_input(int handle, std::uint64_t value) override {
    sim_.set_input(in_handles_[static_cast<std::size_t>(handle)], value);
  }
  std::uint64_t output(int handle) override {
    return sim_.output(out_handles_[static_cast<std::size_t>(handle)]);
  }
  std::uint64_t work_units() const override { return sim_.ops_executed(); }
  SimCounters counters() const override { return sim_.counters(); }
  CompiledSim& sim() { return sim_; }

 private:
  nl::Netlist netlist_;  // must outlive (and precede) the simulator
  CompiledSim sim_;
  std::vector<CompiledSim::PortRef> in_handles_, out_handles_;
};

/// Builds a gate DUT on the selected backend.  The compiled backend runs
/// two-state and has no checking RAM model and no reference evaluator, so
/// options requesting X power-up or either of those fall back to the
/// interpreter (as does Backend::kInterpreted itself).  Both engines
/// simulate sequentially; the compiled engine's 64 pattern lanes are
/// bit-parallel within one thread.
inline std::unique_ptr<Dut> make_gate_dut(nl::Netlist netlist,
                                          const GateSim::Options& options,
                                          Backend backend) {
  if (backend == Backend::kCompiled && !options.x_initial_flops && !options.check_ram &&
      !options.use_reference_eval)
    return std::make_unique<CompiledDut>(std::move(netlist));
  return std::make_unique<GateDut>(std::move(netlist), options);
}

/// Word-level design under the cycle interpreter (stands in for
/// interpreted RTL-Verilog simulation).  Owns its design copy so callers
/// can hand in temporaries.
class RtlDut final : public Dut {
 public:
  explicit RtlDut(rtl::Design design) : design_(std::move(design)), it_(design_) {}
  void set_input(const std::string& name, std::uint64_t value) override {
    it_.set_input(name, value);
  }
  void step() override {
    it_.step();
    work_ += it_.design().nodes().size();
    fresh_ = false;
  }
  std::uint64_t output(const std::string& name) override {
    refresh();
    return it_.output(name);
  }
  int input_handle(const std::string& name) override {
    return static_cast<int>(it_.input_index(name));
  }
  int output_handle(const std::string& name) override {
    return static_cast<int>(it_.output_node(name));
  }
  void set_input(int handle, std::uint64_t value) override {
    it_.set_input(static_cast<std::size_t>(handle), value);
  }
  std::uint64_t output(int handle) override {
    refresh();
    return it_.value(static_cast<rtl::NodeId>(handle));
  }
  std::uint64_t work_units() const override { return work_; }
  SimCounters counters() const override {
    // Node evaluations only: the RTL interpreter is cycle-based, so the
    // event-driven queue counters stay zero.
    SimCounters c;
    c.evaluations = work_;
    return c;
  }

 private:
  void refresh() {
    if (!fresh_) {  // one post-edge evaluation serves all reads this cycle
      it_.evaluate();
      work_ += it_.design().nodes().size();
      fresh_ = true;
    }
  }

  rtl::Design design_;  // must outlive (and precede) the interpreter
  rtl::Interpreter it_;
  std::uint64_t work_ = 0;
  bool fresh_ = false;
};

}  // namespace scflow::hdlsim
