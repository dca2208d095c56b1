// Bit-parallel compiled gate simulator: executes the straight-line
// bytecode produced by compile_netlist() with 64 independent two-state
// patterns packed per machine word — one fused op per cell, operands
// pre-resolved to dense word slots, flop commit as one flat copy.  The
// Verilated-style answer to GateSim's event-driven interpreter: no dirty
// queue, no levels, just a tight dispatch loop whose pattern throughput
// (patterns x cycles / s) is what the compiled backend benches report.
//
// Two-state only: one word per slot, X-free semantics, bit-exact with
// GateSim wherever the stimulus and reset state are fully defined (the
// SRC schedules and the PPSFP lanes behind their two-state screen).
// X-accurate simulation is GateSim's job: make_gate_dut and
// run_src_netlist fall back to it for x_initial_flops, the checking RAM
// model (Options::check_ram) and the reference evaluator.
//
// Macro (RAM/ROM) read ports run as word-parallel ops inside the
// compiled program: a bit-matrix transpose (core/wordpack.hpp, log2 of
// the bus width in block-swap stages over all 64 lanes) turns the
// address slot words into per-lane addresses, each lane looks its word
// up, and a second transpose moves the data back onto the data slots;
// the RAM write pass gathers address and data the same way and is
// skipped outright when no lane's enable is set.  To match GateSim's
// event semantics (externally driven macro-data values persist until the
// port re-evaluates), a lane of a port only re-evaluates when that
// lane's settled address/enable bits changed since its last evaluation
// or its RAM was written, so each lane behaves as a GateSim over its own
// stimulus.  A port addressed directly by another port's read data also
// re-evaluates when the external drive moved that data, even if the
// other port then restored it — GateSim's dirtiness is per transition,
// not per settled value.
//
// PPSFP fault overlay (set_fault_overlay): each pattern lane carries one
// stuck-at fault.  The fault's slot is clamped after every write — at
// settle start for externally driven slots, right after its driver op
// (the executor splits that op's kind-homogeneous run at the clamp,
// since a reader may share the run), after the flat flop commit for Q
// slots — matching GateSim::inject_stuck's write-side semantics per
// lane.  With the per-lane macro change detection above, 64 faulty
// machines diverge independently exactly as 64 event-driven GateSims
// would, RAM/ROM bus faults included; the fault campaign's PPSFP engine
// is the client.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hdlsim/compile.hpp"
#include "hdlsim/gate_sim.hpp"
#include "hdlsim/sim_counters.hpp"
#include "netlist/netlist.hpp"

namespace scflow::hdlsim {

class CompiledSim {
 public:
  /// Patterns per machine word — the parallel axis of this backend.
  static constexpr unsigned kLanes = 64;

  /// @p netlist must outlive the simulator (slots bind to its ports).
  explicit CompiledSim(const nl::Netlist& netlist);
  /// Shares a pre-compiled @p program (from compile_netlist(netlist);
  /// must outlive the simulator).  Fan-out users — the PPSFP fault
  /// batches above all — compile once and construct many executors.
  CompiledSim(const nl::Netlist& netlist, const CompiledProgram& program);
  CompiledSim(const CompiledSim&) = delete;
  CompiledSim& operator=(const CompiledSim&) = delete;

  /// One stuck-at clamp of the PPSFP fault overlay: pattern lane
  /// @p lane's bit of @p net's slot is forced to @p stuck_one after every
  /// write to the slot.
  struct LaneFault {
    nl::NetId net = nl::kNoNet;
    bool stuck_one = false;
    unsigned lane = 0;
  };

  /// Installs a per-lane stuck-at overlay (replacing any previous one)
  /// and clamps the current state, like GateSim::inject_stuck.  The PPSFP
  /// campaign screens X-sensitive programs out to the event-driven engine
  /// first.  An empty vector clears the overlay.
  void set_fault_overlay(const std::vector<LaneFault>& faults);

  using PortRef = const nl::PortBits*;
  [[nodiscard]] PortRef input_port(const std::string& name) const;
  [[nodiscard]] PortRef output_port(const std::string& name) const;

  // --- broadcast drivers (GateSim-compatible surface) ---
  /// Drives all 64 lanes with the same scalar value.
  void set_input(const std::string& name, std::uint64_t value);
  void set_input(PortRef port, std::uint64_t value);

  // --- pattern-word drivers (64 independent stimuli) ---
  /// Drives bit @p bit of @p port with one pattern per lane.
  void set_input_word(PortRef port, std::size_t bit, std::uint64_t patterns);

  /// Settles combinational logic: one straight-line pass over the ops.
  void settle();
  /// Full clock cycle: settle, RAM writes, flat flop commit.
  void step();

  // --- reads ---
  /// Lane-0 numeric output.
  [[nodiscard]] std::uint64_t output(const std::string& name);
  [[nodiscard]] std::uint64_t output(PortRef port);
  /// Packed sample of one lane (GateSim::PortSample shape, always fully
  /// known, so parity checks compare the two engines type-for-type).
  [[nodiscard]] GateSim::PortSample output_sample(PortRef port, unsigned lane = 0) const;
  /// The raw 64 patterns of one output bit.
  [[nodiscard]] std::uint64_t output_word(PortRef port, std::size_t bit) const;

  // --- GateSim-parity observability ---
  /// Always empty: the checking RAM model is interpreter-only.
  [[nodiscard]] const GateSim::RamViolation& ram_violations() const {
    return no_violations_;
  }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] std::uint64_t gate_evaluations() const { return counters_.evaluations; }
  [[nodiscard]] const SimCounters& counters() const { return counters_; }

  [[nodiscard]] const CompiledProgram& program() const { return prog_; }
  /// Bytecode ops executed so far (skipped macro reads excluded).
  [[nodiscard]] std::uint64_t ops_executed() const { return ops_run_; }

 private:
  struct MacroRt {
    std::vector<std::uint32_t> ram;  // [lane * entries + addr]; always defined
    std::uint32_t read_ports = 0;
    // Lanes written since the last settle: force their port re-eval.
    std::uint64_t wrote_mask = 0;
  };
  struct PortRt {
    // Settled addr+en words at the last evaluation — the change detector
    // that reproduces GateSim's event-driven port dirtiness.
    std::vector<std::uint64_t> stash;
    // (stash word, driven_ index) of each addr/en slot that is another
    // port's read data.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> driven;
    bool valid = false;
  };
  // A read-data slot wired straight onto a read port's address/enable
  // bus.  It is written twice per cycle, by set_input and then by its own
  // port, and GateSim dirties the consumer on either transition even when
  // the second undoes the first — so the consumer also compares its stash
  // against the slot as the drive left it, captured at settle start.
  struct DrivenData {
    std::uint32_t slot = 0;
    std::uint64_t value = 0;
  };

  // One merged write-site clamp of the fault overlay: lanes in `mask`
  // are forced to the bits of `val` (val is pre-masked).
  struct Clamp {
    std::uint32_t slot = 0;
    std::uint64_t mask = 0;
    std::uint64_t val = 0;
  };
  struct OpClamp {
    std::uint32_t op = 0;  // index into prog_.ops; applied right after that op
    Clamp clamp;
  };

  CompiledSim(const nl::Netlist& netlist, CompiledProgram own,
              const CompiledProgram* shared);

  void exec();
  bool eval_macro_port(std::uint32_t pi);
  void ram_writes();
  void apply_clamp(const Clamp& c) { vals_[c.slot] = (vals_[c.slot] & ~c.mask) | c.val; }

  [[nodiscard]] std::size_t in_index(PortRef port) const;
  [[nodiscard]] std::size_t out_index(PortRef port) const;

  const nl::Netlist* nl_;
  CompiledProgram prog_own_;     // owned compile when not sharing
  const CompiledProgram& prog_;  // the executed program (own or shared)
  std::vector<std::uint64_t> vals_;
  std::vector<MacroRt> macro_rt_;
  std::vector<PortRt> port_rt_;
  std::vector<DrivenData> driven_;
  // Macro-port transpose scratch: one bus of slot words (sized to the
  // widest read-data / RAM write bus at construction, so the steady
  // state never allocates) and per-lane address / data words.
  std::vector<std::uint64_t> bus_;
  std::array<std::uint64_t, kLanes> lane_addr_{}, lane_data_{};
  std::unordered_map<std::string, PortRef> in_ports_, out_ports_;

  // Fault overlay, split by write site: externally driven / undriven
  // slots re-clamp at settle start, op-driven slots right after their
  // driver op (ov_op_ sorted by op index — a reader may share the
  // driver's kind-homogeneous run, so end-of-run clamping would be too
  // late), flop Q slots after the flat commit.
  bool overlay_ = false;
  std::vector<Clamp> ov_settle_, ov_commit_;
  std::vector<OpClamp> ov_op_;

  GateSim::RamViolation no_violations_;
  SimCounters counters_;
  std::uint64_t cycles_ = 0;
  std::uint64_t ops_run_ = 0;
};

}  // namespace scflow::hdlsim
