// Event-driven four-valued gate-level simulator — the substrate's
// equivalent of interpreted HDL simulation of the synthesised netlist,
// including the behavioural macro models for the buffer RAM (optionally
// the address-checking variant that exposed the paper's golden-model bug)
// and the coefficient ROM.
//
// The evaluation core is table-driven and allocation-free: Logic values
// are 2-bit codes, every 0–3-input cell is one lookup in a precomputed
// 64-entry truth table, fanout lives in a CSR (offsets + targets) layout,
// input nets sit inline in each 10-byte evaluation unit, and the dirty
// set is a bitmap over units stored in (level, creation) order.
//
// settle() is one sequential ascending pass over that bitmap.  Every
// unit's drivers sit at strictly lower levels, so evaluating a unit can
// only mark units at higher indices: one forward sweep evaluates each
// dirty unit exactly once per settle, after all of its inputs.  The
// engine is single-threaded; parallelism lives outside it, in
// BatchRunner's independent simulations.
// The original switch-based evaluator is retained behind
// Options::use_reference_eval as the differential-testing oracle.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dtypes/logic.hpp"
#include "hdlsim/sim_counters.hpp"
#include "netlist/netlist.hpp"

namespace scflow::hdlsim {

class GateSim {
 public:
  struct Options {
    /// Power-up flops to X instead of their reset/init values (classic
    /// gate-level X-propagation behaviour).
    bool x_initial_flops = false;
    /// Attach the checking RAM simulation model: flags reads of
    /// never-written or stale (age > 55 samples) slots and X addresses.
    bool check_ram = false;
    /// Evaluate cells through the original switch + logic_*() call chain
    /// instead of the packed truth-table LUTs.  Slower; kept as the
    /// reference oracle for the fuzz-equivalence tests.
    bool use_reference_eval = false;
  };

  struct RamViolation {
    std::uint64_t count = 0;
    std::uint64_t first_cycle = 0;
    unsigned first_address = 0;
    std::string first_kind;
  };

  explicit GateSim(const nl::Netlist& netlist) : GateSim(netlist, Options()) {}
  GateSim(const nl::Netlist& netlist, Options options);
  GateSim(const GateSim&) = delete;
  GateSim& operator=(const GateSim&) = delete;

  /// Resolved port handles: look the name up once, then drive/read the
  /// port every cycle without the string-keyed map lookup.
  using PortRef = const nl::PortBits*;
  [[nodiscard]] PortRef input_port(const std::string& name) const;
  [[nodiscard]] PortRef output_port(const std::string& name) const;

  void set_input(const std::string& name, std::uint64_t value);
  void set_input(PortRef port, std::uint64_t value);
  void set_input_x(const std::string& name);
  /// Drives an input port with arbitrary four-valued bits (X/Z injection
  /// for verification); vector width must not exceed the port width.
  void set_input_logic(const std::string& name, const scflow::LogicVector& bits);

  /// Settles combinational logic for the current inputs.
  void settle();
  /// Full clock cycle: settle, then update flops and RAM contents.
  void step();

  [[nodiscard]] scflow::LogicVector output_bits(const std::string& name);
  /// Numeric output; requires all bits 0/1 (throws on X/Z).
  [[nodiscard]] std::uint64_t output(const std::string& name);
  [[nodiscard]] std::uint64_t output(PortRef port);

  /// Packed, never-throwing output read for response comparison: bit i of
  /// `known` is set when bit i of the port is 0/1 (then bit i of `value`
  /// holds it); X/Z bits are unknown.  Used by the fault-simulation
  /// campaigns, which must tolerate X at observe points.
  struct PortSample {
    std::uint64_t value = 0;
    std::uint64_t known = 0;
  };
  [[nodiscard]] PortSample output_sample(PortRef port) const;

  // --- fault injection (src/fault) ---
  /// Overlays a single stuck-at fault: from now on every write to @p net
  /// (cell evaluation, flop commit, external input, macro data) is clamped
  /// to @p v, so the faulty value propagates exactly like a driven value —
  /// no netlist copy, no structural change.  The current value is forced
  /// and its fanout re-queued immediately.  One fault may be active per
  /// simulator; injecting again replaces it (the prior net keeps its last
  /// clamped value until its driver re-evaluates).
  void inject_stuck(nl::NetId net, scflow::Logic v);
  [[nodiscard]] nl::NetId stuck_net() const {
    return stuck_net_ == kNoStuckNet ? nl::kNoNet : static_cast<nl::NetId>(stuck_net_);
  }

  /// Sequential cells flattened in netlist cell order (scan-chain order).
  [[nodiscard]] std::size_t flop_count() const { return flops_.size(); }
  [[nodiscard]] nl::NetId flop_output(std::size_t i) const { return flops_[i].out; }
  /// Transient SEU: flips flop @p i's committed state bit (0<->1), marks
  /// its fanout dirty and forces a re-sample at the next edge (so the flop
  /// recovers through its D input like real hardware).  Returns false —
  /// and injects nothing — when the current state is X/Z.
  bool flip_flop(std::size_t i);

  [[nodiscard]] const RamViolation& ram_violations() const { return ram_violation_; }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  /// Gate evaluations performed so far — the "interpreted simulator work"
  /// metric the Fig. 9 benchmark reports against.
  [[nodiscard]] std::uint64_t gate_evaluations() const { return counters_.evaluations; }
  [[nodiscard]] const SimCounters& counters() const { return counters_; }

 private:
  struct MacroState {
    const nl::MacroInfo* info = nullptr;
    std::vector<std::uint32_t> ram_words;
    std::vector<bool> written;
    std::vector<std::uint64_t> written_at;  // write serial per slot
    std::uint64_t write_count = 0;
    // Write-side nets resolved once at construction (RAM only).
    std::vector<nl::NetId> wen_nets, waddr_nets, wdata_nets;
    // (macro, port) -> evaluation-unit index, so a RAM write re-queues its
    // read ports in O(#ports) instead of scanning every unit.
    std::vector<std::uint32_t> port_unit;
  };

  // Read-port nets resolved once at construction; shared by the LUT and
  // reference paths so neither chases port-name lookups while settling.
  struct MacroPort {
    std::uint32_t macro = 0;
    std::uint32_t port = 0;
    std::vector<nl::NetId> addr_nets, en_nets, data_nets;
  };

  // One evaluation unit: a combinational cell or a macro read port.
  // 10 bytes, with the (≤3) input nets inline as 16-bit ids (the
  // constructor rejects netlists with ≥2^16 nets), so six units share
  // each cache line the settle() sweep walks.  Unused input slots point at
  // the sentinel net (index net_count), which is never written, so the
  // 3-slot read needs no arity branch.
  // After construction the index order IS (level, creation) order.
  struct Unit {
    std::uint16_t in[3] = {0, 0, 0};  // cell input nets (unused: sentinel)
    std::uint16_t out = 0;            // cell output net | macro_ports_ index
    std::uint8_t type = 0;            // nl::CellType or kMacroUnit
    std::uint8_t n_inputs = 0;
  };
  static constexpr std::uint8_t kMacroUnit = 0xff;

  struct FlopRec {
    nl::NetId d = nl::kNoNet, si = nl::kNoNet, se = nl::kNoNet;
    nl::NetId out = nl::kNoNet;
    bool sdff = false;
    int init = 0;
  };

  void eval_macro_port(const Unit& u);
  void set_net(nl::NetId net, scflow::Logic v);
  void mark_dirty_fanout(nl::NetId net);
  /// CSR target: unit index, or n_units + flop index for flop D/SI/SE taps.
  /// Kept inline — this runs once per fanout edge of every changed net.
  /// Callers sample the queue high-water mark after their mark batch (see
  /// note_queue_peak); settle() samples at level boundaries instead.
  void mark_target_dirty(std::uint32_t t) {
    if (t >= units_.size()) {
      const std::uint32_t x = t - static_cast<std::uint32_t>(units_.size());
      if (x < flops_.size()) {
        flop_dirty_words_[x >> 6] |= std::uint64_t{1} << (x & 63u);
      } else {
        out_cache_[x - flops_.size()].dirty = true;
      }
      return;
    }
    std::uint64_t& w = dirty_words_[t >> 6];
    const std::uint64_t m = std::uint64_t{1} << (t & 63u);
    if ((w & m) != 0) return;
    w |= m;
    ++counters_.dirty_pushes;
    ++queued_now_;
  }
  void note_queue_peak() {
    if (queued_now_ > counters_.peak_queue_depth) counters_.peak_queue_depth = queued_now_;
  }
  [[nodiscard]] scflow::Logic net(nl::NetId n) const {
    return values_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] std::pair<bool, std::uint64_t> read_bus(const std::vector<nl::NetId>& nets) const;

  const nl::Netlist* nl_;
  Options options_;
  // Net values plus one trailing sentinel slot (index net_count) that is
  // never written; unused unit input slots read it.
  std::vector<scflow::Logic> values_;

  std::vector<Unit> units_;             // (level, creation) order
  const std::uint8_t* luts_ = nullptr;  // flat 16x64 truth tables
  // Fanout in CSR form: one offsets array per net, one flat target array.
  // Targets < units_.size() are evaluation units; larger targets encode
  // flop sample taps (n_units + flop index) and output-port taps
  // (n_units + n_flops + port index), so one lookup per net change serves
  // the dirty set, the touched-flop delta set and output-cache
  // invalidation alike.
  std::vector<std::uint32_t> fanout_offsets_;
  std::vector<std::uint32_t> fanout_targets_;
  // Within each net's CSR range, unit targets come first and flop taps
  // last; this is the boundary, so the hot sweep walks each sub-range
  // without a per-target range test.
  std::vector<std::uint32_t> fanout_unit_end_;
  // Dirty set as a bitmap over unit indices, ceil(units / 64) words.
  // Units are level-sorted, so evaluating a unit can only set bits at
  // higher indices — possibly later in the word being swept.
  std::vector<std::uint64_t> dirty_words_;
  // First unit index of each level, plus a final entry = units_.size().
  // Only used to sample peak_queue_depth as settle() enters a level.
  std::vector<std::uint32_t> level_begin_;
  std::uint64_t queued_now_ = 0;

  std::vector<FlopRec> flops_;
  std::vector<scflow::Logic> next_flop_;  // persistent step() buffer
  // Flop delta tracking: only flops whose D/SI/SE nets changed since the
  // last edge are re-sampled and re-committed.  Bitmap marks, drained
  // into the scratch index list each step (no steady-state allocation).
  std::vector<std::uint64_t> flop_dirty_words_;
  std::vector<std::uint32_t> flop_active_;
  std::vector<MacroState> macros_;
  std::vector<MacroPort> macro_ports_;
  std::unordered_map<std::string, const nl::PortBits*> in_ports_;
  std::unordered_map<std::string, const nl::PortBits*> out_ports_;
  // Packed per-output-port value cache, invalidated through the CSR port
  // taps; repeated monitor reads of an unchanged port cost O(1) instead
  // of a per-bit walk.  Parallel to nl_->outputs().
  struct OutCache {
    std::uint64_t value = 0;
    bool defined = false;
    bool dirty = true;
  };
  std::vector<OutCache> out_cache_;

  // Active stuck-at overlay: writers compare their output net against this
  // id (kNoStuckNet never matches a 16-bit-encodable net, so the fault-free
  // hot path costs one predictable register compare per evaluation).
  static constexpr std::uint32_t kNoStuckNet = 0xffffffffu;
  std::uint32_t stuck_net_ = kNoStuckNet;
  scflow::Logic stuck_value_ = scflow::Logic::X;

  RamViolation ram_violation_;
  std::uint64_t cycles_ = 0;
  SimCounters counters_;
};

}  // namespace scflow::hdlsim
