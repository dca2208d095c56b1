#include "hdlsim/compiled_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/wordpack.hpp"
#include "dtypes/bit_int.hpp"

namespace scflow::hdlsim {

namespace {
using CT = nl::CellType;
constexpr std::uint8_t op_kind(CT t) { return static_cast<std::uint8_t>(t); }
}  // namespace

CompiledSim::CompiledSim(const nl::Netlist& netlist)
    : CompiledSim(netlist, compile_netlist(netlist), nullptr) {}

CompiledSim::CompiledSim(const nl::Netlist& netlist, const CompiledProgram& program)
    : CompiledSim(netlist, CompiledProgram{}, &program) {}

CompiledSim::CompiledSim(const nl::Netlist& netlist, CompiledProgram own,
                         const CompiledProgram* shared)
    : nl_(&netlist),
      prog_own_(std::move(own)),
      prog_(shared != nullptr ? *shared : prog_own_) {
  vals_.assign(prog_.slot_count, 0);
  for (const std::uint32_t s : prog_.tie1_slots) vals_[s] = ~0ull;
  for (std::uint32_t fi = 0; fi < prog_.flop_count; ++fi)
    vals_[fi] = core::word_broadcast(prog_.flop_init[fi] != 0);

  std::size_t widest_bus = 0;
  macro_rt_.resize(prog_.macros.size());
  for (std::size_t mi = 0; mi < prog_.macros.size(); ++mi) {
    const CompiledMacro& cm = prog_.macros[mi];
    if (cm.kind != nl::MacroInfo::Kind::kRam) continue;
    macro_rt_[mi].ram.assign(std::size_t{kLanes} << cm.addr_bits, 0);
    widest_bus = std::max({widest_bus, cm.waddr_slots.size(), cm.wdata_slots.size()});
  }
  port_rt_.resize(prog_.macro_ports.size());
  for (std::size_t pi = 0; pi < prog_.macro_ports.size(); ++pi) {
    const CompiledMacroPort& mp = prog_.macro_ports[pi];
    ++macro_rt_[mp.macro].read_ports;
    const std::size_t stash_words = mp.addr_slots.size() + mp.en_slots.size();
    port_rt_[pi].stash.assign(stash_words, 0);
    widest_bus = std::max(widest_bus, mp.data_slots.size());
  }
  bus_.assign(widest_bus, 0);

  // Read-data slots wired straight onto a port's address/enable bus.
  std::unordered_map<std::uint32_t, std::uint32_t> read_data;  // slot -> driven_ index
  for (const CompiledMacroPort& mp : prog_.macro_ports)
    for (const std::uint32_t s : mp.data_slots) read_data.emplace(s, ~0u);
  for (std::size_t pi = 0; pi < prog_.macro_ports.size(); ++pi) {
    const CompiledMacroPort& mp = prog_.macro_ports[pi];
    std::uint32_t w = 0;  // stash word, in eval_macro_port's scan order
    for (const auto* bus : {&mp.addr_slots, &mp.en_slots})
      for (const std::uint32_t s : *bus) {
        const auto it = read_data.find(s);
        if (it != read_data.end()) {
          if (it->second == ~0u) {
            it->second = static_cast<std::uint32_t>(driven_.size());
            driven_.push_back({.slot = s});
          }
          port_rt_[pi].driven.emplace_back(w, it->second);
        }
        ++w;
      }
  }

  for (const nl::PortBits& p : netlist.inputs()) in_ports_[p.name] = &p;
  for (const nl::PortBits& p : netlist.outputs()) out_ports_[p.name] = &p;
}

CompiledSim::PortRef CompiledSim::input_port(const std::string& name) const {
  const auto it = in_ports_.find(name);
  if (it == in_ports_.end()) throw std::invalid_argument("no input '" + name + "'");
  return it->second;
}

CompiledSim::PortRef CompiledSim::output_port(const std::string& name) const {
  const auto it = out_ports_.find(name);
  if (it == out_ports_.end()) throw std::invalid_argument("no output '" + name + "'");
  return it->second;
}

std::size_t CompiledSim::in_index(PortRef port) const {
  const auto idx = static_cast<std::size_t>(port - nl_->inputs().data());
  if (idx >= nl_->inputs().size())
    throw std::invalid_argument("foreign input port handle");
  return idx;
}

std::size_t CompiledSim::out_index(PortRef port) const {
  const auto idx = static_cast<std::size_t>(port - nl_->outputs().data());
  if (idx >= nl_->outputs().size())
    throw std::invalid_argument("foreign output port handle");
  return idx;
}

void CompiledSim::set_input(const std::string& name, std::uint64_t value) {
  set_input(input_port(name), value);
}

void CompiledSim::set_input(PortRef port, std::uint64_t value) {
  const auto& slots = prog_.input_slots[in_index(port)];
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const bool b = i < 64 && ((value >> i) & 1u) != 0;
    vals_[slots[i]] = core::word_broadcast(b);
  }
}

void CompiledSim::set_input_word(PortRef port, std::size_t bit, std::uint64_t patterns) {
  vals_[prog_.input_slots[in_index(port)].at(bit)] = patterns;
}

// --- PPSFP fault overlay ---------------------------------------------------

void CompiledSim::set_fault_overlay(const std::vector<LaneFault>& faults) {
  ov_settle_.clear();
  ov_commit_.clear();
  ov_op_.clear();
  overlay_ = !faults.empty();
  if (!overlay_) return;

  // Merge the per-lane faults into one clamp per slot (a slot has one
  // driver, so every write site applies the whole merged word at once).
  std::unordered_map<std::uint32_t, Clamp> by_slot;
  for (const LaneFault& lf : faults) {
    if (lf.lane >= kLanes)
      throw std::invalid_argument(prog_.name + ": fault overlay lane out of range");
    if (lf.net < 0 || static_cast<std::size_t>(lf.net) >= prog_.slot_of_net.size())
      throw std::invalid_argument(prog_.name + ": fault overlay net out of range");
    const std::uint32_t slot = prog_.slot_of_net[static_cast<std::size_t>(lf.net)];
    const std::uint64_t mask = std::uint64_t{1} << lf.lane;
    Clamp& c = by_slot[slot];
    c.slot = slot;
    c.mask |= mask;
    if (lf.stuck_one) c.val |= mask;
  }

  std::unordered_map<std::uint32_t, bool> covered;  // slot -> has a write site
  for (const auto& [slot, c] : by_slot) covered[slot] = false;

  // Flop Q slots: rewritten only by the flat commit.
  for (auto& [slot, c] : by_slot)
    if (slot < prog_.flop_count) {
      ov_commit_.push_back(c);
      covered[slot] = true;
    }
  // Externally driven slots: re-clamped before every settle (set_input*
  // happens between steps, so a settle-start clamp is equivalent to
  // clamping inside every drive).
  for (const auto& slots : prog_.input_slots)
    for (const std::uint32_t s : slots) {
      const auto it = by_slot.find(s);
      if (it != by_slot.end()) {
        ov_settle_.push_back(it->second);
        covered[s] = true;
      }
    }
  // Op-driven slots (including macro data buses): clamp right after the
  // driver op itself.  Readers of the slot may share the driver's
  // kind-homogeneous run (a dependent same-kind chain compiles into one
  // run), so the executor splits the run at each clamped op instead of
  // clamping at run end.
  for (std::uint32_t ri = 0; ri < prog_.runs.size(); ++ri) {
    const OpRun& run = prog_.runs[ri];
    for (std::uint32_t oi = run.begin; oi < run.end; ++oi) {
      const CompiledOp& op = prog_.ops[oi];
      if (run.kind == kMacroReadOp) {
        for (const std::uint32_t s : prog_.macro_ports[op.in0].data_slots) {
          const auto it = by_slot.find(s);
          if (it != by_slot.end()) {
            ov_op_.push_back({oi, it->second});
            covered[s] = true;
          }
        }
      } else {
        const auto it = by_slot.find(op.out());
        if (it != by_slot.end()) {
          ov_op_.push_back({oi, it->second});
          covered[op.out()] = true;
        }
      }
    }
  }
  // Anything left (tie cells, undriven nets) never gets rewritten: the
  // install-time clamp below persists, but keep a settle-start clamp so
  // the invariant is enforced uniformly.
  for (const auto& [slot, c] : by_slot)
    if (!covered[slot]) ov_settle_.push_back(c);

  std::sort(ov_op_.begin(), ov_op_.end(),
            [](const OpClamp& a, const OpClamp& b) { return a.op < b.op; });
  // Clamp the current state immediately — inject_stuck semantics.
  for (const auto& [slot, c] : by_slot) apply_clamp(c);
}

// --- execution -------------------------------------------------------------

// Change detection per lane: only the lanes whose settled address/enable
// bits moved since their last evaluation, or whose RAM was written,
// re-evaluate — mirroring GateSim's dirty marking per machine, which is
// what lets externally driven data-port values persist identically on
// both engines (and 64 overlay lanes diverge as 64 GateSims would).
bool CompiledSim::eval_macro_port(std::uint32_t pi) {
  const CompiledMacroPort& mp = prog_.macro_ports[pi];
  const CompiledMacro& cm = prog_.macros[mp.macro];
  MacroRt& mrt = macro_rt_[mp.macro];
  PortRt& prt = port_rt_[pi];

  const std::size_t n_addr = mp.addr_slots.size();
  std::uint64_t changed = prt.valid ? mrt.wrote_mask : ~0ull;
  // The stash holds the last settle's final values: a drive its port
  // then undid still counts as a transition.
  for (const auto& [dw, di] : prt.driven) changed |= prt.stash[dw] ^ driven_[di].value;
  std::size_t w = 0;
  const auto scan = [&](const std::vector<std::uint32_t>& slots) {
    for (const std::uint32_t s : slots) {
      changed |= prt.stash[w] ^ vals_[s];
      prt.stash[w] = vals_[s];
      ++w;
    }
  };
  scan(mp.addr_slots);
  scan(mp.en_slots);
  prt.valid = true;
  if (changed == 0) return false;

  // The stash now holds the settled address words: transpose them into
  // per-lane addresses, look each lane's word up, transpose back.
  core::gather_lanes(prt.stash.data(), n_addr, lane_addr_.data());
  if (cm.kind == nl::MacroInfo::Kind::kRom) {
    const std::uint64_t mask = scflow::bit_mask(cm.data_bits);
    for (std::uint64_t lanes = changed; lanes != 0; lanes &= lanes - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(lanes));
      const std::uint64_t addr = lane_addr_[lane];
      lane_data_[lane] = addr < cm.rom_contents.size()
                             ? static_cast<std::uint64_t>(cm.rom_contents[addr]) & mask
                             : 0;
    }
  } else {
    const std::size_t entries = std::size_t{1} << cm.addr_bits;
    for (std::uint64_t lanes = changed; lanes != 0; lanes &= lanes - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(lanes));
      lane_data_[lane] = mrt.ram[std::size_t{lane} * entries + lane_addr_[lane]];
    }
  }
  const std::size_t data_bits = mp.data_slots.size();
  core::scatter_lanes(lane_data_.data(), changed, data_bits, bus_.data());
  for (std::size_t b = 0; b < data_bits; ++b) {
    const std::uint32_t s = mp.data_slots[b];
    vals_[s] = (vals_[s] & ~changed) | bus_[b];
  }
  return true;
}

void CompiledSim::exec() {
  std::uint64_t* const v = vals_.data();
  std::uint64_t ran = 0;
  const CompiledOp* const ops = prog_.ops.data();
  // One dispatch per kind-homogeneous run, then a tight branch-free sweep
  // of the span — the compiler's level-sorted emission order makes the
  // runs long, so the per-op cost is the loads and the ALU op, not an
  // indirect jump.  Fault-overlay clamps ride the same op order: each
  // clamp fires right after its driver op (oc walks ov_op_, sorted by op
  // index), with the run split at the clamped op — a dependent same-kind
  // chain shares one run, so a reader may sit just after the driver.
  // Overlay-free executions (the benches) never take the split: the oc
  // bound check fails once per run and the sweep covers the whole span.
  std::size_t oc = 0;
  const auto clamps_through = [&](std::uint32_t op_end) {
    for (; oc < ov_op_.size() && ov_op_[oc].op < op_end; ++oc) apply_clamp(ov_op_[oc].clamp);
  };
  const auto sweep = [&](std::uint8_t kind, const CompiledOp* p,
                         const CompiledOp* const e) {
    constexpr std::uint32_t M = CompiledOp::kOutMask;
    switch (kind) {
      case op_kind(CT::kBuf):
        for (; p != e; ++p) v[p->out_kind & M] = v[p->in0];
        break;
      case op_kind(CT::kInv):
        for (; p != e; ++p) v[p->out_kind & M] = ~v[p->in0];
        break;
      case op_kind(CT::kAnd2):
        for (; p != e; ++p) v[p->out_kind & M] = v[p->in0] & v[p->in1];
        break;
      case op_kind(CT::kOr2):
        for (; p != e; ++p) v[p->out_kind & M] = v[p->in0] | v[p->in1];
        break;
      case op_kind(CT::kNand2):
        for (; p != e; ++p) v[p->out_kind & M] = ~(v[p->in0] & v[p->in1]);
        break;
      case op_kind(CT::kNor2):
        for (; p != e; ++p) v[p->out_kind & M] = ~(v[p->in0] | v[p->in1]);
        break;
      case op_kind(CT::kXor2):
        for (; p != e; ++p) v[p->out_kind & M] = v[p->in0] ^ v[p->in1];
        break;
      case op_kind(CT::kXnor2):
        for (; p != e; ++p) v[p->out_kind & M] = ~(v[p->in0] ^ v[p->in1]);
        break;
      case op_kind(CT::kMux2):
        for (; p != e; ++p) {
          const std::uint64_t s = v[p->in0];
          v[p->out_kind & M] = (s & v[p->in2]) | (~s & v[p->in1]);
        }
        break;
      default: break;
    }
  };
  for (std::size_t ri = 0; ri < prog_.runs.size(); ++ri) {
    const OpRun& run = prog_.runs[ri];
    if (run.kind == kMacroReadOp) {
      // Read-port data slots clamp per op too: one port's data net can
      // directly address another port in the same run.
      for (std::uint32_t oi = run.begin; oi < run.end; ++oi) {
        ran += eval_macro_port(ops[oi].in0) ? 1u : 0u;
        clamps_through(oi + 1);
      }
      continue;
    }
    ran += run.end - run.begin;
    std::uint32_t cur = run.begin;
    while (oc < ov_op_.size() && ov_op_[oc].op < run.end) {
      const std::uint32_t stop = ov_op_[oc].op + 1;
      sweep(run.kind, ops + cur, ops + stop);
      clamps_through(stop);
      cur = stop;
    }
    sweep(run.kind, ops + cur, ops + run.end);
  }
  ops_run_ += ran;
  counters_.evaluations += ran;
}

void CompiledSim::ram_writes() {
  for (std::size_t mi = 0; mi < prog_.macros.size(); ++mi) {
    const CompiledMacro& cm = prog_.macros[mi];
    if (cm.kind != nl::MacroInfo::Kind::kRam) continue;
    // A lane writes when any bit of its enable bus is set (GateSim's
    // rule); the OR of the enable words rules out the idle cycle.
    std::uint64_t write = 0;
    for (const std::uint32_t s : cm.wen_slots) write |= vals_[s];
    if (write == 0) continue;
    const auto gather = [&](const std::vector<std::uint32_t>& slots, std::uint64_t* out) {
      for (std::size_t b = 0; b < slots.size(); ++b) bus_[b] = vals_[slots[b]];
      core::gather_lanes(bus_.data(), slots.size(), out);
    };
    gather(cm.waddr_slots, lane_addr_.data());
    gather(cm.wdata_slots, lane_data_.data());
    MacroRt& mrt = macro_rt_[mi];
    const std::size_t entries = std::size_t{1} << cm.addr_bits;
    for (std::uint64_t lanes = write; lanes != 0; lanes &= lanes - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(lanes));
      mrt.ram[std::size_t{lane} * entries + lane_addr_[lane]] =
          static_cast<std::uint32_t>(lane_data_[lane]);
    }
    mrt.wrote_mask |= write;
    counters_.ram_rereads += mrt.read_ports;
  }
}

void CompiledSim::settle() {
  ++counters_.settle_calls;
  ++counters_.settle_passes;
  // Externally driven slots were (re)written by set_input since the last
  // pass; re-assert their lane clamps before any op reads them.
  if (overlay_)
    for (const Clamp& c : ov_settle_) apply_clamp(c);
  for (DrivenData& d : driven_) d.value = vals_[d.slot];
  exec();
  // Write-forced re-evaluations were consumed by this pass.
  for (MacroRt& m : macro_rt_) m.wrote_mask = 0;
}

void CompiledSim::step() {
  settle();
  ram_writes();
  // The flat flop commit the slot layout was built for: next-state region
  // [F,2F) onto the committed region [0,F) in one contiguous copy.
  const std::uint32_t F = prog_.flop_count;
  std::copy_n(vals_.begin() + F, F, vals_.begin());
  // Faulty Q slots: the commit is the write, the clamp follows it.
  if (overlay_)
    for (const Clamp& c : ov_commit_) apply_clamp(c);
  ++cycles_;
}

// --- reads -----------------------------------------------------------------

std::uint64_t CompiledSim::output(const std::string& name) {
  return output(output_port(name));
}

std::uint64_t CompiledSim::output(PortRef port) {
  const auto& slots = prog_.output_slots[out_index(port)];
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < slots.size() && i < 64; ++i)
    v |= std::uint64_t{core::word_lane(vals_[slots[i]], 0)} << i;
  return v;
}

GateSim::PortSample CompiledSim::output_sample(PortRef port, unsigned lane) const {
  const auto& slots = prog_.output_slots[out_index(port)];
  GateSim::PortSample s;
  for (std::size_t i = 0; i < slots.size() && i < 64; ++i) {
    s.known |= std::uint64_t{1} << i;
    if (core::word_lane(vals_[slots[i]], lane)) s.value |= std::uint64_t{1} << i;
  }
  return s;
}

std::uint64_t CompiledSim::output_word(PortRef port, std::size_t bit) const {
  return vals_[prog_.output_slots[out_index(port)].at(bit)];
}

}  // namespace scflow::hdlsim
