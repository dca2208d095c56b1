#include "hdlsim/gate_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "dtypes/bit_int.hpp"

namespace scflow::hdlsim {

using nl::Cell;
using nl::CellType;
using nl::NetId;
using scflow::Logic;

namespace {

/// The original switch + logic_*() evaluator, kept verbatim as the oracle
/// for the table-driven path (and as the source the LUTs are built from,
/// so both paths share one definition of the 4-value semantics).
Logic reference_cell_eval(CellType t, Logic a, Logic b, Logic c) {
  switch (t) {
    case CellType::kTie0: return Logic::L0;
    case CellType::kTie1: return Logic::L1;
    case CellType::kBuf: return a == Logic::Z ? Logic::X : a;
    case CellType::kInv: return scflow::logic_not(a);
    case CellType::kAnd2: return scflow::logic_and(a, b);
    case CellType::kOr2: return scflow::logic_or(a, b);
    case CellType::kNand2: return scflow::logic_not(scflow::logic_and(a, b));
    case CellType::kNor2: return scflow::logic_not(scflow::logic_or(a, b));
    case CellType::kXor2: return scflow::logic_xor(a, b);
    case CellType::kXnor2: return scflow::logic_not(scflow::logic_xor(a, b));
    case CellType::kMux2: return scflow::logic_mux(a, b, c);
    default: return Logic::X;  // flops not evaluated combinationally
  }
}

/// One flat 16x64 block of truth tables, indexed type<<6 | packed input
/// code (in0 | in1<<2 | in2<<4; absent inputs read as any code — the
/// tables are constant across ignored-input codes).
const std::uint8_t* cell_luts() {
  static const auto tables = [] {
    std::array<std::uint8_t, 16 * 64> tb{};
    for (unsigned ti = 0; ti < 16; ++ti) {
      for (unsigned code = 0; code < 64; ++code) {
        const auto a = static_cast<Logic>(code & 3u);
        const auto b = static_cast<Logic>((code >> 2) & 3u);
        const auto c = static_cast<Logic>((code >> 4) & 3u);
        tb[(ti << 6) | code] =
            static_cast<std::uint8_t>(reference_cell_eval(static_cast<CellType>(ti), a, b, c));
      }
    }
    return tb;
  }();
  return tables.data();
}

}  // namespace

GateSim::GateSim(const nl::Netlist& netlist, Options options)
    : nl_(&netlist), options_(options) {
  netlist.validate();
  if (netlist.net_count() > 0xffff)
    throw std::logic_error(netlist.name() + ": too many nets for 16-bit unit encoding");
  // One extra sentinel slot past the real nets: permanently X, never
  // written, read by unused unit input slots.
  values_.assign(static_cast<std::size_t>(netlist.net_count()) + 1, Logic::X);
  const auto sentinel = static_cast<std::uint16_t>(netlist.net_count());
  for (const auto& p : netlist.inputs()) in_ports_[p.name] = &p;
  for (const auto& p : netlist.outputs()) out_ports_[p.name] = &p;

  // Flops are clock-edge sources, flattened into plain records so step()
  // walks contiguous memory.
  for (const Cell& c : netlist.cells()) {
    if (!nl::cell_is_sequential(c.type)) continue;
    FlopRec f;
    f.d = c.inputs[0];
    if (c.type == CellType::kSdff) {
      f.si = c.inputs[1];
      f.se = c.inputs[2];
      f.sdff = true;
    }
    f.out = c.output;
    f.init = c.init;
    flops_.push_back(f);
  }
  next_flop_.assign(flops_.size(), Logic::X);
  flop_dirty_words_.assign((flops_.size() + 63) / 64, 0);
  flop_active_.reserve(flops_.size());

  // Evaluation units: combinational cells (in the netlist's stable
  // topological order, so memory layout roughly follows level order) then
  // macro read ports.  src_cell/driver_unit are construction scaffolding.
  std::vector<std::size_t> src_cell;  // unit -> cell index (cells only)
  std::vector<std::int32_t> driver_unit(static_cast<std::size_t>(netlist.net_count()), -1);
  for (std::size_t ci : nl::combinational_topo_order(netlist)) {
    const Cell& c = netlist.cells()[ci];
    Unit u;
    u.type = static_cast<std::uint8_t>(c.type);
    u.n_inputs = static_cast<std::uint8_t>(c.inputs.size());
    u.in[0] = u.in[1] = u.in[2] = sentinel;
    for (std::size_t k = 0; k < c.inputs.size(); ++k)
      u.in[k] = static_cast<std::uint16_t>(c.inputs[k]);
    u.out = static_cast<std::uint16_t>(c.output);
    driver_unit[static_cast<std::size_t>(c.output)] = static_cast<std::int32_t>(units_.size());
    src_cell.push_back(ci);
    units_.push_back(u);
  }
  for (std::size_t mi = 0; mi < netlist.macros.size(); ++mi) {
    const auto& info = netlist.macros[mi];
    MacroState ms;
    ms.info = &info;
    if (info.kind == nl::MacroInfo::Kind::kRam) {
      const std::size_t entries = std::size_t{1} << info.addr_bits;
      ms.ram_words.assign(entries, 0);
      ms.written.assign(entries, false);
      ms.written_at.assign(entries, 0);
      ms.wen_nets = netlist.find_output(info.write_enable_port)->nets;
      ms.waddr_nets = netlist.find_output(info.write_addr_port)->nets;
      ms.wdata_nets = netlist.find_output(info.write_data_port)->nets;
    }
    for (std::size_t port = 0; port < info.read_data_ports.size(); ++port) {
      MacroPort mp;
      mp.macro = static_cast<std::uint32_t>(mi);
      mp.port = static_cast<std::uint32_t>(port);
      mp.addr_nets = netlist.find_output(info.read_addr_ports[port])->nets;
      // RAM reads also depend on contents, which change only at clock
      // edges — no combinational dependency on the write side.
      if (info.kind == nl::MacroInfo::Kind::kRam && port < info.read_enable_ports.size())
        mp.en_nets = netlist.find_output(info.read_enable_ports[port])->nets;
      const auto* data = netlist.find_input(info.read_data_ports[port]);
      if (data == nullptr) throw std::logic_error("macro data port missing");
      mp.data_nets = data->nets;

      Unit u;
      u.type = kMacroUnit;
      u.in[0] = u.in[1] = u.in[2] = sentinel;
      u.out = static_cast<std::uint16_t>(macro_ports_.size());
      for (NetId n : mp.data_nets)
        driver_unit[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(units_.size());
      ms.port_unit.push_back(static_cast<std::uint32_t>(units_.size()));
      src_cell.push_back(~std::size_t{0});
      macro_ports_.push_back(std::move(mp));
      units_.push_back(u);
    }
    macros_.push_back(std::move(ms));
  }

  // Per-unit input nets as one flat arena (cells inline their ≤3 nets;
  // macro ports contribute address + read-enable nets), used to build the
  // fanout CSR and to run the Kahn pass.
  const auto for_each_unit_input = [this](const Unit& u, auto&& fn) {
    if (u.type != kMacroUnit) {
      for (std::size_t k = 0; k < u.n_inputs; ++k) fn(u.in[k]);
    } else {
      const MacroPort& mp = macro_ports_[static_cast<std::size_t>(u.out)];
      for (NetId n : mp.addr_nets) fn(n);
      for (NetId n : mp.en_nets) fn(n);
    }
  };
  // Flop sample taps ride in the same CSR, encoded past the unit range.
  const auto for_each_flop_input = [this](const FlopRec& f, auto&& fn) {
    fn(f.d);
    if (f.sdff) {
      fn(f.si);
      fn(f.se);
    }
  };
  const auto& out_ports = netlist.outputs();
  out_cache_.assign(out_ports.size(), {});
  const auto build_fanout = [&] {
    fanout_offsets_.assign(static_cast<std::size_t>(nl_->net_count()) + 1, 0);
    for (const Unit& u : units_)
      for_each_unit_input(u, [&](NetId n) { ++fanout_offsets_[static_cast<std::size_t>(n) + 1]; });
    for (const FlopRec& f : flops_)
      for_each_flop_input(f, [&](NetId n) { ++fanout_offsets_[static_cast<std::size_t>(n) + 1]; });
    for (const nl::PortBits& p : out_ports)
      for (NetId n : p.nets) ++fanout_offsets_[static_cast<std::size_t>(n) + 1];
    for (std::size_t i = 1; i < fanout_offsets_.size(); ++i)
      fanout_offsets_[i] += fanout_offsets_[i - 1];
    fanout_targets_.assign(fanout_offsets_.back(), 0);
    std::vector<std::uint32_t> cur(fanout_offsets_.begin(), fanout_offsets_.end() - 1);
    for (std::size_t ui = 0; ui < units_.size(); ++ui)
      for_each_unit_input(units_[ui], [&](NetId n) {
        fanout_targets_[cur[static_cast<std::size_t>(n)]++] = static_cast<std::uint32_t>(ui);
      });
    fanout_unit_end_ = cur;  // flop and output-port taps fill in after this
    for (std::size_t fi = 0; fi < flops_.size(); ++fi)
      for_each_flop_input(flops_[fi], [&](NetId n) {
        fanout_targets_[cur[static_cast<std::size_t>(n)]++] =
            static_cast<std::uint32_t>(units_.size() + fi);
      });
    for (std::size_t pi = 0; pi < out_ports.size(); ++pi)
      for (NetId n : out_ports[pi].nets)
        fanout_targets_[cur[static_cast<std::size_t>(n)]++] =
            static_cast<std::uint32_t>(units_.size() + flops_.size() + pi);
  };
  build_fanout();

  // Levelise with one Kahn pass over the unit graph (cells were already
  // cycle-checked by combinational_topo_order; this also covers cycles
  // that thread through a macro read port).  Every unit's drivers sit at
  // strictly lower levels — the property the ascending sweep rests on:
  // every unit's inputs settle before its index is reached.
  std::vector<std::int32_t> level(units_.size(), 0);
  {
    std::vector<std::uint32_t> indeg(units_.size(), 0);
    for (std::size_t ui = 0; ui < units_.size(); ++ui)
      for_each_unit_input(units_[ui], [&](NetId n) {
        if (driver_unit[static_cast<std::size_t>(n)] >= 0) ++indeg[ui];
      });
    std::vector<std::uint32_t> ready;
    ready.reserve(units_.size());
    for (std::size_t ui = 0; ui < units_.size(); ++ui)
      if (indeg[ui] == 0) ready.push_back(static_cast<std::uint32_t>(ui));
    const auto relax_net = [&](NetId n, std::int32_t new_level) {
      const auto b = fanout_offsets_[static_cast<std::size_t>(n)];
      const auto e = fanout_offsets_[static_cast<std::size_t>(n) + 1];
      for (std::uint32_t k = b; k < e; ++k) {
        const std::uint32_t t = fanout_targets_[k];
        if (t >= units_.size()) continue;  // flop tap: no combinational edge
        level[t] = std::max(level[t], new_level);
        if (--indeg[t] == 0) ready.push_back(t);
      }
    };
    std::size_t head = 0;
    for (; head < ready.size(); ++head) {
      const std::uint32_t ui = ready[head];
      const Unit& u = units_[ui];
      if (u.type != kMacroUnit) {
        relax_net(u.out, level[ui] + 1);
      } else {
        for (NetId n : macro_ports_[static_cast<std::size_t>(u.out)].data_nets)
          relax_net(n, level[ui] + 1);
      }
    }
    if (head != units_.size()) {
      for (std::size_t ui = 0; ui < units_.size(); ++ui) {
        if (indeg[ui] == 0) continue;
        if (units_[ui].type != kMacroUnit)
          throw std::logic_error(netlist.name() + ": combinational cycle through " +
                                 nl::describe_cell(netlist, src_cell[ui]));
        const MacroPort& mp = macro_ports_[static_cast<std::size_t>(units_[ui].out)];
        throw std::logic_error(netlist.name() + ": combinational cycle through macro '" +
                               macros_[mp.macro].info->name + "' read port " +
                               std::to_string(mp.port));
      }
    }
  }

  // Reorder units by (level, creation order), record where each level
  // starts, then rebuild the macro port map and the fanout CSR against
  // the final indices.
  {
    std::vector<std::uint32_t> perm(units_.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(perm.begin(), perm.end(), [&level](std::uint32_t a, std::uint32_t b) {
      return level[a] < level[b];
    });
    std::vector<Unit> new_units;
    new_units.reserve(units_.size());
    std::vector<std::uint32_t> old_to_new(units_.size());
    for (const std::uint32_t oi : perm) {
      const auto ni = static_cast<std::uint32_t>(new_units.size());
      if (ni == 0 || level[oi] != level[perm[ni - 1]]) level_begin_.push_back(ni);
      old_to_new[oi] = ni;
      new_units.push_back(units_[oi]);
    }
    level_begin_.push_back(static_cast<std::uint32_t>(new_units.size()));
    units_ = std::move(new_units);
    for (MacroState& ms : macros_)
      for (std::uint32_t& ui : ms.port_unit) ui = old_to_new[ui];
    build_fanout();
  }

  luts_ = cell_luts();
  dirty_words_.assign((units_.size() + 63) / 64, 0);

  // Initial state: flop outputs to init (or X), every unit and flop dirty
  // once.
  for (const FlopRec& f : flops_)
    values_[static_cast<std::size_t>(f.out)] =
        options_.x_initial_flops ? Logic::X : scflow::logic_from_bool(f.init != 0);
  for (std::size_t t = 0; t < units_.size() + flops_.size(); ++t)
    mark_target_dirty(static_cast<std::uint32_t>(t));
  note_queue_peak();
}

void GateSim::set_net(NetId net, Logic v) {
  if (static_cast<std::uint32_t>(net) == stuck_net_) v = stuck_value_;
  auto& slot = values_[static_cast<std::size_t>(net)];
  if (slot == v) return;
  slot = v;
  mark_dirty_fanout(net);
}

void GateSim::inject_stuck(NetId net, Logic v) {
  if (net < 0 || net >= nl_->net_count())
    throw std::invalid_argument(nl_->name() + ": stuck-at net out of range");
  if (!scflow::logic_is_01(v))
    throw std::invalid_argument(nl_->name() + ": stuck-at value must be 0/1");
  stuck_net_ = static_cast<std::uint32_t>(net);
  stuck_value_ = v;
  set_net(net, v);  // clamps; marks fanout when the value actually changes
  note_queue_peak();
}

bool GateSim::flip_flop(std::size_t i) {
  const FlopRec& f = flops_[i];
  const Logic cur = values_[static_cast<std::size_t>(f.out)];
  if (!scflow::logic_is_01(cur)) return false;
  set_net(f.out, scflow::logic_not(cur));
  // Keep the committed-state buffer coherent with the (possibly clamped)
  // flipped value, and force a D re-sample at the next edge so the flop
  // recovers through its input cone like real hardware would.
  next_flop_[i] = values_[static_cast<std::size_t>(f.out)];
  mark_target_dirty(static_cast<std::uint32_t>(units_.size() + i));
  note_queue_peak();
  return true;
}

GateSim::PortSample GateSim::output_sample(PortRef port) const {
  PortSample s;
  for (std::size_t i = 0; i < port->nets.size(); ++i) {
    const Logic b = net(port->nets[i]);
    if (!scflow::logic_is_01(b)) continue;
    s.known |= std::uint64_t{1} << i;
    if (b == Logic::L1) s.value |= std::uint64_t{1} << i;
  }
  return s;
}

void GateSim::mark_dirty_fanout(NetId net) {
  const std::uint32_t b = fanout_offsets_[static_cast<std::size_t>(net)];
  const std::uint32_t e = fanout_offsets_[static_cast<std::size_t>(net) + 1];
  for (std::uint32_t k = b; k < e; ++k) mark_target_dirty(fanout_targets_[k]);
}

GateSim::PortRef GateSim::input_port(const std::string& name) const {
  const auto it = in_ports_.find(name);
  if (it == in_ports_.end()) throw std::invalid_argument("no input '" + name + "'");
  return it->second;
}

GateSim::PortRef GateSim::output_port(const std::string& name) const {
  const auto it = out_ports_.find(name);
  if (it == out_ports_.end()) throw std::invalid_argument("no output '" + name + "'");
  return it->second;
}

void GateSim::set_input(const std::string& name, std::uint64_t value) {
  set_input(input_port(name), value);
}

void GateSim::set_input(PortRef port, std::uint64_t value) {
  for (std::size_t i = 0; i < port->nets.size(); ++i)
    set_net(port->nets[i], scflow::logic_from_bool(((value >> i) & 1u) != 0));
  note_queue_peak();
}

void GateSim::set_input_x(const std::string& name) {
  const auto it = in_ports_.find(name);
  if (it == in_ports_.end()) throw std::invalid_argument("no input '" + name + "'");
  for (NetId n : it->second->nets) set_net(n, Logic::X);
  note_queue_peak();
}

void GateSim::set_input_logic(const std::string& name, const scflow::LogicVector& bits) {
  const auto it = in_ports_.find(name);
  if (it == in_ports_.end()) throw std::invalid_argument("no input '" + name + "'");
  if (bits.width() > it->second->nets.size())
    throw std::invalid_argument("vector wider than input '" + name + "'");
  for (std::size_t i = 0; i < bits.width(); ++i) set_net(it->second->nets[i], bits.at(i));
  note_queue_peak();
}

std::pair<bool, std::uint64_t> GateSim::read_bus(const std::vector<NetId>& nets) const {
  std::uint64_t v = 0;
  bool defined = true;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const Logic b = net(nets[i]);
    if (!scflow::logic_is_01(b)) defined = false;
    if (b == Logic::L1) v |= (std::uint64_t{1} << i);
  }
  return {defined, v};
}

void GateSim::eval_macro_port(const Unit& u) {
  const MacroPort& mp = macro_ports_[static_cast<std::size_t>(u.out)];
  MacroState& ms = macros_[mp.macro];
  const auto& mi = *ms.info;
  const auto [addr_ok, addr] = read_bus(mp.addr_nets);

  bool enabled = false;
  if (mi.kind == nl::MacroInfo::Kind::kRam && !mp.en_nets.empty()) {
    const auto [en_ok, en] = read_bus(mp.en_nets);
    enabled = en_ok && en != 0;
  }

  std::uint64_t word = 0;
  const bool defined = addr_ok;
  if (addr_ok) {
    if (mi.kind == nl::MacroInfo::Kind::kRom) {
      word = addr < mi.rom_contents.size()
                 ? static_cast<std::uint64_t>(mi.rom_contents[addr]) &
                       scflow::bit_mask(mi.data_bits)
                 : 0;
    } else {
      word = ms.ram_words[addr];
      if (options_.check_ram && enabled) {
        if (!ms.written[addr]) {
          if (ram_violation_.count++ == 0) {
            ram_violation_.first_cycle = cycles_;
            ram_violation_.first_address = static_cast<unsigned>(addr);
            ram_violation_.first_kind = "never-written";
          }
        } else if (ms.write_count - ms.written_at[addr] > 55) {
          if (ram_violation_.count++ == 0) {
            ram_violation_.first_cycle = cycles_;
            ram_violation_.first_address = static_cast<unsigned>(addr);
            ram_violation_.first_kind = "stale";
          }
        }
      }
    }
  } else if (options_.check_ram && enabled && mi.kind == nl::MacroInfo::Kind::kRam) {
    if (ram_violation_.count++ == 0) {
      ram_violation_.first_cycle = cycles_;
      ram_violation_.first_address = 0;
      ram_violation_.first_kind = "x-address";
    }
  }

  for (std::size_t i = 0; i < mp.data_nets.size(); ++i)
    set_net(mp.data_nets[i],
            defined ? scflow::logic_from_bool(((word >> i) & 1u) != 0) : Logic::X);
}

void GateSim::settle() {
  ++counters_.settle_calls;
  // Everything the inner loop touches is hoisted into locals: stores into
  // dirty_words_ are std::uint64_t writes, so member counters of the same
  // type would otherwise be reloaded around every mark.
  Logic* const vals = values_.data();
  const Unit* const units = units_.data();
  const std::uint32_t* const fo = fanout_offsets_.data();
  const std::uint32_t* const fu = fanout_unit_end_.data();
  const std::uint32_t* const ft = fanout_targets_.data();
  std::uint64_t* const dw = dirty_words_.data();
  std::uint64_t* const fdw = flop_dirty_words_.data();
  OutCache* const oc = out_cache_.data();
  const std::uint8_t* const luts = luts_;
  const auto n_words = static_cast<std::uint32_t>(dirty_words_.size());
  const auto n_units = static_cast<std::uint32_t>(units_.size());
  const auto n_flops = static_cast<std::uint32_t>(flops_.size());
  const bool ref_eval = options_.use_reference_eval;
  const std::uint32_t stuck = stuck_net_;  // kNoStuckNet when fault-free
  // Level tracking for the peak_queue_depth sample: the pass enters a new
  // level when it reaches a unit at or past level_end.  The last
  // level_begin_ entry is n_units, so the scan below always stops.
  const std::uint32_t* next_level = level_begin_.data();
  std::uint32_t level_end = 0;
  std::uint64_t evals = 0, pushes = 0;
  const auto flush_counts = [&] {
    counters_.evaluations += evals;
    counters_.dirty_pushes += pushes;
    queued_now_ = queued_now_ + pushes - evals;
    evals = 0;
    pushes = 0;
  };
  for (std::uint32_t wi = 0; wi < n_words; ++wi) {
    // One bit at a time from the live word: a word holds several levels,
    // so evaluating a unit may mark a later bit of the word being swept.
    // Marks only ever land at higher indices, so the lowest set bit is
    // always the next unit due.
    std::uint64_t bits;
    while ((bits = dw[wi]) != 0) {
      dw[wi] = bits & (bits - 1);
      const std::uint32_t ui = (wi << 6) | static_cast<unsigned>(std::countr_zero(bits));
      if (ui >= level_end) [[unlikely]] {
        // Entering a new level: every earlier level is settled, so the
        // queue holds exactly the marks for this level and those above
        // (ui's bit is consumed but not yet counted as evaluated).
        flush_counts();
        note_queue_peak();
        while (*next_level <= ui) ++next_level;
        level_end = *next_level;
      }
      const Unit& u = units[ui];
      ++evals;
      if (u.type == kMacroUnit) [[unlikely]] {
        // Macro read ports evaluate in place, in unit order; their marks
        // go through mark_target_dirty and count on the members directly.
        eval_macro_port(u);
        continue;
      }
      Logic out;
      std::uint32_t outn;
      if (ref_eval) [[unlikely]] {
        const Logic a = u.n_inputs > 0 ? vals[u.in[0]] : Logic::L0;
        const Logic bb = u.n_inputs > 1 ? vals[u.in[1]] : Logic::L0;
        const Logic cc = u.n_inputs > 2 ? vals[u.in[2]] : Logic::L0;
        out = reference_cell_eval(static_cast<CellType>(u.type), a, bb, cc);
        outn = u.out;
      } else {
        // Plain-cell fast path: LUT eval with no call boundaries.  All
        // three input slots are read unconditionally — unused slots point
        // at the sentinel net and the truth tables are constant across
        // ignored-input codes, so the arity never needs a branch.  The
        // three input ids and the output net share the unit's leading
        // 8 bytes — one (possibly unaligned, cheap on x86) load replaces
        // four dependent 16-bit loads at the head of the eval chain.
        std::uint64_t nets8;
        std::memcpy(&nets8, &u, sizeof nets8);
        const unsigned code = static_cast<unsigned>(vals[nets8 & 0xffffu]) |
                              (static_cast<unsigned>(vals[(nets8 >> 16) & 0xffffu]) << 2) |
                              (static_cast<unsigned>(vals[(nets8 >> 32) & 0xffffu]) << 4);
        out = static_cast<Logic>(luts[(static_cast<unsigned>(u.type) << 6) | code]);
        outn = static_cast<std::uint32_t>(nets8 >> 48);
      }
      // Stuck-at overlay: the faulty net's driver still evaluates, but its
      // write is clamped, so the fault propagates through change detection
      // exactly like a driven value.
      if (outn == stuck) [[unlikely]]
        out = stuck_value_;
      Logic& slot = vals[outn];
      if (slot == out) continue;
      slot = out;
      // Unit targets (branchless marking), then the usually-empty flop
      // tap tail of this net's CSR range.
      std::uint32_t k = fo[outn];
      const std::uint32_t fm = fu[outn];
      const std::uint32_t fe = fo[outn + 1];
      for (; k < fm; ++k) {
        const std::uint32_t t = ft[k];
        std::uint64_t& w = dw[t >> 6];
        const std::uint64_t m = std::uint64_t{1} << (t & 63u);
        pushes += (w & m) == 0 ? 1u : 0u;
        w |= m;
      }
      for (; k < fe; ++k) {
        const std::uint32_t x = ft[k] - n_units;
        if (x < n_flops) {
          fdw[x >> 6] |= std::uint64_t{1} << (x & 63u);
        } else {
          oc[x - n_flops].dirty = true;
        }
      }
    }
  }
  // The last level leaves nothing queued, so there is no peak to sample.
  flush_counts();
  if (level_end != 0) ++counters_.settle_passes;
}

void GateSim::step() {
  settle();
  // Sample only flops whose D/SI/SE nets changed since the last edge, into
  // the persistent buffer (scan mux first when present).  Untouched flops
  // keep their previous next-value, which equals their committed output.
  // The dirty bitmap drains into the scratch index list so the commit loop
  // below can revisit exactly the sampled flops after it is cleared.
  flop_active_.clear();
  // The scratch list was reserved to the flop count at construction, so
  // the drain below must never grow it; the counter records any future
  // regression of that invariant (and backs the zero-alloc test).
  const std::size_t active_cap = flop_active_.capacity();
  const std::uint8_t* mux_lut = luts_ + (static_cast<unsigned>(CellType::kMux2) << 6);
  for (std::size_t wi = 0; wi < flop_dirty_words_.size(); ++wi) {
    std::uint64_t bits = flop_dirty_words_[wi];
    if (bits == 0) continue;
    flop_dirty_words_[wi] = 0;
    do {
      const std::uint32_t fi =
          static_cast<std::uint32_t>((wi << 6) | static_cast<unsigned>(std::countr_zero(bits)));
      bits &= bits - 1;
      flop_active_.push_back(fi);
      const FlopRec& f = flops_[fi];
      if (f.sdff) {
        const unsigned code = static_cast<unsigned>(net(f.se)) |
                              (static_cast<unsigned>(net(f.d)) << 2) |
                              (static_cast<unsigned>(net(f.si)) << 4);
        next_flop_[fi] = static_cast<Logic>(mux_lut[code]);
      } else {
        next_flop_[fi] = net(f.d);
      }
    } while (bits != 0);
  }
  // RAM writes, through the write-port nets resolved at construction.
  for (MacroState& ms : macros_) {
    if (ms.info->kind != nl::MacroInfo::Kind::kRam) continue;
    const auto [wen_ok, wen] = read_bus(ms.wen_nets);
    if (!wen_ok || wen == 0) continue;
    const auto [addr_ok, addr] = read_bus(ms.waddr_nets);
    const auto [data_ok, data] = read_bus(ms.wdata_nets);
    if (!addr_ok) continue;  // X write address: contents unknowable; skip
    ms.ram_words[addr] = data_ok ? static_cast<std::uint32_t>(data) : 0;
    ms.written[addr] = true;
    // Stamp with the pre-increment count: age := write_count - stamp then
    // matches the kernel models' (current_wc - wc_at_write) convention.
    ms.written_at[addr] = ms.write_count++;
    // Contents changed: re-queue the read-port units via the precomputed
    // (macro, port) -> unit map; their re-evaluation propagates any data
    // change to the consumers.
    for (std::uint32_t ui : ms.port_unit) {
      ++counters_.ram_rereads;
      mark_target_dirty(ui);
    }
  }
  // Commit the sampled flops.  The bitmap was cleared before this loop, so
  // a flop fed by another flop (scan chains, shift registers) is re-marked
  // for the next edge by its own fanout walk.  Same flattened CSR walk as
  // the sweep: on a busy edge most flops toggle, so the per-flop set_net
  // call chain is worth eliding.
  {
    Logic* const vals = values_.data();
    const std::uint32_t* const fo = fanout_offsets_.data();
    const std::uint32_t* const fu = fanout_unit_end_.data();
    const std::uint32_t* const ft = fanout_targets_.data();
    std::uint64_t* const dw = dirty_words_.data();
    std::uint64_t* const fdw = flop_dirty_words_.data();
    OutCache* const oc = out_cache_.data();
    const auto n_units = static_cast<std::uint32_t>(units_.size());
    const auto n_flops = static_cast<std::uint32_t>(flops_.size());
    const std::uint32_t stuck = stuck_net_;
    std::uint64_t pushes = 0, qnow = queued_now_;
    for (const std::uint32_t fi : flop_active_) {
      const auto out = static_cast<std::uint32_t>(flops_[fi].out);
      const Logic v = out == stuck ? stuck_value_ : next_flop_[fi];
      Logic& slot = vals[out];
      if (slot == v) continue;
      slot = v;
      std::uint32_t k = fo[out];
      const std::uint32_t fm = fu[out];
      const std::uint32_t fe = fo[out + 1];
      for (; k < fm; ++k) {
        const std::uint32_t t = ft[k];
        std::uint64_t& w = dw[t >> 6];
        const std::uint64_t m = std::uint64_t{1} << (t & 63u);
        const std::uint64_t fresh = (w & m) == 0 ? 1u : 0u;
        w |= m;
        pushes += fresh;
        qnow += fresh;
      }
      for (; k < fe; ++k) {
        const std::uint32_t x = ft[k] - n_units;
        if (x < n_flops) {
          fdw[x >> 6] |= std::uint64_t{1} << (x & 63u);
        } else {
          oc[x - n_flops].dirty = true;
        }
      }
    }
    counters_.dirty_pushes += pushes;
    queued_now_ = qnow;
    note_queue_peak();
  }
  if (flop_active_.capacity() != active_cap) ++counters_.steady_state_allocs;
  ++cycles_;
}

scflow::LogicVector GateSim::output_bits(const std::string& name) {
  const auto it = out_ports_.find(name);
  if (it == out_ports_.end()) throw std::invalid_argument("no output '" + name + "'");
  scflow::LogicVector v(it->second->nets.size());
  for (std::size_t i = 0; i < it->second->nets.size(); ++i)
    v.set(i, net(it->second->nets[i]));
  return v;
}

std::uint64_t GateSim::output(const std::string& name) { return output(output_port(name)); }

std::uint64_t GateSim::output(PortRef port) {
  // PortRefs from output_port() point into nl_->outputs(), so the cache
  // slot is the pointer offset.
  OutCache& c = out_cache_[static_cast<std::size_t>(port - nl_->outputs().data())];
  if (c.dirty) {
    const auto [defined, v] = read_bus(port->nets);
    c.value = v;
    c.defined = defined;
    c.dirty = false;
  }
  if (!c.defined) [[unlikely]]
    throw std::runtime_error("output '" + port->name + "' carries X/Z: " +
                             output_bits(port->name).to_string());
  return c.value;
}

}  // namespace scflow::hdlsim
