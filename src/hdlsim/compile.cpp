#include "hdlsim/compile.hpp"

#include <algorithm>
#include <stdexcept>

namespace scflow::hdlsim {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kInterpreted: return "interpreted";
    case Backend::kCompiled: return "compiled";
  }
  return "?";
}

CompiledProgram compile_netlist(const nl::Netlist& n) {
  n.validate();
  CompiledProgram prog;
  prog.name = n.name();

  const auto net_count = static_cast<std::size_t>(n.net_count());
  std::vector<std::size_t> flop_cells;
  for (std::size_t ci = 0; ci < n.cells().size(); ++ci)
    if (nl::cell_is_sequential(n.cells()[ci].type)) flop_cells.push_back(ci);
  const auto F = static_cast<std::uint32_t>(flop_cells.size());
  prog.flop_count = F;
  for (const std::size_t ci : flop_cells)
    prog.flop_init.push_back(n.cells()[ci].init != 0 ? 1 : 0);

  // --- unit graph: combinational cells + macro read ports ----------------
  // Same graph GateSim levelizes; here a plain Kahn emission order is
  // enough (straight-line execution only needs *a* topological order, and
  // releasing ready units in creation order keeps it deterministic).
  struct UnitRef {
    std::size_t cell = ~std::size_t{0};  // cell index, or ~0 for macro port
    std::uint32_t port = 0;              // macro_ports index when cell == ~0
  };
  std::vector<UnitRef> units;
  std::vector<std::int32_t> driver_unit(net_count, -1);
  for (std::size_t ci = 0; ci < n.cells().size(); ++ci) {
    const nl::Cell& c = n.cells()[ci];
    if (nl::cell_is_sequential(c.type)) continue;
    driver_unit[static_cast<std::size_t>(c.output)] = static_cast<std::int32_t>(units.size());
    units.push_back({ci, 0});
  }
  // Port-input nets (addr + en) and data nets per macro_ports entry — the
  // Kahn scaffolding; the slot forms are resolved after slot allocation.
  std::vector<std::vector<nl::NetId>> port_in_nets, port_data_nets;
  std::vector<std::vector<nl::NetId>> port_addr_nets, port_en_nets;
  for (std::size_t mi = 0; mi < n.macros.size(); ++mi) {
    const nl::MacroInfo& info = n.macros[mi];
    for (std::size_t port = 0; port < info.read_data_ports.size(); ++port) {
      CompiledMacroPort mp;
      mp.macro = static_cast<std::uint32_t>(mi);
      std::vector<nl::NetId> ins = n.find_output(info.read_addr_ports[port])->nets;
      port_addr_nets.push_back(ins);
      if (info.kind == nl::MacroInfo::Kind::kRam && port < info.read_enable_ports.size()) {
        const auto& en = n.find_output(info.read_enable_ports[port])->nets;
        port_en_nets.push_back(en);
        ins.insert(ins.end(), en.begin(), en.end());
      } else {
        port_en_nets.emplace_back();
      }
      const nl::PortBits* data = n.find_input(info.read_data_ports[port]);
      if (data == nullptr)
        throw std::logic_error(n.name() + ": macro data port missing");
      for (const nl::NetId net : data->nets)
        driver_unit[static_cast<std::size_t>(net)] = static_cast<std::int32_t>(units.size());
      units.push_back({~std::size_t{0}, static_cast<std::uint32_t>(prog.macro_ports.size())});
      port_in_nets.push_back(std::move(ins));
      port_data_nets.push_back(data->nets);
      prog.macro_ports.push_back(std::move(mp));
    }
  }

  const auto for_each_unit_input = [&](const UnitRef& u, auto&& fn) {
    if (u.cell != ~std::size_t{0}) {
      for (const nl::NetId in : n.cells()[u.cell].inputs) fn(in);
    } else {
      for (const nl::NetId in : port_in_nets[u.port]) fn(in);
    }
  };
  const auto for_each_unit_output = [&](const UnitRef& u, auto&& fn) {
    if (u.cell != ~std::size_t{0}) {
      fn(n.cells()[u.cell].output);
    } else {
      for (const nl::NetId net : port_data_nets[u.port]) fn(net);
    }
  };

  // Consumers per net, over units only (flops are sequential sinks).
  std::vector<std::vector<std::uint32_t>> consumers(net_count);
  std::vector<std::uint32_t> indeg(units.size(), 0);
  for (std::size_t ui = 0; ui < units.size(); ++ui)
    for_each_unit_input(units[ui], [&](nl::NetId in) {
      consumers[static_cast<std::size_t>(in)].push_back(static_cast<std::uint32_t>(ui));
      if (driver_unit[static_cast<std::size_t>(in)] >= 0) ++indeg[ui];
    });

  std::vector<std::uint32_t> ready;
  ready.reserve(units.size());
  for (std::size_t ui = 0; ui < units.size(); ++ui)
    if (indeg[ui] == 0) ready.push_back(static_cast<std::uint32_t>(ui));

  std::vector<std::uint32_t> level(units.size(), 0);
  std::size_t head = 0;
  for (; head < ready.size(); ++head) {
    const std::uint32_t u = ready[head];
    for_each_unit_output(units[u], [&](nl::NetId out) {
      for (const std::uint32_t t : consumers[static_cast<std::size_t>(out)]) {
        level[t] = std::max(level[t], level[u] + 1);
        if (--indeg[t] == 0) ready.push_back(t);
      }
    });
  }
  if (head != units.size()) {
    for (std::size_t ui = 0; ui < units.size(); ++ui) {
      if (indeg[ui] == 0) continue;
      if (units[ui].cell != ~std::size_t{0})
        throw std::logic_error(n.name() + ": combinational cycle through " +
                               nl::describe_cell(n, units[ui].cell));
      throw std::logic_error(
          n.name() + ": combinational cycle through macro '" +
          n.macros[prog.macro_ports[units[ui].port].macro].name + "' read port");
    }
  }

  // Emission order: levels are a topological order, and units within one
  // level are mutually independent, so each level is sorted by kind.  The
  // executor then runs long kind-homogeneous spans with one dispatch per
  // span (see OpRun) instead of an indirect jump per op.
  const auto unit_kind = [&](std::uint32_t ui) {
    return units[ui].cell != ~std::size_t{0}
               ? static_cast<std::uint8_t>(n.cells()[units[ui].cell].type)
               : kMacroReadOp;
  };
  std::vector<std::uint32_t> order(ready.begin(), ready.begin() + head);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (level[a] != level[b]) return level[a] < level[b];
    return unit_kind(a) < unit_kind(b);
  });

  // --- slot allocation ---------------------------------------------------
  // Flop Q nets claim [0,F) in sequential-cell order.  Every other net
  // gets a dense slot above 2F in *emission order* — input ports first,
  // then each unit's outputs as the straight-line program produces them —
  // so the executor's operand loads land in recently written cache lines
  // instead of hopping around in net-id order.  The [F,2F) next-state
  // region has no backing nets: the flop-sample ops write it directly.
  prog.slot_of_net.assign(net_count, 0);
  std::vector<bool> assigned(net_count, false);
  for (std::uint32_t fi = 0; fi < F; ++fi) {
    const auto q = static_cast<std::size_t>(n.cells()[flop_cells[fi]].output);
    prog.slot_of_net[q] = fi;
    assigned[q] = true;
  }
  std::uint32_t next_slot = 2 * F;
  const auto assign = [&](nl::NetId net) {
    const auto i = static_cast<std::size_t>(net);
    if (!assigned[i]) {
      assigned[i] = true;
      prog.slot_of_net[i] = next_slot++;
    }
  };
  for (const nl::PortBits& p : n.inputs())
    for (const nl::NetId net : p.nets) assign(net);
  for (const std::uint32_t ui : order) for_each_unit_output(units[ui], assign);
  for (std::size_t net = 0; net < net_count; ++net) assign(static_cast<nl::NetId>(net));
  prog.slot_count = next_slot;
  if (prog.slot_count > CompiledOp::kOutMask + 1)
    throw std::logic_error(n.name() + ": too many nets for the 24-bit op encoding");

  const auto slot = [&prog](nl::NetId net) {
    return prog.slot_of_net[static_cast<std::size_t>(net)];
  };
  const auto slots_of = [&](const std::vector<nl::NetId>& nets) {
    std::vector<std::uint32_t> s;
    s.reserve(nets.size());
    for (const nl::NetId net : nets) s.push_back(slot(net));
    return s;
  };

  // --- macro metadata ----------------------------------------------------
  for (const nl::MacroInfo& mi : n.macros) {
    CompiledMacro cm;
    cm.kind = mi.kind;
    cm.name = mi.name;
    cm.addr_bits = mi.addr_bits;
    cm.data_bits = mi.data_bits;
    if (mi.kind == nl::MacroInfo::Kind::kRom) {
      cm.rom_contents = mi.rom_contents;
    } else {
      cm.wen_slots = slots_of(n.find_output(mi.write_enable_port)->nets);
      cm.waddr_slots = slots_of(n.find_output(mi.write_addr_port)->nets);
      cm.wdata_slots = slots_of(n.find_output(mi.write_data_port)->nets);
    }
    prog.macros.push_back(std::move(cm));
  }
  for (std::size_t pi = 0; pi < prog.macro_ports.size(); ++pi) {
    prog.macro_ports[pi].addr_slots = slots_of(port_addr_nets[pi]);
    prog.macro_ports[pi].en_slots = slots_of(port_en_nets[pi]);
    prog.macro_ports[pi].data_slots = slots_of(port_data_nets[pi]);
  }
  // CompiledSim moves each macro address and data bus through one
  // transpose of at most 64 words.
  const auto too_wide = [](const std::vector<std::uint32_t>& bus) { return bus.size() > 64; };
  for (const CompiledMacro& cm : prog.macros)
    if (too_wide(cm.waddr_slots) || too_wide(cm.wdata_slots))
      throw std::logic_error(n.name() + ": macro '" + cm.name + "' bus wider than 64 bits");
  for (const CompiledMacroPort& mp : prog.macro_ports)
    if (too_wide(mp.addr_slots) || too_wide(mp.data_slots))
      throw std::logic_error(n.name() + ": macro '" + prog.macros[mp.macro].name +
                             "' bus wider than 64 bits");

  // --- op emission in the Kahn order -------------------------------------
  const auto emit = [&](const UnitRef& u) {
    if (u.cell == ~std::size_t{0}) {
      CompiledOp op(kMacroReadOp, 0);
      op.in0 = u.port;
      prog.ops.push_back(op);
      return;
    }
    const nl::Cell& c = n.cells()[u.cell];
    if (c.type == nl::CellType::kTie0) {
      prog.tie0_slots.push_back(slot(c.output));
      return;
    }
    if (c.type == nl::CellType::kTie1) {
      prog.tie1_slots.push_back(slot(c.output));
      return;
    }
    CompiledOp op(static_cast<std::uint8_t>(c.type), slot(c.output));
    if (!c.inputs.empty()) op.in0 = slot(c.inputs[0]);
    if (c.inputs.size() > 1) op.in1 = slot(c.inputs[1]);
    if (c.inputs.size() > 2) op.in2 = slot(c.inputs[2]);
    prog.ops.push_back(op);
  };
  for (const std::uint32_t ui : order) emit(units[ui]);
  prog.comb_op_count = prog.ops.size();

  // --- flop-sample ops: next-state into the flat commit region -----------
  // dff samples D with a buffer; sdff is the scan mux (se ? si : d), the
  // same {sel, a0, a1} = {se, d, si} shape GateSim's sampler uses.
  for (std::uint32_t fi = 0; fi < F; ++fi) {
    const nl::Cell& c = n.cells()[flop_cells[fi]];
    if (c.type == nl::CellType::kDff) {
      CompiledOp op(static_cast<std::uint8_t>(nl::CellType::kBuf), F + fi);
      op.in0 = slot(c.inputs[0]);
      prog.ops.push_back(op);
    } else {
      CompiledOp op(static_cast<std::uint8_t>(nl::CellType::kMux2), F + fi);
      op.in0 = slot(c.inputs[2]);  // se
      op.in1 = slot(c.inputs[0]);  // d
      op.in2 = slot(c.inputs[1]);  // si
      prog.ops.push_back(op);
    }
  }

  // --- kind-homogeneous runs over the final op array ---------------------
  for (std::size_t i = 0; i < prog.ops.size();) {
    std::size_t j = i + 1;
    while (j < prog.ops.size() && prog.ops[j].kind() == prog.ops[i].kind()) ++j;
    prog.runs.push_back({prog.ops[i].kind(), static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j)});
    i = j;
  }

  // --- port bindings -----------------------------------------------------
  for (const nl::PortBits& p : n.inputs()) prog.input_slots.push_back(slots_of(p.nets));
  for (const nl::PortBits& p : n.outputs()) prog.output_slots.push_back(slots_of(p.nets));
  return prog;
}

}  // namespace scflow::hdlsim
