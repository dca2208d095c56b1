// Shared random-netlist generators for the gate-level fuzz harnesses:
// test_fuzz_equivalence (table vs reference evaluator vs compiled
// backend), test_compiled_sim (independent-lane differential) and
// test_ppsfp (PPSFP-vs-event-driven campaign oracle) build their
// structural netlists and four-valued stimulus from the same generators
// so a seed means the same design everywhere.
#pragma once

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dtypes/logic.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace scflow {

/// Random structural netlist: input ports, a soup of combinational cells
/// (acyclic by construction: inputs are drawn from already-created nets),
/// and flops whose D/SI/SE are patched afterwards so they can close
/// feedback loops through the whole pool.
///
/// With @p with_macros the netlist also carries a RAM (one or two read
/// ports) and, on about half the draws, a ROM (one or two read ports),
/// wired the way lower_to_gates wires them: address/enable/write buses
/// are output ports, read data is an input port.  Each read port is
/// emitted at a random point of the combinational soup, so later cells
/// consume its data, and each bus bit draws its source class — primary
/// input, flop Q, logic, or an earlier port's read data (one port's data
/// addressing another) — before falling back to the whole pool.  Without
/// macros the generator draws exactly the random numbers it always has,
/// so existing seeds keep their designs.
inline nl::Netlist random_gate_netlist(std::mt19937_64& rng, bool with_macros = false) {
  auto rnd = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  nl::Netlist n("gatefuzz");
  std::vector<nl::NetId> pool;
  // Per source class, for the macro bus draws.
  std::vector<nl::NetId> pi_nets, flop_q, logic, read_data;

  const int n_inputs = rnd(1, 3);
  for (int i = 0; i < n_inputs; ++i) {
    std::vector<nl::NetId> nets;
    const int w = rnd(1, 8);
    for (int b = 0; b < w; ++b) nets.push_back(n.new_net());
    pool.insert(pool.end(), nets.begin(), nets.end());
    pi_nets.insert(pi_nets.end(), nets.begin(), nets.end());
    n.add_input("in" + std::to_string(i), std::move(nets));
  }
  pool.push_back(n.const_net(false));
  pool.push_back(n.const_net(true));

  auto pick = [&]() { return pool[static_cast<std::size_t>(rnd(0, static_cast<int>(pool.size()) - 1))]; };
  auto pick_from = [&](const std::vector<nl::NetId>& v) {
    return v[static_cast<std::size_t>(rnd(0, static_cast<int>(v.size()) - 1))];
  };
  auto pick_bus_bit = [&]() {
    switch (rng() % 5) {
      case 0: return pick_from(pi_nets);
      case 1: if (!flop_q.empty()) return pick_from(flop_q); break;
      case 2: if (!logic.empty()) return pick_from(logic); break;
      case 3: if (!read_data.empty()) return pick_from(read_data); break;
      default: break;
    }
    return pick();
  };
  auto pick_bus = [&](int width) {
    std::vector<nl::NetId> nets;
    for (int b = 0; b < width; ++b) nets.push_back(pick_bus_bit());
    return nets;
  };

  // Flops first (patched below); their outputs seed the pool so the
  // combinational soup can consume state.
  std::vector<std::size_t> flop_cells;
  const int n_flops = rnd(0, 10);
  for (int f = 0; f < n_flops; ++f) {
    const bool scan = (rng() & 1) != 0;
    flop_cells.push_back(n.cells().size());
    const nl::NetId q = scan ? n.add_cell(nl::CellType::kSdff, {pick(), pick(), pick()},
                                          static_cast<int>(rng() & 1))
                             : n.add_cell(nl::CellType::kDff, {pick()}, static_cast<int>(rng() & 1));
    pool.push_back(q);
    flop_q.push_back(q);
  }

  // Macro read ports, each placed before a random cell of the soup.
  struct ReadPort {
    int at = 0;  // emitted before comb cell `at`
    std::size_t macro = 0;
  };
  std::vector<ReadPort> read_ports;
  if (with_macros) {
    const int n_macros = 1 + static_cast<int>(rng() & 1);  // RAM, then maybe a ROM
    for (int m = 0; m < n_macros; ++m) {
      nl::MacroInfo mi;
      mi.kind = m == 0 ? nl::MacroInfo::Kind::kRam : nl::MacroInfo::Kind::kRom;
      mi.name = m == 0 ? "ram" : "rom";
      mi.addr_bits = rnd(1, 3);
      mi.data_bits = rnd(1, 6);
      if (mi.kind == nl::MacroInfo::Kind::kRom) {
        // Sometimes shorter than the address space: reads past the end
        // return 0 on both engines.
        const int words = rnd(1, 1 << mi.addr_bits);
        for (int w = 0; w < words; ++w) mi.rom_contents.push_back(static_cast<std::int64_t>(rng()));
      }
      const int ports = rnd(1, 2);
      for (int p = 0; p < ports; ++p) read_ports.push_back({0, n.macros.size()});
      n.macros.push_back(std::move(mi));
    }
  }

  static constexpr nl::CellType kComb[] = {
      nl::CellType::kBuf,   nl::CellType::kInv,  nl::CellType::kAnd2,
      nl::CellType::kOr2,   nl::CellType::kNand2, nl::CellType::kNor2,
      nl::CellType::kXor2,  nl::CellType::kXnor2, nl::CellType::kMux2,
  };
  const int n_cells = rnd(10, 120);
  for (ReadPort& rp : read_ports) rp.at = rnd(0, n_cells);
  std::stable_sort(read_ports.begin(), read_ports.end(),
                   [](const ReadPort& a, const ReadPort& b) { return a.at < b.at; });
  std::size_t next_port = 0;
  const auto emit_read_ports = [&](int before_cell) {
    for (; next_port < read_ports.size() && read_ports[next_port].at == before_cell;
         ++next_port) {
      nl::MacroInfo& mi = n.macros[read_ports[next_port].macro];
      const std::string base =
          mi.name + "_r" + std::to_string(mi.read_data_ports.size());
      n.add_output(base + "_addr", pick_bus(mi.addr_bits));
      mi.read_addr_ports.push_back(base + "_addr");
      if (mi.kind == nl::MacroInfo::Kind::kRam) {
        n.add_output(base + "_ren", pick_bus(1));
        mi.read_enable_ports.push_back(base + "_ren");
      }
      std::vector<nl::NetId> data;
      for (int b = 0; b < mi.data_bits; ++b) data.push_back(n.new_net());
      pool.insert(pool.end(), data.begin(), data.end());
      read_data.insert(read_data.end(), data.begin(), data.end());
      n.add_input(base + "_data", std::move(data));
      mi.read_data_ports.push_back(base + "_data");
    }
  };
  for (int i = 0; i < n_cells; ++i) {
    emit_read_ports(i);
    const nl::CellType t = kComb[static_cast<std::size_t>(rnd(0, 8))];
    std::vector<nl::NetId> ins;
    for (int k = 0; k < nl::cell_input_count(t); ++k) ins.push_back(pick());
    pool.push_back(n.add_cell(t, std::move(ins)));
    logic.push_back(pool.back());
  }
  emit_read_ports(n_cells);

  // Close flop feedback through the full pool (including nets created
  // after the flop — sequential edges may point anywhere).
  for (const std::size_t ci : flop_cells)
    for (nl::NetId& in : n.cells_mut()[ci].inputs) in = pick();

  const int n_outs = rnd(1, 3);
  for (int o = 0; o < n_outs; ++o) {
    std::vector<nl::NetId> nets;
    const int w = rnd(1, 8);
    for (int b = 0; b < w; ++b) nets.push_back(pick());
    n.add_output("out" + std::to_string(o), std::move(nets));
  }

  // RAM write buses: sampled at the clock edge, so any net may drive them
  // (read data included — a read-modify-write loop through the RAM).
  for (nl::MacroInfo& mi : n.macros) {
    if (mi.kind != nl::MacroInfo::Kind::kRam) continue;
    mi.write_addr_port = mi.name + "_waddr";
    mi.write_data_port = mi.name + "_wdata";
    mi.write_enable_port = mi.name + "_wen";
    n.add_output(mi.write_addr_port, pick_bus(mi.addr_bits));
    n.add_output(mi.write_data_port, pick_bus(mi.data_bits));
    n.add_output(mi.write_enable_port, pick_bus(1));
  }
  return n;
}

/// Nets of every RAM/ROM bus port of @p n: read address, read enable and
/// read data, plus the RAM write address, data and enable — the sites the
/// macro models read or write.
inline std::vector<nl::NetId> macro_bus_nets(const nl::Netlist& n) {
  std::vector<nl::NetId> nets;
  const auto add = [&](const nl::PortBits* p) {
    if (p != nullptr) nets.insert(nets.end(), p->nets.begin(), p->nets.end());
  };
  for (const nl::MacroInfo& mi : n.macros) {
    for (const std::string& name : mi.read_addr_ports) add(n.find_output(name));
    for (const std::string& name : mi.read_enable_ports) add(n.find_output(name));
    for (const std::string& name : mi.read_data_ports) add(n.find_input(name));
    if (mi.kind != nl::MacroInfo::Kind::kRam) continue;
    add(n.find_output(mi.write_addr_port));
    add(n.find_output(mi.write_data_port));
    add(n.find_output(mi.write_enable_port));
  }
  return nets;
}

/// The faults of @p faults whose net sits on a macro bus (macro_bus_nets).
inline std::vector<fault::Fault> macro_bus_faults(const nl::Netlist& n,
                                                  const std::vector<fault::Fault>& faults) {
  const std::vector<nl::NetId> bus = macro_bus_nets(n);
  std::vector<fault::Fault> out;
  for (const fault::Fault& f : faults)
    if (std::find(bus.begin(), bus.end(), f.net) != bus.end()) out.push_back(f);
  return out;
}

/// Random campaign shape for the engine-differential oracle: every knob
/// that changes WHAT the campaign computes is drawn from ranges small
/// enough to keep a seed fast but wide enough to cross the interesting
/// boundaries (scan on/off, cycle budgets shorter than the program,
/// single-cycle programs).
inline fault::CampaignOptions random_campaign_options(std::mt19937_64& rng) {
  fault::CampaignOptions opt;
  opt.seed = rng();
  opt.scan_patterns = 1 + static_cast<int>(rng() % 2);
  opt.capture_cycles = 1 + static_cast<int>(rng() % 3);
  opt.functional_cycles = 1 + static_cast<int>(rng() % 24);
  opt.use_scan = (rng() & 3) != 0;  // mostly on; off covers the tied path
  if ((rng() & 3) == 0) opt.cycle_budget = 1 + rng() % 8;
  opt.oscillation_threshold = 1 + static_cast<int>(rng() % 4);
  return opt;
}

/// Compares two campaigns over the same fault list: every per-fault
/// classification, detecting pattern index (detect_cycle), observe port
/// and cycle count, then the aggregates.  Returns an empty string on
/// bit-identity, else a message naming the first divergent fault.
inline std::string diff_campaign_results(const nl::Netlist& n,
                                         const fault::CampaignResult& ref,
                                         const fault::CampaignResult& got) {
  std::ostringstream why;
  if (got.faults.size() != ref.faults.size()) {
    why << "simulated " << got.faults.size() << " != " << ref.faults.size();
    return why.str();
  }
  for (std::size_t i = 0; i < ref.faults.size(); ++i) {
    const fault::FaultResult& a = ref.faults[i];
    const fault::FaultResult& b = got.faults[i];
    if (a == b) continue;
    why << "fault " << i << " (" << fault::describe_fault(n, a.fault) << ") "
        << fault::fault_class_name(b.klass) << " cycle=" << b.detect_cycle
        << " port=" << b.detect_port << " cycles=" << b.cycles << " vs reference "
        << fault::fault_class_name(a.klass) << " cycle=" << a.detect_cycle
        << " port=" << a.detect_port << " cycles=" << a.cycles;
    return why.str();
  }
  if (got.detected != ref.detected || got.undetected != ref.undetected ||
      got.oscillating != ref.oscillating ||
      got.undetected_budget != ref.undetected_budget ||
      got.faulty_cycles_total != ref.faulty_cycles_total)
    return "aggregate mismatch";
  return {};
}

/// Differential campaign oracle: simulates the same (netlist, fault list,
/// options) under the event-driven engine and under PPSFP, across
/// @p thread_counts, and checks every per-fault result for bit-identity
/// (diff_campaign_results).  Returns an empty string on agreement, else a
/// message naming the engine, thread count and first divergent fault —
/// gtest-free so any harness can wrap it in its own EXPECT.
inline std::string diff_campaign_engines(const nl::Netlist& n,
                                         const fault::CampaignOptions& base,
                                         const std::vector<unsigned>& thread_counts) {
  fault::CampaignOptions ref_opt = base;
  ref_opt.engine = fault::CampaignOptions::Engine::kEventDriven;
  ref_opt.threads = 1;
  const fault::CampaignResult ref = fault::run_campaign(n, ref_opt);
  for (const unsigned threads : thread_counts) {
    for (const bool ppsfp : {false, true}) {
      if (!ppsfp && threads == 1) continue;  // that is the reference itself
      fault::CampaignOptions opt = base;
      opt.engine = ppsfp ? fault::CampaignOptions::Engine::kPpsfp
                         : fault::CampaignOptions::Engine::kEventDriven;
      opt.threads = threads;
      const std::string diff = diff_campaign_results(n, ref, fault::run_campaign(n, opt));
      if (!diff.empty())
        return std::string(ppsfp ? "ppsfp" : "event-driven") +
               " threads=" + std::to_string(threads) + ": " + diff;
    }
  }
  return {};
}

inline LogicVector random_logic_vector(std::mt19937_64& rng, std::size_t width,
                                       bool allow_xz) {
  LogicVector v(width);
  for (std::size_t i = 0; i < width; ++i) {
    // Bias towards 0/1 so arithmetic survives; X/Z still exercises every
    // truth-table row over thousands of netlists.
    const auto r = rng() % 8;
    Logic b = logic_from_bool((r & 1) != 0);
    if (allow_xz && r == 6) b = Logic::X;
    if (allow_xz && r == 7) b = Logic::Z;
    v.set(i, b);
  }
  return v;
}

}  // namespace scflow
