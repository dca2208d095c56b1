// The PPSFP bit-parallel fault engine, proven equivalent to the
// event-driven reference:
//
//  * CompiledSim's per-lane stuck-at overlay against GateSim::inject_stuck,
//    lane by lane on the same stimulus (the write-side clamp semantics);
//  * the campaign-level differential oracle on random netlists x random
//    scan programs x thread counts {1,2,4,8} (netlist_fuzz.hpp) — every
//    per-fault classification, detecting pattern index, observe port and
//    cycle count must be bit-identical;
//  * RAM/ROM macro bus faults on the bit-parallel path: a RAM design, a
//    random-netlist shard carrying RAM and ROM macros, and every Fig. 10
//    design's bus faults, all bit-identical with the event-driven engine
//    and none falling back;
//  * the fallback regime: x_initial_flops programs fall back whole (and
//    still match), with the ppsfp_* accounting visible in the registry;
//  * run-ledger invariance: the strip-timing ledger projection of a
//    campaign must not depend on the engine, so cross-engine scflow_report
//    diffs stay clean for every non-timing metric.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "dtypes/logic.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "flow/synthesis_flow.hpp"
#include "hdlsim/compile.hpp"
#include "hdlsim/compiled_sim.hpp"
#include "hdlsim/gate_sim.hpp"
#include "hls/src_beh.hpp"
#include "netlist/lower.hpp"
#include "netlist/netlist.hpp"
#include "netlist/opt.hpp"
#include "netlist_fuzz.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "rtl/builder.hpp"
#include "rtl/src_design.hpp"

namespace scflow::fault {
namespace {

using Engine = CampaignOptions::Engine;

// A small scan-inserted sequential design with feedback — the same shape
// the ledger thread-sweep test uses, so results here triangulate with it.
nl::Netlist scan_accumulator() {
  rtl::DesignBuilder b("ppsfp_acc");
  auto x = b.input("x", 8);
  auto y = b.input("y", 8);
  auto acc = b.reg("acc", 8, 3);
  b.assign_always(acc, b.add(acc.q, b.and_(x, y)));
  b.output("sum", b.add(x, y));
  b.output("acc", acc.q);
  nl::Netlist g = nl::optimize_gates(nl::lower_to_gates(b.finalise()));
  nl::insert_scan_chain(g);
  return g;
}

// Accumulator plus a RAM macro whose write bus hangs off primary inputs:
// faults on the bus nets ride PPSFP lanes like every other fault
// (exercising the per-lane macro read-port change detection and the
// per-lane write gathers against GateSim's).
nl::Netlist ram_design() {
  rtl::DesignBuilder b("ppsfp_ram");
  auto addr = b.input("addr", 4);
  auto wdata = b.input("wdata", 8);
  auto wen = b.input("wen", 1);
  const int mem = b.memory("ram", 4, 8);
  b.ram_write(mem, addr, wdata, wen);
  auto acc = b.reg("acc", 8, 0);
  auto rd = b.ram_read(mem, addr);
  b.assign_always(acc, b.add(acc.q, rd));
  b.output("rdata", rd);
  b.output("acc", acc.q);
  return nl::lower_to_gates(b.finalise());
}

// --- the overlay itself, lane by lane against inject_stuck --------------

TEST(PpsfpOverlay, MatchesInjectStuckPerLane) {
  const nl::Netlist n = scan_accumulator();
  const hdlsim::CompiledProgram prog = hdlsim::compile_netlist(n);

  std::vector<Fault> faults = enumerate_stuck_faults(n);
  ASSERT_GT(faults.size(), 8u);
  const unsigned lanes =
      static_cast<unsigned>(std::min<std::size_t>(faults.size(), 64));

  hdlsim::CompiledSim cs(n, prog);
  std::vector<hdlsim::CompiledSim::LaneFault> overlay;
  for (unsigned l = 0; l < lanes; ++l)
    overlay.push_back({faults[l].net, faults[l].stuck_one, l});
  cs.set_fault_overlay(overlay);

  // One event-driven faulty machine per lane, injected the same way.
  std::vector<std::unique_ptr<hdlsim::GateSim>> gs;
  for (unsigned l = 0; l < lanes; ++l) {
    gs.push_back(std::make_unique<hdlsim::GateSim>(n));
    gs.back()->inject_stuck(faults[l].net,
                            faults[l].stuck_one ? Logic::L1 : Logic::L0);
  }

  std::mt19937_64 rng(0x9e3779b97f4a7c15ull);
  for (int cycle = 0; cycle < 48; ++cycle) {
    for (const nl::PortBits& in : n.inputs()) {
      const std::uint64_t v = rng();
      cs.set_input(&in, v);
      for (auto& g : gs) g->set_input(&in, v);
    }
    cs.step();
    for (auto& g : gs) g->step();
    for (const nl::PortBits& out : n.outputs()) {
      for (unsigned l = 0; l < lanes; ++l) {
        const hdlsim::GateSim::PortSample s = gs[l]->output_sample(&out);
        for (std::size_t b = 0; b < out.nets.size(); ++b) {
          ASSERT_TRUE((s.known >> b) & 1)
              << "lane " << l << " cycle " << cycle << " X at " << out.name;
          EXPECT_EQ((cs.output_word(&out, b) >> l) & 1, (s.value >> b) & 1)
              << describe_fault(n, faults[l]) << " cycle " << cycle << " port "
              << out.name << " bit " << b;
        }
      }
    }
  }
}

// --- campaign-level differential oracle ---------------------------------

TEST(PpsfpFuzz, MatchesEventDrivenOnRandomNetlists) {
  const std::vector<unsigned> threads = {1, 2, 4, 8};
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dull);
    nl::Netlist n = random_gate_netlist(rng);
    // Half the seeds get a real scan chain so the shift/capture program
    // (scan_out observed every shift cycle) is part of the oracle.
    if ((seed & 1) == 0) nl::insert_scan_chain(n);
    const CampaignOptions opt = random_campaign_options(rng);
    const std::string diff = diff_campaign_engines(n, opt, threads);
    EXPECT_EQ(diff, "") << "seed " << seed;
    if (!diff.empty()) break;
  }
}

TEST(PpsfpFuzz, XInitialFlopsFallsBackWholeAndMatches) {
  const std::vector<unsigned> threads = {1, 4};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed * 0xda942042e4dd58b5ull);
    nl::Netlist n = random_gate_netlist(rng);
    if ((seed & 1) == 0) nl::insert_scan_chain(n);
    CampaignOptions opt = random_campaign_options(rng);
    opt.x_initial_flops = true;  // the 4-valued taxonomy must survive
    EXPECT_EQ(diff_campaign_engines(n, opt, threads), "") << "seed " << seed;

    opt.engine = Engine::kPpsfp;
    opt.threads = 1;
    const CampaignResult r = run_campaign(n, opt);
    EXPECT_EQ(r.ppsfp_fallback, r.faults.size()) << "seed " << seed;
    EXPECT_EQ(r.ppsfp_dropped, 0u) << "seed " << seed;
  }
}

// --- RAM macro bus faults on the bit-parallel path ---------------------

TEST(Ppsfp, RamMacroBusFaultsRideLanesAndMatch) {
  const nl::Netlist n = ram_design();
  CampaignOptions opt;
  opt.functional_cycles = 32;
  EXPECT_EQ(diff_campaign_engines(n, opt, {1, 2, 4, 8}), "");

  opt.engine = Engine::kPpsfp;
  obs::Session session;
  opt.metric_prefix = "fault.ppsfp_ram";
  const CampaignResult r = run_campaign(n, opt, &session);
  // The write/read bus faults are part of the list, and none of them (nor
  // anything else) leaves the bit-parallel path.
  EXPECT_FALSE(macro_bus_faults(n, enumerate_stuck_faults(n)).empty());
  EXPECT_EQ(r.ppsfp_fallback, 0u);
  EXPECT_GT(r.detected, 0u);
  EXPECT_EQ(r.ppsfp_dropped, r.detected);
  EXPECT_EQ(session.registry.counter("fault.ppsfp_ram.ppsfp_fallback_faults"), 0u);
  EXPECT_EQ(session.registry.counter("fault.ppsfp_ram.ppsfp_dropped"),
            r.ppsfp_dropped);
}

// Which kind of net drives a macro bus bit — the RAM-bus shard tallies
// these so a generator change cannot silently drop a wiring shape.
enum BusSource { kPrimaryInput, kFlopQ, kLogic, kReadData, kTie, kSourceCount };

BusSource bus_source(const nl::Netlist& n, nl::NetId net) {
  for (const nl::Cell& c : n.cells()) {
    if (c.output != net) continue;
    if (c.type == nl::CellType::kTie0 || c.type == nl::CellType::kTie1) return kTie;
    if (c.type == nl::CellType::kDff || c.type == nl::CellType::kSdff) return kFlopQ;
    return kLogic;
  }
  for (const nl::MacroInfo& mi : n.macros)
    for (const std::string& name : mi.read_data_ports)
      for (const nl::NetId d : n.find_input(name)->nets)
        if (d == net) return kReadData;
  return kPrimaryInput;
}

TEST(PpsfpFuzz, RamBusFaultsMatchEventDrivenOnRandomMacroNetlists) {
  const std::vector<unsigned> threads = {1, 2, 4, 8};
  // [bus][source] bit counts, bus = read address, read enable, write data.
  std::size_t tally[3][kSourceCount] = {};
  std::size_t bus_faults = 0, bus_detected = 0, two_port_rams = 0, roms = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    std::mt19937_64 rng(seed * 0x9fb21c651e98df25ull);
    nl::Netlist n = random_gate_netlist(rng, /*with_macros=*/true);
    if ((seed & 1) == 0) nl::insert_scan_chain(n);
    const CampaignOptions opt = random_campaign_options(rng);
    const std::string diff = diff_campaign_engines(n, opt, threads);
    EXPECT_EQ(diff, "") << "seed " << seed;
    if (!diff.empty()) break;

    CampaignOptions ppsfp = opt;
    ppsfp.engine = Engine::kPpsfp;
    const CampaignResult r = run_campaign(n, ppsfp);
    EXPECT_EQ(r.ppsfp_fallback, 0u) << "seed " << seed;
    const std::vector<Fault> bus = macro_bus_faults(n, enumerate_stuck_faults(n));
    bus_faults += bus.size();
    for (const FaultResult& fr : r.faults)
      if (fr.klass == FaultClass::kDetected &&
          std::find(bus.begin(), bus.end(), fr.fault) != bus.end())
        ++bus_detected;

    for (const nl::MacroInfo& mi : n.macros) {
      const bool ram = mi.kind == nl::MacroInfo::Kind::kRam;
      roms += ram ? 0 : 1;
      two_port_rams += ram && mi.read_data_ports.size() == 2 ? 1 : 0;
      const auto count = [&](int bus_kind, const std::string& port) {
        for (const nl::NetId net : n.find_output(port)->nets)
          ++tally[bus_kind][bus_source(n, net)];
      };
      for (const std::string& p : mi.read_addr_ports) count(0, p);
      for (const std::string& p : mi.read_enable_ports) count(1, p);
      if (ram) count(2, mi.write_data_port);
    }
  }
  EXPECT_GT(bus_faults, 0u);
  EXPECT_GT(bus_detected, 0u);
  EXPECT_LT(bus_detected, bus_faults);
  EXPECT_GT(two_port_rams, 0u);
  EXPECT_GT(roms, 0u);
  for (int bus_kind = 0; bus_kind < 3; ++bus_kind)
    for (const BusSource src : {kPrimaryInput, kFlopQ, kLogic})
      EXPECT_GT(tally[bus_kind][src], 0u) << "bus " << bus_kind << " source " << src;
  // One port's read data addressing another port.
  EXPECT_GT(tally[0][kReadData], 0u);
}

TEST(Ppsfp, DroppedAccountingOnScanDesign) {
  const nl::Netlist n = scan_accumulator();
  CampaignOptions opt;
  opt.engine = Engine::kPpsfp;
  obs::Session session;
  opt.metric_prefix = "fault.ppsfp_acc";
  const CampaignResult r = run_campaign(n, opt, &session);
  // X-free scan design: nothing falls back, every detection is a drop.
  EXPECT_EQ(r.ppsfp_fallback, 0u);
  EXPECT_GT(r.detected, 0u);
  EXPECT_EQ(r.ppsfp_dropped, r.detected);
  // The drop histogram is the fault-dropping evidence: one sample per
  // dropped fault, bucketed by the pattern index that killed it.
  const obs::Histogram* h =
      session.registry.histogram("fault.ppsfp_acc.ppsfp_dropped_at");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), r.ppsfp_dropped);
}

// A PPSFP batch runs until its last lane drops, so ppsfp_batch_cycles is
// the per-batch maximum of the faults' simulated cycles, summed — the
// denominator of the bit-parallel path's lane utilisation.
TEST(Ppsfp, BatchCyclesBoundTheLaneCycles) {
  const nl::Netlist n = ram_design();
  CampaignOptions opt;
  opt.engine = Engine::kPpsfp;
  opt.metric_prefix = "fault.ppsfp_ram";
  obs::Session session;
  const CampaignResult r = run_campaign(n, opt, &session);
  ASSERT_EQ(r.ppsfp_fallback, 0u);
  ASSERT_GT(r.faults.size(), 64u);  // more than one batch, the last one partial
  std::uint64_t want = 0;
  for (std::size_t begin = 0; begin < r.faults.size(); begin += 64) {
    std::uint64_t longest = 0;
    for (std::size_t i = begin; i < std::min(begin + 64, r.faults.size()); ++i)
      longest = std::max(longest, r.faults[i].cycles);
    want += longest;
  }
  EXPECT_EQ(r.ppsfp_batch_cycles, want);
  EXPECT_LE(r.ppsfp_batch_cycles, r.stimulus_cycles * ((r.faults.size() + 63) / 64));
  EXPECT_GT(r.faulty_cycles_total, 0u);
  EXPECT_LE(r.faulty_cycles_total, 64 * r.ppsfp_batch_cycles);
  EXPECT_EQ(session.registry.counter("fault.ppsfp_ram.ppsfp_batch_cycles"),
            r.ppsfp_batch_cycles);
  // Engine accounting only: the ledger entry does not carry it, and the
  // event-driven engine runs no batches.
  ASSERT_EQ(session.ledger.size(), 1u);
  EXPECT_EQ(session.ledger.entries()[0].to_json(true).find("batch_cycles"), std::string::npos);
  opt.engine = Engine::kEventDriven;
  EXPECT_EQ(run_campaign(n, opt).ppsfp_batch_cycles, 0u);
}

// An empty fault list skips the compile, the good machine and the screen,
// yet returns what a full run would for an empty list: the program-derived
// fields of a non-empty run of the same program, and zeros everywhere else.
TEST(Ppsfp, EmptyFaultListFillsOnlyTheProgramFields) {
  for (const bool scan : {true, false}) {
    const nl::Netlist n = scan ? scan_accumulator() : ram_design();
    const std::vector<Fault> one = {enumerate_stuck_faults(n).front()};
    for (const Engine engine : {Engine::kEventDriven, Engine::kPpsfp}) {
      CampaignOptions opt;
      opt.engine = engine;
      opt.threads = 2;
      const CampaignResult full = run_campaign(n, one, opt);
      obs::Session session;
      const CampaignResult r = run_campaign(n, {}, opt, &session);
      EXPECT_EQ(r.design, n.name());
      EXPECT_EQ(r.list.sites, 0u);
      EXPECT_EQ(r.list.raw, 0u);
      EXPECT_EQ(r.list.collapsed, 0u);
      EXPECT_EQ(r.population, 0u);
      EXPECT_EQ(r.scan_used, full.scan_used);
      EXPECT_EQ(r.scan_used, scan);
      EXPECT_EQ(r.stimulus_cycles, full.stimulus_cycles);
      EXPECT_GT(r.stimulus_cycles, 0u);
      EXPECT_EQ(r.observe_ports, full.observe_ports);
      EXPECT_TRUE(r.faults.empty());
      EXPECT_EQ(r.detected, 0u);
      EXPECT_EQ(r.undetected, 0u);
      EXPECT_EQ(r.undetected_budget, 0u);
      EXPECT_EQ(r.oscillating, 0u);
      EXPECT_EQ(r.faulty_cycles_total, 0u);
      EXPECT_EQ(r.ppsfp_dropped, 0u);
      EXPECT_EQ(r.ppsfp_fallback, 0u);
      EXPECT_EQ(r.ppsfp_batch_cycles, 0u);
      // The session still gets the campaign's records.
      ASSERT_EQ(session.ledger.size(), 1u);
      const std::string p = "fault." + n.name();
      EXPECT_EQ(session.registry.counter(p + ".stimulus_cycles"), r.stimulus_cycles);
      EXPECT_TRUE(session.registry.has_counter(p + ".simulated"));
      EXPECT_EQ(session.registry.counter(p + ".simulated"), 0u);
    }
  }
}

TEST(Ppsfp, CycleBudgetParityIsDeterministic) {
  const nl::Netlist n = scan_accumulator();
  CampaignOptions opt;
  opt.cycle_budget = 3;  // shorter than the stimulus program
  EXPECT_EQ(diff_campaign_engines(n, opt, {1, 2, 4, 8}), "");
  opt.engine = Engine::kPpsfp;
  const CampaignResult r = run_campaign(n, opt);
  EXPECT_GT(r.undetected_budget, 0u);
}

// --- Fig. 10: every design's RAM/ROM bus faults -------------------------

struct Fig10Case {
  const char* slug;
  bool scan;
};

// Names the case in test listings (the default would print the raw bytes,
// slug pointer included).
void PrintTo(const Fig10Case& c, std::ostream* os) {
  *os << c.slug << (c.scan ? " scan" : " noscan");
}

rtl::Design fig10_design(const std::string& slug) {
  if (slug == "vhdl_ref") return rtl::build_src_design(rtl::vhdl_ref_config());
  if (slug == "beh_unopt") return hls::build_beh_src_design(hls::beh_unopt_config());
  if (slug == "beh_opt") return hls::build_beh_src_design(hls::beh_opt_config());
  if (slug == "rtl_unopt") return rtl::build_src_design(rtl::rtl_unopt_config());
  return rtl::build_src_design(rtl::rtl_opt_config());
}

class PpsfpFig10BusFaults : public ::testing::TestWithParam<Fig10Case> {};

// The signoff campaign (default options) restricted to the design's macro
// bus faults, on the netlist variant the flow runs it on: the event-driven
// reference against PPSFP at every thread count, with nothing falling
// back.  The scan variants have long shift programs, so only RTL opt.
// runs scan here; fault_campaign --check covers the rest.
TEST_P(PpsfpFig10BusFaults, MatchEventDriven) {
  const Fig10Case& c = GetParam();
  nl::Netlist pre_scan("");
  const nl::Netlist gates = flow::synthesize_to_gates(fig10_design(c.slug), nullptr,
                                                      nullptr, c.slug, {}, &pre_scan);
  const nl::Netlist& n = c.scan ? gates : pre_scan;
  const std::vector<Fault> bus = macro_bus_faults(pre_scan, enumerate_stuck_faults(pre_scan));
  ASSERT_FALSE(bus.empty());

  CampaignOptions opt;
  opt.use_scan = c.scan;
  opt.threads = 4;
  const CampaignResult ref = run_campaign(n, bus, opt);
  EXPECT_GT(ref.detected, 0u);
  opt.engine = Engine::kPpsfp;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    opt.threads = threads;
    const CampaignResult got = run_campaign(n, bus, opt);
    EXPECT_EQ(got.ppsfp_fallback, 0u) << "threads " << threads;
    EXPECT_EQ(diff_campaign_results(n, ref, got), "") << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig10, PpsfpFig10BusFaults,
    ::testing::Values(Fig10Case{"vhdl_ref", false}, Fig10Case{"beh_unopt", false},
                      Fig10Case{"beh_opt", false}, Fig10Case{"rtl_unopt", false},
                      Fig10Case{"rtl_opt", false}, Fig10Case{"rtl_opt", true}),
    [](const ::testing::TestParamInfo<Fig10Case>& info) {
      return std::string(info.param.slug) + (info.param.scan ? "_scan" : "_noscan");
    });

// --- ledger invariance ---------------------------------------------------

TEST(Ppsfp, LedgerStripTimingProjectionIsEngineInvariant) {
  const nl::Netlist n = scan_accumulator();
  std::string reference;
  for (const Engine engine : {Engine::kEventDriven, Engine::kPpsfp}) {
    obs::Session session;
    CampaignOptions opt;
    opt.engine = engine;
    const CampaignResult r = run_campaign(n, opt, &session);
    EXPECT_GT(r.detected, 0u);
    ASSERT_EQ(session.ledger.size(), 1u);
    // Identical fingerprints, counters, coverage and per-fault cycle
    // histogram — the engine may only change the timing fields, so a
    // strip-timing scflow_report diff across engines stays clean.
    const std::string img = session.ledger.entries()[0].to_json(/*strip_timing=*/true);
    if (reference.empty())
      reference = img;
    else
      EXPECT_EQ(img, reference);
  }
}

}  // namespace
}  // namespace scflow::fault
