// Fault subsystem tests: stuck-at list enumeration/collapsing, the GateSim
// injection hooks (stuck overlay + SEU flip), campaign determinism across
// thread counts, budget/watchdog degradation, the scan-vs-noscan coverage
// contract, and the SEU divergence/VCD path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <utility>

#include <map>

#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "fault/seu.hpp"
#include "flow/synthesis_flow.hpp"
#include "hdlsim/gate_sim.hpp"
#include "hls/src_beh.hpp"
#include "netlist/lower.hpp"
#include "netlist/opt.hpp"
#include "obs/session.hpp"
#include "rtl/builder.hpp"
#include "rtl/src_design.hpp"

namespace scflow::fault {
namespace {

using hdlsim::GateSim;

/// Accumulator with fully observable state (both the register and the
/// combinational result are output ports) — most faults detect quickly.
/// Returns {pre-scan netlist, scan-inserted twin of the same netlist}.
std::pair<nl::Netlist, nl::Netlist> acc_pair() {
  rtl::DesignBuilder b("faccu");
  auto x = b.input("x", 8);
  auto y = b.input("y", 8);
  auto acc = b.reg("acc", 8, 3);
  b.assign_always(acc, b.add(acc.q, b.and_(x, y)));
  b.output("sum", b.add(x, y));
  b.output("acc", acc.q);
  nl::Netlist g = nl::optimize_gates(nl::lower_to_gates(b.finalise()));
  nl::Netlist pre = g;
  nl::insert_scan_chain(g);
  return {std::move(pre), std::move(g)};
}

/// State observable ONLY through scan: four flops capture XORs of the
/// inputs but drive nothing downstream; the lone functional output ignores
/// them.  Without scan their whole capture cones are untestable.
std::pair<nl::Netlist, nl::Netlist> hidden_state_pair() {
  nl::Netlist n("hidden");
  std::vector<nl::NetId> a, b;
  for (int i = 0; i < 4; ++i) a.push_back(n.new_net());
  for (int i = 0; i < 4; ++i) b.push_back(n.new_net());
  n.add_input("a", a);
  n.add_input("b", b);
  for (int i = 0; i < 4; ++i) {
    const nl::NetId x = n.add_cell(nl::CellType::kXor2, {a[static_cast<std::size_t>(i)],
                                                         b[static_cast<std::size_t>(i)]});
    (void)n.add_cell(nl::CellType::kDff, {x}, 0);
  }
  const nl::NetId o = n.add_cell(nl::CellType::kAnd2, {a[0], b[0]});
  n.add_output("o", {o});
  n.validate();
  nl::Netlist pre = n;
  nl::insert_scan_chain(n);
  return {std::move(pre), std::move(n)};
}

TEST(FaultList, CollapsesFanoutFreeRegionFaults) {
  // a -> INV -> output port.  The INV input is a single-fanout FFR edge
  // (both polarities fold into the output fault); the INV output is
  // directly observable, so it keeps both.
  nl::Netlist n("ffr");
  const nl::NetId a = n.new_net();
  n.add_input("a", {a});
  const nl::NetId inv = n.add_cell(nl::CellType::kInv, {a});
  n.add_output("o", {inv});
  FaultListStats st;
  const auto faults = enumerate_stuck_faults(n, &st);
  EXPECT_EQ(st.sites, 2u);
  EXPECT_EQ(st.raw, 4u);
  EXPECT_EQ(st.collapsed, 2u);
  ASSERT_EQ(faults.size(), 2u);
  for (const Fault& f : faults) EXPECT_EQ(f.net, inv);
}

TEST(FaultList, ControllingValueCollapseIsPolaritySpecific) {
  // a, b -> AND2 -> output.  Each input's s-a-0 is equivalent to the
  // output's s-a-0 (dropped); the s-a-1 faults are distinguishable (kept).
  nl::Netlist n("and2");
  const nl::NetId a = n.new_net(), b = n.new_net();
  n.add_input("a", {a});
  n.add_input("b", {b});
  const nl::NetId y = n.add_cell(nl::CellType::kAnd2, {a, b});
  n.add_output("o", {y});
  FaultListStats st;
  const auto faults = enumerate_stuck_faults(n, &st);
  EXPECT_EQ(st.sites, 3u);
  EXPECT_EQ(st.raw, 6u);
  EXPECT_EQ(st.collapsed, 2u);  // a s-a-0, b s-a-0
  ASSERT_EQ(faults.size(), 4u);
  for (const Fault& f : faults)
    EXPECT_TRUE(f.net == y || f.stuck_one) << describe_fault(n, f);
}

TEST(FaultList, TiePolarityFaultIsExcludedAndFansOutUncollapsed) {
  // TIE0 stuck-at-0 is the fault-free circuit — never enumerated.
  nl::Netlist n("tie");
  const nl::NetId t = n.const_net(false);
  const nl::NetId y = n.add_cell(nl::CellType::kBuf, {t});
  n.add_output("o", {y});
  FaultListStats st;
  const auto faults = enumerate_stuck_faults(n, &st);
  // Sites: tie net + buf output.  Tie s-a-0 excluded from raw; tie s-a-1
  // collapses into the BUF (single reader); buf output keeps both.
  EXPECT_EQ(st.raw, 3u);
  EXPECT_EQ(st.collapsed, 1u);
  ASSERT_EQ(faults.size(), 2u);
  for (const Fault& f : faults) EXPECT_EQ(f.net, y);
}

TEST(FaultList, DescribeFaultNamesCellOrInputPort) {
  nl::Netlist n("desc");
  const nl::NetId a = n.new_net();
  n.add_input("in_left", {a});
  const nl::NetId y = n.add_cell(nl::CellType::kInv, {a});
  n.add_output("o", {y});
  EXPECT_NE(describe_fault(n, {a, true}).find("in_left"), std::string::npos);
  EXPECT_NE(describe_fault(n, {a, true}).find("stuck-at-1"), std::string::npos);
  EXPECT_NE(describe_fault(n, {y, false}).find("INV"), std::string::npos);
}

TEST(FaultList, SampleFaultsIsCentredStrideAndDeterministic) {
  std::vector<Fault> faults;
  for (nl::NetId i = 0; i < 6; ++i) faults.push_back({i, false});
  EXPECT_EQ(sample_faults(faults, 0).size(), 6u);
  EXPECT_EQ(sample_faults(faults, 9).size(), 6u);
  // Centred stride: the middle of each span, so the tail (net 5 — the
  // list's last FFR group) is reachable; the old left-aligned stride
  // picked {0, 2, 4} and could never select the last fault.
  const auto s = sample_faults(faults, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].net, 1);
  EXPECT_EQ(s[1].net, 3);
  EXPECT_EQ(s[2].net, 5);
}

TEST(FaultList, SampleFaultsDegenerateSizes) {
  const auto make = [](nl::NetId count) {
    std::vector<Fault> v;
    for (nl::NetId i = 0; i < count; ++i) v.push_back({i, (i & 1) != 0});
    return v;
  };
  // Empty list, any cap.
  EXPECT_TRUE(sample_faults({}, 0).empty());
  EXPECT_TRUE(sample_faults({}, 5).empty());
  // Single-element list survives every cap.
  EXPECT_EQ(sample_faults(make(1), 1).size(), 1u);
  EXPECT_EQ(sample_faults(make(1), 7).size(), 1u);
  // Cap of one picks the middle element, not the head.
  const auto mid = sample_faults(make(9), 1);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0].net, 4);
  // Exact divisors (the N % M == 0 boundary of the old bias): indices are
  // strictly increasing, in range, and include the last span.
  for (const std::size_t m : {2u, 4u, 8u}) {
    const auto s = sample_faults(make(8), m);
    ASSERT_EQ(s.size(), m);
    for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1].net, s[i].net);
    EXPECT_GE(s.back().net, static_cast<nl::NetId>(8 - 8 / m));
  }
  // N = M + 1 (minimal oversize) still yields M distinct picks.
  const auto s = sample_faults(make(5), 4);
  ASSERT_EQ(s.size(), 4u);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1].net, s[i].net);
}

TEST(FaultInjection, StuckOverlayClampsDriverAndExternalWrites) {
  nl::Netlist n("clamp");
  const nl::NetId a = n.new_net();
  n.add_input("a", {a});
  const nl::NetId inv = n.add_cell(nl::CellType::kInv, {a});
  n.add_output("o", {inv});

  GateSim sim(n);
  sim.set_input("a", 0);
  sim.settle();
  EXPECT_EQ(sim.output("o"), 1u);

  sim.inject_stuck(inv, Logic::L0);
  sim.settle();
  EXPECT_EQ(sim.stuck_net(), inv);
  EXPECT_EQ(sim.output("o"), 0u);  // clamp forced immediately
  sim.set_input("a", 0);
  sim.settle();
  EXPECT_EQ(sim.output("o"), 0u);  // driver wants 1 — write-side clamp holds

  // External input writes clamp too.
  GateSim sim2(n);
  sim2.inject_stuck(a, Logic::L1);
  sim2.set_input("a", 0);
  sim2.settle();
  EXPECT_EQ(sim2.output("o"), 0u);  // a clamped to 1 -> INV gives 0
}

TEST(FaultInjection, FlopCommitIsClampedThroughTheStuckNet) {
  // DFF whose D is the constant 1: fault its output net to 0 and the
  // commit path must hold it at 0 on every edge.
  nl::Netlist n("flopclamp");
  const nl::NetId one = n.const_net(true);
  const nl::NetId q = n.add_cell(nl::CellType::kDff, {one}, 0);
  n.add_output("o", {q});
  GateSim sim(n);
  sim.step();
  EXPECT_EQ(sim.output("o"), 1u);
  sim.inject_stuck(q, Logic::L0);
  sim.settle();
  EXPECT_EQ(sim.output("o"), 0u);
  sim.step();  // commit would write 1; the clamp wins
  EXPECT_EQ(sim.output("o"), 0u);
}

TEST(FaultInjection, SeuFlipRecoversThroughTheInputCone) {
  nl::Netlist n("seu1");
  const nl::NetId zero = n.const_net(false);
  const nl::NetId q = n.add_cell(nl::CellType::kDff, {zero}, 0);
  n.add_output("o", {q});
  GateSim sim(n);
  sim.step();
  ASSERT_EQ(sim.flop_count(), 1u);
  EXPECT_EQ(sim.flop_output(0), q);
  EXPECT_EQ(sim.output("o"), 0u);

  EXPECT_TRUE(sim.flip_flop(0));
  sim.settle();
  EXPECT_EQ(sim.output("o"), 1u);  // upset visible this cycle
  sim.step();                      // flop re-samples D = 0
  EXPECT_EQ(sim.output("o"), 0u);  // ...and recovers like real hardware
}

TEST(FaultInjection, SeuFlipRefusesOnUnknownState) {
  nl::Netlist n("seux");
  const nl::NetId zero = n.const_net(false);
  (void)n.add_cell(nl::CellType::kDff, {zero}, 0);
  n.add_output("o", {n.cells().back().output});
  GateSim::Options opt;
  opt.x_initial_flops = true;
  GateSim sim(n, opt);
  sim.settle();  // no edge yet: state is still the power-up X
  EXPECT_FALSE(sim.flip_flop(0));
}

TEST(Campaign, DetectsMostFaultsOnObservableDesign) {
  const auto [pre, scan] = acc_pair();
  CampaignOptions opt;
  const CampaignResult r = run_campaign(scan, opt);
  EXPECT_EQ(r.design, "faccu");
  EXPECT_TRUE(r.scan_used);
  EXPECT_GT(r.stimulus_cycles, 0u);
  EXPECT_EQ(r.simulated(), r.faults.size());
  EXPECT_EQ(r.detected + r.undetected + r.undetected_budget + r.oscillating,
            r.simulated());
  EXPECT_GT(r.coverage_pct(), 50.0);
  EXPECT_GT(r.list.raw, r.list.collapsed);
  // Detected faults carry a valid observe point and cycle.
  for (const FaultResult& f : r.faults) {
    if (f.klass != FaultClass::kDetected) continue;
    EXPECT_LT(f.detect_port, r.observe_ports.size());
    EXPECT_LT(f.detect_cycle, r.stimulus_cycles);
    EXPECT_EQ(f.cycles, f.detect_cycle + 1);
  }
}

TEST(Campaign, BitIdenticalAcrossThreadCounts) {
  const auto [pre, scan] = acc_pair();
  CampaignOptions opt;  // budgets off: the determinism contract applies
  opt.threads = 1;
  const CampaignResult ref = run_campaign(scan, opt);
  for (const unsigned threads : {2u, 4u, 8u}) {
    opt.threads = threads;
    const CampaignResult got = run_campaign(scan, opt);
    ASSERT_EQ(got.faults.size(), ref.faults.size()) << "threads " << threads;
    for (std::size_t i = 0; i < ref.faults.size(); ++i)
      ASSERT_TRUE(got.faults[i] == ref.faults[i])
          << "threads " << threads << " fault " << i << " ("
          << describe_fault(scan, ref.faults[i].fault) << ")";
    EXPECT_EQ(got.detected, ref.detected) << "threads " << threads;
    EXPECT_EQ(got.undetected, ref.undetected) << "threads " << threads;
    EXPECT_EQ(got.faulty_cycles_total, ref.faulty_cycles_total)
        << "threads " << threads;
  }
}

TEST(Campaign, CycleBudgetDegradesToUndetectedBudget) {
  const auto [pre, scan] = acc_pair();
  CampaignOptions opt;
  opt.cycle_budget = 1;  // at most one simulated cycle per fault
  const CampaignResult r = run_campaign(scan, opt);
  EXPECT_GT(r.undetected_budget, 0u);
  EXPECT_EQ(r.detected + r.undetected_budget, r.simulated());
  for (const FaultResult& f : r.faults) EXPECT_LE(f.cycles, 1u);
}

TEST(Campaign, StarvedWatchdogTerminatesWithBudgetClassification) {
  // A campaign whose wall budget is already spent must still terminate,
  // classifying every fault as kUndetectedBudget instead of hanging.
  const auto [pre, scan] = acc_pair();
  CampaignOptions opt;
  opt.campaign_wall_budget_ns = 1;
  const CampaignResult r = run_campaign(scan, opt);
  EXPECT_GT(r.simulated(), 0u);
  EXPECT_EQ(r.undetected_budget, r.simulated());
  EXPECT_EQ(r.detected, 0u);
  EXPECT_EQ(r.faulty_cycles_total, 0u);  // skipped before simulating
}

TEST(Campaign, ScanStrictlyImprovesCoverageOnHiddenState) {
  const auto [pre, scan] = hidden_state_pair();
  // One shared fault universe, enumerated on the pre-scan netlist (net
  // ids are preserved by scan insertion).
  FaultListStats st;
  const std::vector<Fault> list = enumerate_stuck_faults(pre, &st);
  ASSERT_FALSE(list.empty());

  CampaignOptions opt;
  opt.scan_patterns = 4;
  const CampaignResult with_scan = run_campaign(scan, list, opt);
  const CampaignResult no_scan = run_campaign(pre, list, opt);
  EXPECT_TRUE(with_scan.scan_used);
  EXPECT_FALSE(no_scan.scan_used);
  EXPECT_EQ(with_scan.simulated(), no_scan.simulated());
  EXPECT_GT(with_scan.coverage_pct(), no_scan.coverage_pct());
  // The hidden capture cones are exactly what scan unlocks: every fault
  // detected without scan is also detected with it.
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (no_scan.faults[i].klass == FaultClass::kDetected) {
      EXPECT_EQ(with_scan.faults[i].klass, FaultClass::kDetected)
          << describe_fault(pre, list[i]);
    }
  }
}

TEST(Campaign, UninitialisableFaultyMachineClassifiedOscillating) {
  // q <= AND(q, NOT rst), flops powering up X: the good machine clears to
  // 0 at the first rst=1; with rst stuck-at-0 the state can never leave X,
  // which at the observe point reads as persistent soft divergence.
  nl::Netlist n("oscil");
  const nl::NetId rst = n.new_net();
  n.add_input("rst", {rst});
  const nl::NetId ninv = n.add_cell(nl::CellType::kInv, {rst});
  const std::size_t flop_cell = n.cells().size();
  const nl::NetId q = n.add_cell(nl::CellType::kDff, {ninv}, 0);
  const nl::NetId nand = n.add_cell(nl::CellType::kAnd2, {q, ninv});
  n.cells_mut()[flop_cell].inputs[0] = nand;
  n.add_output("o", {q});
  n.validate();

  CampaignOptions opt;
  opt.x_initial_flops = true;
  const std::vector<Fault> list = {{rst, false}};
  const CampaignResult r = run_campaign(n, list, opt);
  ASSERT_EQ(r.faults.size(), 1u);
  EXPECT_EQ(r.faults[0].klass, FaultClass::kOscillating)
      << fault_class_name(r.faults[0].klass);
  EXPECT_EQ(r.oscillating, 1u);
}

TEST(Campaign, RecordsMetricsAndBatchTimelineIntoSession) {
  const auto [pre, scan] = acc_pair();
  obs::Session session;
  CampaignOptions opt;
  opt.max_faults = 16;
  const CampaignResult r = run_campaign(scan, opt, &session);
  EXPECT_EQ(r.simulated(), 16u);
  EXPECT_GT(r.population, r.simulated());  // the cap is never silent
  const std::string p = "fault.faccu";
  EXPECT_EQ(session.registry.counter(p + ".simulated"), r.simulated());
  EXPECT_EQ(session.registry.counter(p + ".population"), r.population);
  EXPECT_EQ(session.registry.counter(p + ".detected"), r.detected);
  EXPECT_EQ(session.registry.counter(p + ".scan_used"), 1u);
  EXPECT_EQ(session.registry.counter(p + ".batch.jobs"), r.simulated());
  ASSERT_NE(session.registry.timer(p), nullptr);  // whole-campaign timer
  EXPECT_EQ(session.registry.timer(p)->count, 1u);
}

// Full-list PPSFP on the five Fig. 10 designs reproduces the sampled
// event-driven campaign with exact superset semantics: every sampled
// fault's FaultResult recurs bit-for-bit inside the full-population run,
// so the sampled coverage is a true projection of the full list (and the
// full detected set is a superset of the sampled one by construction).
TEST(Campaign, PpsfpFullListReproducesSampledCoverageOnFig10) {
  struct Design {
    const char* slug;
    rtl::Design d;
  };
  std::vector<Design> designs;
  designs.push_back({"vhdl_ref", rtl::build_src_design(rtl::vhdl_ref_config())});
  designs.push_back({"beh_unopt", hls::build_beh_src_design(hls::beh_unopt_config())});
  designs.push_back({"beh_opt", hls::build_beh_src_design(hls::beh_opt_config())});
  designs.push_back({"rtl_unopt", rtl::build_src_design(rtl::rtl_unopt_config())});
  designs.push_back({"rtl_opt", rtl::build_src_design(rtl::rtl_opt_config())});

  for (Design& e : designs) {
    nl::Netlist pre_scan("");
    const nl::Netlist gates =
        flow::synthesize_to_gates(e.d, nullptr, nullptr, e.slug, {}, &pre_scan);
    const std::vector<Fault> full = enumerate_stuck_faults(pre_scan);
    const std::vector<Fault> sampled = sample_faults(full, 60);
    ASSERT_LT(sampled.size(), full.size()) << e.slug;

    // A shortened (but shared) program keeps five full-population runs
    // inside unit-test time; both engines see the identical options.
    CampaignOptions opt;
    opt.scan_patterns = 1;
    opt.capture_cycles = 1;
    opt.functional_cycles = 8;
    opt.threads = 4;

    CampaignOptions ppsfp_opt = opt;
    ppsfp_opt.engine = CampaignOptions::Engine::kPpsfp;
    const CampaignResult whole = run_campaign(gates, full, ppsfp_opt);
    const CampaignResult subset = run_campaign(gates, sampled, opt);
    ASSERT_EQ(whole.faults.size(), full.size()) << e.slug;

    std::map<std::pair<nl::NetId, bool>, const FaultResult*> by_site;
    for (const FaultResult& fr : whole.faults)
      by_site[{fr.fault.net, fr.fault.stuck_one}] = &fr;
    std::size_t sampled_detected = 0;
    for (const FaultResult& fr : subset.faults) {
      const auto it = by_site.find({fr.fault.net, fr.fault.stuck_one});
      ASSERT_NE(it, by_site.end()) << e.slug << ": " << describe_fault(gates, fr.fault);
      EXPECT_TRUE(*it->second == fr)
          << e.slug << ": " << describe_fault(gates, fr.fault) << " full-list "
          << fault_class_name(it->second->klass) << " vs sampled "
          << fault_class_name(fr.klass);
      if (fr.klass == FaultClass::kDetected) ++sampled_detected;
    }
    EXPECT_EQ(subset.detected, sampled_detected) << e.slug;
    EXPECT_GE(whole.detected, sampled_detected) << e.slug;  // strict superset
    EXPECT_GT(whole.detected, 0u) << e.slug;
  }
}

TEST(Seu, UpsetsDivergeOnAccumulatorAndDumpVcd) {
  const auto [pre, scan] = acc_pair();
  const std::string vcd_path = "seu_divergence_test.vcd";
  std::remove(vcd_path.c_str());
  SeuOptions opt;
  opt.vcd_path = vcd_path;
  const SeuResult r = run_seu_campaign(pre, opt);
  EXPECT_EQ(r.trials.size(), static_cast<std::size_t>(opt.injections));
  EXPECT_GT(r.injected, 0u);
  // The accumulator register is an output port: every real upset is
  // immediately observable, and the state error never washes out.
  EXPECT_GT(r.diverged, 0u);
  EXPECT_EQ(r.injected, r.diverged + r.silent);
  EXPECT_FALSE(r.first_divergent_net.empty());
  ASSERT_EQ(r.vcd_written, vcd_path);

  std::ifstream vcd(vcd_path);
  ASSERT_TRUE(vcd.good());
  std::string contents((std::istreambuf_iterator<char>(vcd)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(contents.find("acc_good"), std::string::npos);
  EXPECT_NE(contents.find("acc_faulty"), std::string::npos);
  std::remove(vcd_path.c_str());

  // Determinism: the same options give bit-identical trial outcomes.
  SeuOptions opt2;  // no VCD the second time
  const SeuResult r2 = run_seu_campaign(pre, opt2);
  ASSERT_EQ(r2.trials.size(), r.trials.size());
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    EXPECT_EQ(r2.trials[i].flop, r.trials[i].flop) << i;
    EXPECT_EQ(r2.trials[i].cycle, r.trials[i].cycle) << i;
    EXPECT_EQ(r2.trials[i].diverged, r.trials[i].diverged) << i;
    EXPECT_EQ(r2.trials[i].first_divergent_cycle, r.trials[i].first_divergent_cycle) << i;
  }
}

TEST(Seu, RefusesToFlipUninitialisedXState) {
  // With X power-up and no reset path, the accumulator never leaves X:
  // every trial must be refused (no 0/1 state to upset), not crash.
  const auto [pre, scan] = acc_pair();
  SeuOptions opt;
  opt.x_initial_flops = true;
  const SeuResult r = run_seu_campaign(pre, opt);
  EXPECT_EQ(r.injected, 0u);
  EXPECT_EQ(r.skipped_x, r.trials.size());
  EXPECT_EQ(r.diverged, 0u);
  EXPECT_TRUE(r.vcd_written.empty());
}

TEST(Seu, RecordsMetricsIntoSession) {
  const auto [pre, scan] = acc_pair();
  obs::Session session;
  const SeuResult r = run_seu_campaign(pre, {}, &session);
  const std::string p = "seu.faccu";
  EXPECT_EQ(session.registry.counter(p + ".trials"), r.trials.size());
  EXPECT_EQ(session.registry.counter(p + ".diverged"), r.diverged);
  EXPECT_EQ(session.registry.counter(p + ".silent"), r.silent);
}

}  // namespace
}  // namespace scflow::fault
