// Tests for the flow drivers: the refinement chain report and the Fig. 10
// synthesis/area flow — including the paper's headline ordering claims.
#include <gtest/gtest.h>

#include "flow/refinement_flow.hpp"
#include "flow/synthesis_flow.hpp"
#include "hls/src_beh.hpp"
#include "obs/json.hpp"
#include "rtl/src_design.hpp"

namespace scflow::flow {
namespace {

TEST(RefinementFlowTest, ChainVerifiesWithQuantisationStepVisible) {
  const auto rep = run_refinement_flow(dsp::SrcMode::k44_1To48, 500);
  EXPECT_TRUE(rep.all_steps_verified());
  ASSERT_EQ(rep.steps.size(), 6u);
  // The continuous -> quantised step must show (small) differences...
  const auto& quant = rep.steps[1];
  EXPECT_EQ(quant.to, "C++ (quantised time)");
  EXPECT_GT(quant.mismatches, 0u);
  // ...and every other step must be exact.
  for (const auto& s : rep.steps) {
    if (s.to != "C++ (quantised time)") {
      EXPECT_TRUE(s.bit_accurate) << s.from << "->" << s.to;
    }
  }
  const std::string text = format_refinement_report(rep);
  EXPECT_NE(text.find("chain verified: yes"), std::string::npos);
}

// The Fig. 8 performance ladder, cross-checked against the kernel
// mechanisms the paper blames for it: activation counts must rise from the
// kernel-free C++ level through the event-driven channel level to the
// clocked levels, which activate their processes every clock cycle.
TEST(RefinementFlowTest, ActivationCountsMatchFig8Ordering) {
  obs::Session session;
  run_refinement_flow(dsp::SrcMode::k44_1To48, 200, &session);
  const auto& reg = session.registry;

  const auto acts = [&](const char* slug) {
    return reg.counter(std::string("level.") + slug + ".activations");
  };
  // C++ < channel < behavioural; behavioural and RTL both activate once
  // per clock edge, so their activation counts coincide — the wall-clock
  // gap between them is context switches (threads vs methods), below.
  EXPECT_EQ(acts("cpp"), 0u);
  EXPECT_LT(acts("cpp"), acts("channel"));
  EXPECT_LT(acts("channel"), acts("beh_opt"));
  EXPECT_LE(acts("beh_opt"), acts("rtl_opt"));
  EXPECT_LT(acts("channel"), acts("rtl_opt"));

  const auto ctx = [&](const char* slug) {
    return reg.counter(std::string("level.") + slug + ".context_switches");
  };
  EXPECT_GT(ctx("beh_opt"), 10 * ctx("rtl_opt"))
      << "thread-based behavioural level must pay far more context switches "
         "than the method-based RTL level";

  const auto deltas = [&](const char* slug) {
    return reg.counter(std::string("level.") + slug + ".delta_cycles");
  };
  EXPECT_EQ(deltas("cpp"), 0u);
  EXPECT_LT(deltas("channel"), deltas("rtl_opt"));

  // Per-level keys the --json consumers rely on all exist.
  for (const char* slug : {"channel", "beh_opt", "rtl_opt"}) {
    for (const char* field : {"activations", "context_switches", "delta_cycles",
                              "method_invocations", "signal_updates"}) {
      EXPECT_TRUE(
          reg.has_counter(std::string("level.") + slug + "." + field))
          << slug << "." << field;
    }
  }
  // Per-process attribution made it into the registry.
  EXPECT_GT(reg.counter("process.channel.producer.drive.activations"), 0u);
  const std::string report = reg.report_json();
  EXPECT_NE(report.find("process.rtl_opt."), std::string::npos);
}

// The session trace must be structurally valid Chrome trace-event JSON
// (loadable in chrome://tracing / Perfetto) with one slice per flow step.
TEST(RefinementFlowTest, SessionEmitsValidTraceAndReport) {
  obs::Session session;
  const auto rep = run_refinement_flow(dsp::SrcMode::k44_1To48, 120, &session);
  EXPECT_TRUE(rep.all_steps_verified());

  std::string err;
  const std::string trace = session.trace.to_json();
  ASSERT_TRUE(obs::json_validate(trace, &err)) << err;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // 7 level runs + 6 verification steps, each a complete slice; plus the
  // per-level activation counter samples.
  EXPECT_GE(session.trace.event_count(), 13u);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  const std::string report = session.registry.report_json();
  ASSERT_TRUE(obs::json_validate(report, &err)) << err;
  EXPECT_NE(report.find("scflow-obs-2"), std::string::npos);
  ASSERT_NE(session.registry.timer("level:rtl_opt"), nullptr);
  EXPECT_EQ(session.registry.timer("level:rtl_opt")->count, 1u);
  EXPECT_EQ(session.registry.counter("verify.steps"), 6u);
  EXPECT_GT(session.registry.counter("verify.outputs_compared"), 0u);
}

TEST(SynthesisFlowTest, AllDesignsSynthesise) {
  const auto rows = figure10_area_rows();
  ASSERT_EQ(rows.size(), 5u);
  for (const auto& r : rows) {
    EXPECT_GT(r.area.combinational, 0.0) << r.name;
    EXPECT_GT(r.area.sequential, 0.0) << r.name;
    EXPECT_GT(r.flops, 100u) << r.name;
  }
  EXPECT_NEAR(rows[0].total_pct, 100.0, 1e-9);  // VHDL-Ref is the baseline
}

TEST(SynthesisFlowTest, Figure10ShapeHolds) {
  // The paper's Fig. 10 findings:
  //  * BEH unopt is the largest (paper: 127.5 % of the reference);
  //  * the optimised SystemC implementations beat the VHDL reference;
  //  * even unoptimised RTL beats the reference;
  //  * comb(BEH opt) ~ comb(RTL opt): behavioural synthesis reached the
  //    optimum allocation; the RTL savings come from registers.
  const auto rows = figure10_area_rows();
  const auto& ref = rows[0];
  const auto& beh_u = rows[1];
  const auto& beh_o = rows[2];
  const auto& rtl_u = rows[3];
  const auto& rtl_o = rows[4];

  EXPECT_GT(beh_u.total_pct, 100.0) << "BEH unopt should exceed the reference";
  EXPECT_LT(beh_o.total_pct, 100.0) << "BEH opt should beat the reference";
  EXPECT_LT(rtl_u.total_pct, 100.0) << "even RTL unopt should beat the reference";
  EXPECT_LT(rtl_o.total_pct, rtl_u.total_pct) << "RTL opt smallest";
  EXPECT_LT(rtl_o.total_pct, beh_o.total_pct);

  // Combinational area of BEH-opt and RTL-opt nearly identical (within a
  // few percent of the reference total).
  EXPECT_NEAR(beh_o.combinational_pct, rtl_o.combinational_pct, 6.0);
  // The RTL wins come from sequential area.
  EXPECT_GT(beh_o.sequential_pct, rtl_o.sequential_pct);
  EXPECT_GT(rtl_u.sequential_pct, rtl_o.sequential_pct);
  (void)ref;
}

// The formal gates of the ISSUE's acceptance criteria: gate optimisation
// and scan insertion on the optimised SystemC implementations are proven
// equivalence-preserving by CEC, with stats landing under
// "fig10.<design>.cec.*".
TEST(SynthesisFlowTest, FormalCecGatesProveRtlOptRefinements) {
  obs::Registry reg;
  SynthesisOptions opts;
  opts.verify_cec = true;
  const rtl::Design d = rtl::build_src_design(rtl::rtl_opt_config());
  const nl::Netlist gates = synthesize_to_gates(d, nullptr, &reg, "fig10.rtl_opt", opts);
  EXPECT_GT(gates.cells().size(), 0u);
  EXPECT_EQ(reg.gauge("fig10.rtl_opt.cec.opt.equivalent"), 1.0);
  EXPECT_EQ(reg.gauge("fig10.rtl_opt.cec.scan.equivalent"), 1.0);
  EXPECT_GT(reg.counter("fig10.rtl_opt.cec.opt.compare_bits"), 0u);
  EXPECT_GT(reg.counter("fig10.rtl_opt.cec.scan.compare_bits"), 0u);
  ASSERT_NE(reg.timer("fig10.rtl_opt.cec.opt"), nullptr);
  ASSERT_NE(reg.timer("fig10.rtl_opt.cec.scan"), nullptr);
}

TEST(SynthesisFlowTest, FormalCecGatesProveBehOptRefinements) {
  obs::Registry reg;
  SynthesisOptions opts;
  opts.verify_cec = true;
  const rtl::Design d = hls::build_beh_src_design(hls::beh_opt_config(), nullptr);
  (void)synthesize_to_gates(d, nullptr, &reg, "fig10.beh_opt", opts);
  EXPECT_EQ(reg.gauge("fig10.beh_opt.cec.opt.equivalent"), 1.0);
  EXPECT_EQ(reg.gauge("fig10.beh_opt.cec.scan.equivalent"), 1.0);
}

TEST(SynthesisFlowTest, TableFormats) {
  const auto rows = figure10_area_rows();
  const std::string t = format_area_table(rows);
  EXPECT_NE(t.find("VHDL-Ref"), std::string::npos);
  EXPECT_NE(t.find("total %"), std::string::npos);
  // No campaigns ran: the fault table renders empty.
  EXPECT_TRUE(format_fault_table(rows).empty());
}

TEST(SynthesisFlowTest, PreScanTwinSharesFaultUniverseWithScanEndpoint) {
  nl::Netlist pre("");
  const nl::Netlist gates = synthesize_to_gates(
      rtl::build_src_design(rtl::rtl_opt_config()), nullptr, nullptr, "synth", {}, &pre);
  // The twin is the same netlist minus the scan conversion: identical cell
  // count, plain flops, no scan ports.
  EXPECT_EQ(pre.cells().size(), gates.cells().size());
  EXPECT_EQ(pre.find_input("scan_in"), nullptr);
  EXPECT_NE(gates.find_input("scan_in"), nullptr);
  for (const nl::Cell& c : pre.cells()) EXPECT_NE(c.type, nl::CellType::kSdff);

  // One fault list, valid on both variants: a small sampled campaign pair
  // runs end-to-end and the scan side must not be worse.
  FaultOptions fopt;
  fault::FaultListStats st;
  std::vector<fault::Fault> list = fault::enumerate_stuck_faults(pre, &st);
  EXPECT_EQ(st.raw - st.collapsed, list.size());
  list = fault::sample_faults(list, 12);
  fault::CampaignOptions copt;
  const auto with_scan = fault::run_campaign(gates, list, copt);
  const auto no_scan = fault::run_campaign(pre, list, copt);
  EXPECT_TRUE(with_scan.scan_used);
  EXPECT_FALSE(no_scan.scan_used);
  EXPECT_GE(with_scan.coverage_pct(), no_scan.coverage_pct());

  // And the row-level formatter shows the delta columns.
  AreaRow row;
  row.name = "RTL opt.";
  row.scan_coverage_pct = with_scan.coverage_pct();
  row.noscan_coverage_pct = no_scan.coverage_pct();
  row.fault_population = list.size();
  row.faults_simulated = list.size();
  const std::string t = format_fault_table({row});
  EXPECT_NE(t.find("scan %"), std::string::npos);
  EXPECT_NE(t.find("RTL opt."), std::string::npos);
}

}  // namespace
}  // namespace scflow::flow
