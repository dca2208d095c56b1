// Gate-level refinement verification: the synthesised SRC netlists (from
// both the RTL flow and the behavioural flow) must match the quantised
// golden model bit-exactly, and the checking memory model must expose the
// injected golden-model bug — the paper's §4.7 discovery story.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/run.hpp"
#include "dsp/stimulus.hpp"
#include "hdlsim/src_gate_sim.hpp"
#include "hls/src_beh.hpp"
#include "netlist/lower.hpp"
#include "netlist/opt.hpp"
#include "rtl/passes.hpp"
#include "rtl/src_design.hpp"

namespace scflow::hdlsim {
namespace {

using dsp::SrcMode;
using P = dsp::SrcParams;

std::vector<dsp::SrcEvent> schedule(SrcMode mode, std::size_t n, std::uint64_t seed) {
  const auto inputs = dsp::make_noise_stimulus(n, seed);
  return dsp::make_schedule(inputs, P::input_period_ps(mode), n, P::output_period_ps(mode));
}

std::vector<dsp::StereoSample> golden(SrcMode mode, const std::vector<dsp::SrcEvent>& ev,
                                      bool bug = false) {
  model::RunOptions opt;
  opt.quantized_time = true;
  opt.inject_corner_bug = bug;
  return model::run_level(model::RefinementLevel::kAlgorithmicCpp, mode, ev, opt).outputs;
}

nl::Netlist synthesise(const rtl::Design& d) {
  const rtl::Design optimised = rtl::run_passes(d);
  nl::Netlist gates = nl::lower_to_gates(optimised);
  gates = nl::optimize_gates(gates);
  nl::insert_scan_chain(gates);
  return gates;
}

TEST(GateLevelSrc, RtlFlowNetlistMatchesGolden) {
  const auto ev = schedule(SrcMode::k44_1To48, 60, 5);
  const auto want = golden(SrcMode::k44_1To48, ev);
  const auto gates = synthesise(rtl::build_src_design(rtl::rtl_opt_config()));
  const auto got = run_src_netlist(gates, SrcMode::k44_1To48, ev);
  ASSERT_EQ(got.outputs.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got.outputs[i], want[i]) << "output " << i;
}

TEST(GateLevelSrc, BehaviouralFlowNetlistMatchesGolden) {
  const auto ev = schedule(SrcMode::k44_1To48, 60, 6);
  const auto want = golden(SrcMode::k44_1To48, ev);
  const auto gates = synthesise(hls::build_beh_src_design(hls::beh_opt_config()));
  const auto got = run_src_netlist(gates, SrcMode::k44_1To48, ev);
  ASSERT_EQ(got.outputs.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got.outputs[i], want[i]) << "output " << i;
}

TEST(GateLevelSrc, VhdlReferenceNetlistMatchesGolden) {
  const auto ev = schedule(SrcMode::k48To48, 60, 7);
  const auto want = golden(SrcMode::k48To48, ev);
  const auto gates = synthesise(rtl::build_src_design(rtl::vhdl_ref_config()));
  const auto got = run_src_netlist(gates, SrcMode::k48To48, ev);
  ASSERT_EQ(got.outputs.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got.outputs[i], want[i]);
}

TEST(GateLevelSrc, CleanDesignPassesCheckingMemory) {
  const auto ev = schedule(SrcMode::k48To48, 60, 8);
  const auto gates = synthesise(rtl::build_src_design(rtl::rtl_opt_config()));
  GateSim::Options opt;
  opt.check_ram = true;
  const auto got = run_src_netlist(gates, SrcMode::k48To48, ev, opt);
  EXPECT_EQ(got.ram_violations.count, 0u)
      << got.ram_violations.first_kind << " @ " << got.ram_violations.first_address;
}

TEST(GateLevelSrc, CheckingMemoryExposesTheGoldenModelBug) {
  // The paper's §4.7 anecdote, reproduced end to end: the golden-model bug
  // (one extra sample of read lag in the mu == 0 corner) was refined all
  // the way to gates; ordinary simulation still produces plausible audio,
  // but the generated memory model with address checking flags the access
  // once the depth sits at the overrun cap.
  //
  // Drive it into the corner: the consumer stalls for a while (device
  // reset), the buffer overruns to the cap — where the read position is
  // exactly sample-aligned (mu == 0) — and the first resumed output reads
  // one sample past the validity window.
  rtl::SrcArchConfig cfg = rtl::rtl_opt_config();
  cfg.inject_corner_bug = true;
  const auto gates = synthesise(rtl::build_src_design(cfg));

  const auto inputs = dsp::make_noise_stimulus(300, 9);
  std::vector<dsp::SrcEvent> ev;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    ev.push_back({(i + 1) * P::kPeriod48kPs, true, inputs[i]});
  for (std::size_t j = 0; j < 220; ++j) {
    std::uint64_t slot = j < 40 ? j : j + 60;  // 60-period consumer stall
    ev.push_back({(slot + 1) * P::kPeriod48kPs + 777, false, {}});
  }
  std::stable_sort(ev.begin(), ev.end(), [](const dsp::SrcEvent& a, const dsp::SrcEvent& b) {
    return a.t_ps < b.t_ps;
  });

  GateSim::Options opt;
  opt.check_ram = true;
  const auto got = run_src_netlist(gates, SrcMode::k48To48, ev, opt);
  EXPECT_GT(got.ram_violations.count, 0u) << "checking memory should flag the bug";
  EXPECT_EQ(got.ram_violations.first_kind, "stale");

  // Control: the clean design under the same stress stays clean, and an
  // ordinary (non-checking) simulation of the bugged design reports
  // nothing — the paper's point about the bug surviving normal simulation.
  const auto clean = synthesise(rtl::build_src_design(rtl::rtl_opt_config()));
  const auto ok = run_src_netlist(clean, SrcMode::k48To48, ev, opt);
  EXPECT_EQ(ok.ram_violations.count, 0u);
  const auto unchecked = run_src_netlist(gates, SrcMode::k48To48, ev);
  EXPECT_EQ(unchecked.ram_violations.count, 0u);
  EXPECT_EQ(unchecked.outputs.size(), got.outputs.size());
}

TEST(GateLevelSrc, GateActivityIsReported) {
  const auto ev = schedule(SrcMode::k44_1To48, 40, 10);
  const auto gates = synthesise(rtl::build_src_design(rtl::rtl_opt_config()));
  const auto got = run_src_netlist(gates, SrcMode::k44_1To48, ev);
  EXPECT_GT(got.gate_evaluations(), got.cycles);  // multiple gates per cycle
}

TEST(SimCounters, TracksTheEventEngineExactly) {
  // a --XOR-- n1 --INV-- n2 = "out"; n1 also feeds a DFF driving "q".
  // Small enough that every counter value is predictable by hand, which
  // pins down the semantics: a dirty push is a 0->1 transition of a unit's
  // dirty bit, an evaluation is a consumed bit, and construction marks
  // every unit once.
  nl::Netlist n("counters");
  const nl::NetId a = n.new_net();
  const nl::NetId b = n.new_net();
  n.add_input("a", {a});
  n.add_input("b", {b});
  const nl::NetId n1 = n.add_cell(nl::CellType::kXor2, {a, b});
  const nl::NetId n2 = n.add_cell(nl::CellType::kInv, {n1});
  const nl::NetId q = n.add_cell(nl::CellType::kDff, {n1});
  n.add_output("out", {n2});
  n.add_output("q", {q});

  GateSim sim(n);
  // Construction queues both combinational units (the flop is tracked in
  // its own bitmap, not the unit queue).
  EXPECT_EQ(sim.counters().evaluations, 0u);
  EXPECT_EQ(sim.counters().dirty_pushes, 2u);
  EXPECT_EQ(sim.counters().peak_queue_depth, 2u);

  sim.set_input("a", 0);
  sim.set_input("b", 0);
  // XOR: X->0 at level 0, then INV once at level 1.  The level-ordered
  // sweep evaluates each unit at most once per settle: the XOR's re-mark
  // of the INV lands on its (not yet consumed) bit, which the INV's
  // construction-time mark already set — no second push, no
  // re-evaluation.  evaluations therefore tracks dirty_pushes exactly.
  sim.settle();
  EXPECT_EQ(sim.counters().evaluations, 2u);
  EXPECT_EQ(sim.counters().dirty_pushes, 2u);
  EXPECT_EQ(sim.counters().settle_calls, 1u);
  EXPECT_EQ(sim.counters().settle_passes, 1u);

  sim.settle();  // nothing queued: a call, but not a working pass
  EXPECT_EQ(sim.counters().settle_calls, 2u);
  EXPECT_EQ(sim.counters().settle_passes, 1u);
  EXPECT_EQ(sim.counters().evaluations, 2u);

  sim.set_input("a", 1);  // queues XOR; its change then queues INV
  sim.settle();
  EXPECT_EQ(sim.counters().evaluations, 4u);
  EXPECT_EQ(sim.counters().dirty_pushes, 4u);
  EXPECT_EQ(sim.counters().peak_queue_depth, 2u);
  EXPECT_EQ(sim.output("out"), 0u);

  sim.step();  // commits q = n1 = 1
  EXPECT_EQ(sim.output("q"), 1u);
  EXPECT_EQ(sim.counters().steady_state_allocs, 0u);
  // Every push was consumed: queue accounting must balance.
  EXPECT_EQ(sim.counters().evaluations, sim.counters().dirty_pushes);
}

TEST(SimCounters, RamWritesForceReadPortRereads) {
  const auto ev = schedule(SrcMode::k44_1To48, 40, 11);
  const auto gates = synthesise(rtl::build_src_design(rtl::rtl_opt_config()));
  const auto got = run_src_netlist(gates, SrcMode::k44_1To48, ev);
  EXPECT_GT(got.counters.ram_rereads, 0u);  // the SRC buffer RAM is written
  EXPECT_GT(got.counters.peak_queue_depth, 0u);
  EXPECT_EQ(got.counters.steady_state_allocs, 0u);
  // run_src_netlist performs one pre-loop settle to read the initial
  // out_valid, so calls lead cycles by exactly one.
  EXPECT_EQ(got.counters.settle_calls, got.cycles + 1);
}

TEST(GateSimSweep, InverterChainSettlesInOnePassThroughSharedWords) {
  // 100 inverters in series: 100 topological levels.  The dirty bitmap is
  // not padded per level, so the chain packs into two 64-bit words, and
  // each inverter's mark lands later in the word being swept.  The pass
  // must pick every such mark up in the same settle: one input toggle is
  // exactly 100 evaluations and 100 pushes, and the output is settled.
  constexpr unsigned kLen = 100;
  nl::Netlist n("chain");
  const nl::NetId a = n.new_net();
  n.add_input("a", {a});
  nl::NetId x = a;
  for (unsigned i = 0; i < kLen; ++i) x = n.add_cell(nl::CellType::kInv, {x});
  n.add_output("out", {x});

  GateSim sim(n);
  EXPECT_EQ(sim.counters().dirty_pushes, kLen);
  EXPECT_EQ(sim.counters().peak_queue_depth, kLen);
  sim.set_input("a", 0);
  sim.settle();
  EXPECT_EQ(sim.counters().evaluations, kLen);
  EXPECT_EQ(sim.output("out"), 0u);  // even chain length: out == a

  sim.set_input("a", 1);
  sim.settle();
  EXPECT_EQ(sim.counters().evaluations, 2 * kLen);
  EXPECT_EQ(sim.counters().dirty_pushes, 2 * kLen);
  EXPECT_EQ(sim.counters().settle_passes, 2u);
  EXPECT_EQ(sim.counters().peak_queue_depth, kLen);
  EXPECT_EQ(sim.output("out"), 1u);
}

TEST(GateSimSweep, WideSingleLevelPinsCounters) {
  // 1200 inverters off one input: a single level spanning 19 dirty words.
  // Counter values are hand-predictable, which pins the peak_queue_depth
  // semantics: the high-water mark is sampled per external mark batch and
  // as the sweep enters each level, never per evaluated unit.
  constexpr unsigned kInvs = 1200;
  nl::Netlist n("wide");
  const nl::NetId a = n.new_net();
  n.add_input("a", {a});
  std::vector<nl::NetId> outs;
  for (unsigned i = 0; i < kInvs; ++i) outs.push_back(n.add_cell(nl::CellType::kInv, {a}));
  n.add_output("out", {outs[0], outs[kInvs / 2], outs[kInvs - 1]});

  GateSim sim(n);
  EXPECT_EQ(sim.counters().dirty_pushes, kInvs);      // construction marks all
  EXPECT_EQ(sim.counters().peak_queue_depth, kInvs);  // batch sample
  sim.set_input("a", 0);
  sim.settle();
  EXPECT_EQ(sim.counters().evaluations, kInvs);
  sim.set_input("a", 1);  // re-marks every inverter
  sim.settle();
  EXPECT_EQ(sim.counters().evaluations, 2 * kInvs);
  EXPECT_EQ(sim.counters().dirty_pushes, 2 * kInvs);
  EXPECT_EQ(sim.counters().peak_queue_depth, kInvs);
  EXPECT_EQ(sim.counters().steady_state_allocs, 0u);
  EXPECT_EQ(sim.output("out"), 0u);
}

TEST(GateSimSweep, RamReadPortFeedsACellInTheSameDirtyWord) {
  // A checking RAM whose read data drives an inverter.  The read port
  // (level 0) and the inverter (level 1) share dirty word 0, so the port,
  // evaluated in place, marks the inverter later in the word being swept.
  nl::Netlist n("ram_word");
  std::vector<nl::NetId> raddr{n.new_net(), n.new_net()};
  std::vector<nl::NetId> waddr{n.new_net(), n.new_net()};
  std::vector<nl::NetId> wdata{n.new_net(), n.new_net(), n.new_net(), n.new_net()};
  const nl::NetId ren = n.new_net();
  const nl::NetId wen = n.new_net();
  n.add_input("raddr", raddr);
  n.add_input("ren", {ren});
  n.add_input("waddr", waddr);
  n.add_input("wdata", wdata);
  n.add_input("wen", {wen});
  std::vector<nl::NetId> rdata{n.new_net(), n.new_net(), n.new_net(), n.new_net()};
  n.add_input("ram_r0_data", rdata);
  n.add_output("ram_r0_addr", raddr);
  n.add_output("ram_r0_ren", {ren});
  n.add_output("ram_waddr", waddr);
  n.add_output("ram_wdata", wdata);
  n.add_output("ram_wen", {wen});
  n.add_output("rdata", rdata);
  n.add_output("q", {n.add_cell(nl::CellType::kInv, {rdata[0]})});
  nl::MacroInfo mi;
  mi.kind = nl::MacroInfo::Kind::kRam;
  mi.name = "ram";
  mi.addr_bits = 2;
  mi.data_bits = 4;
  mi.read_addr_ports = {"ram_r0_addr"};
  mi.read_data_ports = {"ram_r0_data"};
  mi.read_enable_ports = {"ram_r0_ren"};
  mi.write_addr_port = "ram_waddr";
  mi.write_data_port = "ram_wdata";
  mi.write_enable_port = "ram_wen";
  n.macros.push_back(std::move(mi));

  GateSim::Options opts;
  opts.check_ram = true;
  GateSim sim(n, opts);
  // Cycle 0: write 0xB to slot 1 while the read side is idle.
  sim.set_input("wen", 1);
  sim.set_input("waddr", 1);
  sim.set_input("wdata", 0xB);
  sim.set_input("ren", 0);
  sim.set_input("raddr", 0);
  sim.step();
  // Cycle 1: read slot 1 back; bit 0 is 1, so q = 0.
  sim.set_input("wen", 0);
  sim.set_input("ren", 1);
  sim.set_input("raddr", 1);
  sim.settle();
  EXPECT_EQ(sim.output("rdata"), 0xBu);
  EXPECT_EQ(sim.output("q"), 0u);
  EXPECT_EQ(sim.ram_violations().count, 0u);
  sim.step();
  // Cycle 2: read never-written slot 3 (data 0): the checking model flags
  // it, and the inverter re-settles to 1 within the same pass.
  sim.set_input("raddr", 3);
  sim.settle();
  EXPECT_EQ(sim.output("q"), 1u);
  const GateSim::RamViolation& v = sim.ram_violations();
  EXPECT_EQ(v.count, 1u);
  EXPECT_EQ(v.first_cycle, 2u);
  EXPECT_EQ(v.first_address, 3u);
  EXPECT_EQ(v.first_kind, "never-written");
  EXPECT_EQ(sim.counters().evaluations, sim.counters().dirty_pushes);
}

TEST(GateSimErrors, CyclicNetlistThrowsNamingTheOffendingCell) {
  // Two inverters in a combinational loop (no flop in the cycle).  The
  // simulator must refuse at construction with a message that names the
  // design and one cell on the cycle — not hang in settle().
  nl::Netlist n("looped");
  const nl::NetId a = n.new_net();
  n.add_input("a", {a});
  const std::size_t first = n.cells().size();
  const nl::NetId x = n.add_cell(nl::CellType::kInv, {a});
  const nl::NetId y = n.add_cell(nl::CellType::kInv, {x});
  n.cells_mut()[first].inputs[0] = y;  // close the loop
  n.add_output("o", {x});
  try {
    GateSim sim(n);
    FAIL() << "expected logic_error for the combinational cycle";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("looped"), std::string::npos) << what;
    EXPECT_NE(what.find("combinational cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("INV"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace scflow::hdlsim
