// The compiled bit-parallel gate backend, end to end: bytecode slot
// layout and flop-commit staging, backend selection and its interpreter
// fallback, bit-exactness against the event-driven interpreter on the
// synthesised SRC netlists, independent-lane semantics on random
// netlists (RAM/ROM macros included), the batch runner's thread-count
// invariance on the compiled backend.
#include <gtest/gtest.h>

#include <array>
#include <random>

#include "core/wordpack.hpp"
#include "dsp/stimulus.hpp"
#include "flow/synthesis_flow.hpp"
#include "hdlsim/batch_runner.hpp"
#include "hdlsim/compile.hpp"
#include "hdlsim/compiled_sim.hpp"
#include "hdlsim/dut.hpp"
#include "hdlsim/gate_sim.hpp"
#include "hdlsim/src_gate_sim.hpp"
#include "hls/src_beh.hpp"
#include "netlist/netlist.hpp"
#include "netlist_fuzz.hpp"
#include "rtl/src_design.hpp"

namespace scflow::hdlsim {
namespace {

using dsp::SrcMode;
using P = dsp::SrcParams;

nl::Netlist synthesised_src(const char* which) {
  if (std::string(which) == "beh_opt")
    return flow::synthesize_to_gates(hls::build_beh_src_design(hls::beh_opt_config()));
  if (std::string(which) == "beh_unopt")
    return flow::synthesize_to_gates(hls::build_beh_src_design(hls::beh_unopt_config()));
  if (std::string(which) == "vhdl_ref")
    return flow::synthesize_to_gates(rtl::build_src_design(rtl::vhdl_ref_config()));
  if (std::string(which) == "rtl_unopt")
    return flow::synthesize_to_gates(rtl::build_src_design(rtl::rtl_unopt_config()));
  return flow::synthesize_to_gates(rtl::build_src_design(rtl::rtl_opt_config()));
}

// --- codegen invariants ----------------------------------------------------

TEST(CompiledProgram, SlotLayoutOnSynthesisedNetlist) {
  const nl::Netlist n = synthesised_src("rtl_opt");
  const CompiledProgram prog = compile_netlist(n);

  std::uint32_t flops = 0;
  for (const nl::Cell& c : n.cells())
    if (nl::cell_is_sequential(c.type)) ++flops;
  ASSERT_GT(flops, 0u);
  EXPECT_EQ(prog.flop_count, flops);
  EXPECT_EQ(prog.slot_count, static_cast<std::uint32_t>(n.net_count()) + flops);
  EXPECT_EQ(prog.flop_init.size(), flops);
  EXPECT_EQ(prog.ops.size(), prog.comb_op_count + flops);

  // Flop Q nets occupy [0,F) in sequential-cell order; every other net
  // lives at 2F or above; the mapping is a bijection onto its range.
  std::uint32_t fi = 0;
  std::vector<bool> taken(prog.slot_count, false);
  for (const nl::Cell& c : n.cells()) {
    if (!nl::cell_is_sequential(c.type)) continue;
    EXPECT_EQ(prog.slot_of_net[static_cast<std::size_t>(c.output)], fi) << "flop " << fi;
    ++fi;
  }
  for (std::int32_t net = 0; net < n.net_count(); ++net) {
    const std::uint32_t s = prog.slot_of_net[static_cast<std::size_t>(net)];
    ASSERT_LT(s, prog.slot_count);
    EXPECT_TRUE(s < prog.flop_count || s >= 2 * prog.flop_count) << "net " << net;
    EXPECT_FALSE(taken[s]) << "slot " << s << " double-booked";
    taken[s] = true;
  }

  // Flop-sample ops write exactly the next-state region [F,2F), in order.
  for (std::uint32_t f = 0; f < flops; ++f) {
    const CompiledOp& op = prog.ops[prog.comb_op_count + f];
    EXPECT_EQ(op.out(), prog.flop_count + f);
    EXPECT_TRUE(op.kind() == static_cast<std::uint8_t>(nl::CellType::kBuf) ||
                op.kind() == static_cast<std::uint8_t>(nl::CellType::kMux2));
  }

  // Every combinational op reads only slots that were already written
  // (committed flop state, ties, inputs, or an earlier op) — the
  // straight-line dependency order the executor relies on.
  std::vector<bool> written(prog.slot_count, false);
  for (std::uint32_t f = 0; f < flops; ++f) written[f] = true;
  for (const std::uint32_t s : prog.tie0_slots) written[s] = true;
  for (const std::uint32_t s : prog.tie1_slots) written[s] = true;
  for (const auto& slots : prog.input_slots)
    for (const std::uint32_t s : slots) written[s] = true;
  for (std::size_t i = 0; i < prog.comb_op_count; ++i) {
    const CompiledOp& op = prog.ops[i];
    if (op.kind() == kMacroReadOp) {
      const CompiledMacroPort& mp = prog.macro_ports[op.in0];
      for (const std::uint32_t s : mp.addr_slots) EXPECT_TRUE(written[s]) << "op " << i;
      for (const std::uint32_t s : mp.data_slots) written[s] = true;
      continue;
    }
    const auto t = static_cast<nl::CellType>(op.kind());
    const int n_in = nl::cell_input_count(t);
    if (n_in > 0) {
      EXPECT_TRUE(written[op.in0]) << "op " << i;
    }
    if (n_in > 1) {
      EXPECT_TRUE(written[op.in1]) << "op " << i;
    }
    if (n_in > 2) {
      EXPECT_TRUE(written[op.in2]) << "op " << i;
    }
    written[op.out()] = true;
  }
}

TEST(CompiledProgram, CombinationalCycleThrows) {
  nl::Netlist n("loop");
  const nl::NetId a = n.new_net();
  const nl::NetId b = n.add_cell(nl::CellType::kInv, {a});
  const nl::NetId c = n.add_cell(nl::CellType::kInv, {b});
  n.cells_mut()[0].inputs[0] = c;  // close the loop
  n.add_input("in", {a});          // unused; keeps validate() quiet
  n.add_output("out", {c});
  EXPECT_THROW((void)compile_netlist(n), std::logic_error);
}

TEST(CompiledProgram, MacroBusWiderThan64BitsThrows) {
  for (const int data_bits : {64, 65}) {
    nl::Netlist n("wide_rom");
    const nl::NetId a = n.new_net();
    n.add_input("addr", {a});
    n.add_output("rom_r0_addr", {a});
    std::vector<nl::NetId> data;
    for (int b = 0; b < data_bits; ++b) data.push_back(n.new_net());
    n.add_input("rom_r0_data", data);
    n.add_output("out", {data.back()});
    nl::MacroInfo mi;
    mi.kind = nl::MacroInfo::Kind::kRom;
    mi.name = "rom";
    mi.addr_bits = 1;
    mi.data_bits = data_bits;
    mi.rom_contents = {-1, 0};
    mi.read_addr_ports.push_back("rom_r0_addr");
    mi.read_data_ports.push_back("rom_r0_data");
    n.macros.push_back(std::move(mi));
    if (data_bits > 64) {
      EXPECT_THROW((void)compile_netlist(n), std::logic_error);
    } else {
      CompiledSim sim(n);
      sim.set_input("addr", 0);
      sim.step();
      EXPECT_EQ(sim.output("out"), 1u);
    }
  }
}

// A flop chain q0 -> q1 -> ... -> q7 is the classic in-place-commit trap:
// committing flop i before sampling flop i+1 would let the new value race
// down the chain in one cycle.  The staged [F,2F) region must shift the
// pulse exactly one stage per step.
TEST(CompiledSimTest, FlopChainCommitsAreStaged) {
  nl::Netlist n("chain");
  const nl::NetId d0 = n.new_net();
  n.add_input("d", {d0});
  std::vector<nl::NetId> qs;
  nl::NetId prev = d0;
  for (int i = 0; i < 8; ++i) {
    prev = n.add_cell(nl::CellType::kDff, {prev});
    qs.push_back(prev);
  }
  n.add_output("q", {qs.back()});
  n.add_output("taps", qs);

  CompiledSim sim(n);
  GateSim ref(n);
  sim.set_input("d", 1);
  ref.set_input("d", 1);
  for (int cycle = 0; cycle < 12; ++cycle) {
    sim.step();
    ref.step();
    EXPECT_EQ(sim.output("taps"), ref.output("taps")) << "cycle " << cycle;
    // After k steps of a held-high input, exactly the low k taps are set.
    const std::uint64_t want = (cycle + 1) >= 8 ? 0xffu : ((1u << (cycle + 1)) - 1u);
    EXPECT_EQ(sim.output("taps"), want) << "cycle " << cycle;
    if (cycle == 3) {
      sim.set_input("d", 0);
      ref.set_input("d", 0);
      break;
    }
  }
  for (int cycle = 4; cycle < 14; ++cycle) {
    sim.step();
    ref.step();
    EXPECT_EQ(sim.output("taps"), ref.output("taps")) << "cycle " << cycle;
  }
}

// --- backend selection -----------------------------------------------------

TEST(MakeGateDut, SelectsBackendAndFallsBackToInterpreter) {
  const nl::Netlist n = synthesised_src("rtl_opt");
  GateSim::Options opt;

  auto compiled = make_gate_dut(n, opt, Backend::kCompiled);
  EXPECT_NE(dynamic_cast<CompiledDut*>(compiled.get()), nullptr);

  auto interpreted = make_gate_dut(n, opt, Backend::kInterpreted);
  EXPECT_NE(dynamic_cast<GateDut*>(interpreted.get()), nullptr);

  // X power-up, the checking RAM model and the reference evaluator only
  // exist in the interpreter: requesting any of them overrides the
  // compiled choice.
  GateSim::Options x_init = opt;
  x_init.x_initial_flops = true;
  auto fallback0 = make_gate_dut(n, x_init, Backend::kCompiled);
  EXPECT_NE(dynamic_cast<GateDut*>(fallback0.get()), nullptr);

  GateSim::Options check_ram = opt;
  check_ram.check_ram = true;
  auto fallback = make_gate_dut(n, check_ram, Backend::kCompiled);
  EXPECT_NE(dynamic_cast<GateDut*>(fallback.get()), nullptr);

  GateSim::Options ref_eval = opt;
  ref_eval.use_reference_eval = true;
  auto fallback2 = make_gate_dut(n, ref_eval, Backend::kCompiled);
  EXPECT_NE(dynamic_cast<GateDut*>(fallback2.get()), nullptr);
}

TEST(CompiledSrcRun, MatchesInterpreterOnSrcSchedule) {
  const nl::Netlist gates = synthesised_src("rtl_opt");
  const auto inputs = dsp::make_noise_stimulus(60, 11);
  const auto ev = dsp::make_schedule(inputs, P::input_period_ps(SrcMode::k44_1To48), 60,
                                     P::output_period_ps(SrcMode::k44_1To48));

  const GateRunResult interp =
      run_src_netlist(gates, SrcMode::k44_1To48, ev, {}, 0, Backend::kInterpreted);
  const GateRunResult comp =
      run_src_netlist(gates, SrcMode::k44_1To48, ev, {}, 0, Backend::kCompiled);

  ASSERT_FALSE(interp.timed_out);
  ASSERT_FALSE(comp.timed_out);
  EXPECT_EQ(comp.cycles, interp.cycles);
  ASSERT_EQ(comp.outputs.size(), interp.outputs.size());
  for (std::size_t i = 0; i < interp.outputs.size(); ++i)
    EXPECT_EQ(comp.outputs[i], interp.outputs[i]) << "output " << i;
  EXPECT_GT(comp.counters.evaluations, 0u);
}

// The port shell run_src_netlist drives, around flops that power up X
// and load on the first clock: out_valid follows out_req combinationally
// and out_left/out_right register in_left/in_right.  The synthesised SRC
// netlists read a flop-driven out_valid before the first clock, so their
// x_initial_flops runs stop at that read on either engine; this shell's
// X state resolves before any read.
nl::Netlist registered_src_shell() {
  nl::Netlist n("src_shell");
  const auto input = [&n](const char* name, int width) {
    std::vector<nl::NetId> nets;
    for (int b = 0; b < width; ++b) nets.push_back(n.new_net());
    n.add_input(name, nets);
    return nets;
  };
  const auto reg = [&n](const std::vector<nl::NetId>& d) {
    std::vector<nl::NetId> q;
    for (const nl::NetId net : d) q.push_back(n.add_cell(nl::CellType::kDff, {net}));
    return q;
  };
  input("mode", 2);
  input("in_strobe", 1);
  const auto left = input("in_left", 16);
  const auto right = input("in_right", 16);
  const auto req = input("out_req", 1);
  n.add_output("out_valid", {n.add_cell(nl::CellType::kBuf, {req[0]})});
  n.add_output("out_left", reg(left));
  n.add_output("out_right", reg(right));
  return n;
}

// check_ram (the checking memory model) and x_initial_flops (X power-up)
// request interpreter-only features: the compiled backend must
// transparently fall back so the run, violations report and counters are
// identical to an interpreted run.
TEST(CompiledSrcRun, CheckRamFallsBackToInterpreter) {
  const auto inputs = dsp::make_noise_stimulus(40, 12);
  const auto ev = dsp::make_schedule(inputs, P::input_period_ps(SrcMode::k44_1To48), 40,
                                     P::output_period_ps(SrcMode::k44_1To48));
  GateSim::Options check_ram;
  check_ram.check_ram = true;
  GateSim::Options x_init;
  x_init.x_initial_flops = true;
  const std::pair<nl::Netlist, GateSim::Options> runs[] = {
      {synthesised_src("rtl_opt"), check_ram}, {registered_src_shell(), x_init}};

  for (const auto& [gates, opt] : runs) {
    const GateRunResult interp =
        run_src_netlist(gates, SrcMode::k44_1To48, ev, opt, 0, Backend::kInterpreted);
    const GateRunResult comp =
        run_src_netlist(gates, SrcMode::k44_1To48, ev, opt, 0, Backend::kCompiled);
    ASSERT_FALSE(interp.outputs.empty()) << gates.name();
    EXPECT_EQ(comp.outputs, interp.outputs) << gates.name();
    EXPECT_EQ(comp.cycles, interp.cycles) << gates.name();
    EXPECT_EQ(comp.ram_violations.count, interp.ram_violations.count) << gates.name();
    // The fallback ran the event-driven engine: its queue counters are live.
    EXPECT_GT(comp.counters.dirty_pushes, 0u) << gates.name();
    EXPECT_EQ(comp.counters, interp.counters) << gates.name();
  }
}

TEST(CompiledBatch, BitIdenticalAcrossThreadCounts) {
  const nl::Netlist gates = synthesised_src("rtl_opt");
  std::vector<std::vector<dsp::SrcEvent>> schedules;
  for (int s = 0; s < 6; ++s) {
    const auto inputs = dsp::make_noise_stimulus(30, 100 + static_cast<unsigned>(s));
    schedules.push_back(dsp::make_schedule(inputs, P::input_period_ps(SrcMode::k44_1To48),
                                           30, P::output_period_ps(SrcMode::k44_1To48)));
  }
  const std::vector<GateRunResult> base = run_src_netlist_batch(
      gates, SrcMode::k44_1To48, schedules, {}, 1, nullptr, 0, Backend::kCompiled);
  // The single-lane compiled batch must agree with the interpreter...
  const std::vector<GateRunResult> interp =
      run_src_netlist_batch(gates, SrcMode::k44_1To48, schedules, {}, 1);
  ASSERT_EQ(base.size(), interp.size());
  for (std::size_t j = 0; j < base.size(); ++j)
    EXPECT_EQ(base[j].outputs, interp[j].outputs) << "job " << j;
  // ...and with itself for every lane count.
  for (const unsigned threads : {2u, 4u, 8u}) {
    const std::vector<GateRunResult> got = run_src_netlist_batch(
        gates, SrcMode::k44_1To48, schedules, {}, threads, nullptr, 0, Backend::kCompiled);
    ASSERT_EQ(got.size(), base.size());
    for (std::size_t j = 0; j < base.size(); ++j) {
      EXPECT_EQ(got[j].outputs, base[j].outputs) << threads << " lanes, job " << j;
      EXPECT_EQ(got[j].cycles, base[j].cycles) << threads << " lanes, job " << j;
    }
  }
}

// --- independent pattern lanes ---------------------------------------------

// 64 genuinely different stimuli per word: each sampled lane must agree
// with a scalar GateSim run driven with that lane's per-cycle values.
TEST(CompiledLanes, IndependentLanesMatchScalarRuns) {
  for (int seed = 0; seed < 20; ++seed) {
    std::mt19937_64 rng(0xC0DE0000u + static_cast<unsigned>(seed));
    const nl::Netlist n = random_gate_netlist(rng);

    CompiledSim comp(n);
    constexpr unsigned kProbeLanes[] = {0, 17, 63};
    std::vector<std::unique_ptr<GateSim>> refs;
    for (unsigned l = 0; l < 3; ++l) refs.push_back(std::make_unique<GateSim>(n));

    for (int cycle = 0; cycle < 8; ++cycle) {
      for (const nl::PortBits& in : n.inputs()) {
        const auto port = comp.input_port(in.name);
        const auto rp = refs[0]->input_port(in.name);
        std::vector<std::uint64_t> words(in.nets.size());
        for (auto& w : words) w = rng();
        for (std::size_t b = 0; b < in.nets.size(); ++b)
          comp.set_input_word(port, b, words[b]);
        for (unsigned l = 0; l < 3; ++l) {
          std::uint64_t v = 0;
          for (std::size_t b = 0; b < in.nets.size() && b < 64; ++b)
            v |= std::uint64_t{(words[b] >> kProbeLanes[l]) & 1u} << b;
          refs[l]->set_input(rp, v);
        }
      }
      comp.step();
      for (auto& r : refs) r->step();
      for (const nl::PortBits& out : n.outputs()) {
        const auto port = comp.output_port(out.name);
        for (unsigned l = 0; l < 3; ++l) {
          const GateSim::PortSample want = refs[l]->output_sample(&out);
          const GateSim::PortSample got = comp.output_sample(port, kProbeLanes[l]);
          ASSERT_EQ(got.known, want.known)
              << "seed " << seed << " cycle " << cycle << " lane " << kProbeLanes[l];
          ASSERT_EQ(got.value, want.value)
              << "seed " << seed << " cycle " << cycle << " lane " << kProbeLanes[l];
        }
      }
    }
  }
}

// Random netlists carrying RAM/ROM macros (read data addressing another
// port, read data driven by the stimulus between port evaluations): the
// broadcast runs reproduce the interpreter's samples.
TEST(CompiledLanes, MacroNetlistsMatchInterpreterOnBroadcastStimulus) {
  for (int seed = 0; seed < 64; ++seed) {
    std::mt19937_64 rng(0x3acf0000u + static_cast<unsigned>(seed));
    const nl::Netlist n = random_gate_netlist(rng, /*with_macros=*/true);
    GateSim gs(n);
    CompiledSim comp(n);
    for (int cycle = 0; cycle < 24; ++cycle) {
      for (const nl::PortBits& in : n.inputs()) {
        const std::uint64_t v = rng();
        gs.set_input(&in, v);
        comp.set_input(&in, v);
      }
      gs.step();
      comp.step();
      for (const nl::PortBits& out : n.outputs()) {
        const GateSim::PortSample ref = gs.output_sample(&out);
        const GateSim::PortSample got = comp.output_sample(&out);
        ASSERT_EQ(got.known, ref.known) << "seed " << seed << " cycle " << cycle;
        ASSERT_EQ(got.value, ref.value)
            << "seed " << seed << " cycle " << cycle << " port " << out.name;
      }
    }
  }
}

// Every lane against its own interpreter, with an independent random word
// per input bit: the macro ports gather addresses and scatter data an
// 8-lane group at a time, so broadcast stimulus and single-lane faults
// alone would not show a lane crossing into its neighbour.
TEST(CompiledLanes, MacroNetlistsMatchPerLaneInterpreters) {
  constexpr unsigned kL = CompiledSim::kLanes;
  for (int seed = 0; seed < 32; ++seed) {
    std::mt19937_64 rng(0x3ad10000u + static_cast<unsigned>(seed));
    const nl::Netlist n = random_gate_netlist(rng, /*with_macros=*/true);
    CompiledSim comp(n);
    std::vector<std::unique_ptr<GateSim>> refs;
    for (unsigned l = 0; l < kL; ++l) refs.push_back(std::make_unique<GateSim>(n));

    for (int cycle = 0; cycle < 24; ++cycle) {
      for (const nl::PortBits& in : n.inputs()) {
        const std::size_t width = in.nets.size();
        std::vector<std::uint64_t> val(width);
        for (std::size_t b = 0; b < width; ++b) {
          val[b] = rng();
          comp.set_input_word(&in, b, val[b]);
        }
        for (unsigned l = 0; l < kL; ++l) {
          LogicVector v(width);
          for (std::size_t b = 0; b < width; ++b)
            v.set(b, logic_from_bool(core::word_lane(val[b], l)));
          refs[l]->set_input_logic(in.name, v);
        }
      }
      comp.step();
      for (auto& r : refs) r->step();
      for (const nl::PortBits& out : n.outputs()) {
        for (unsigned l = 0; l < kL; ++l) {
          const GateSim::PortSample want = refs[l]->output_sample(&out);
          const GateSim::PortSample got = comp.output_sample(&out, l);
          ASSERT_EQ(got.known, want.known)
              << "seed " << seed << " cycle " << cycle << " lane " << l << " port " << out.name;
          ASSERT_EQ(got.value, want.value)
              << "seed " << seed << " cycle " << cycle << " lane " << l << " port " << out.name;
        }
      }
    }
  }
}

// The transpose helpers behind the macro ports against a naive per-lane
// reference, at bus widths that fill, straddle and underfill each
// power-of-two block width, with lane masks that leave whole 8-lane
// groups empty.
TEST(WordPack, GatherScatterMatchPerLaneReference) {
  std::mt19937_64 rng(0x7a5e);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 23u, 32u, 64u}) {
    for (int trial = 0; trial < 64; ++trial) {
      std::vector<std::uint64_t> words(n);
      for (auto& w : words) w = rng();
      std::array<std::uint64_t, 64> got;
      core::gather_lanes(words.data(), n, got.data());
      for (unsigned l = 0; l < 64; ++l) {
        std::uint64_t want = 0;
        for (std::size_t b = 0; b < n; ++b)
          want |= std::uint64_t{core::word_lane(words[b], l)} << b;
        ASSERT_EQ(got[l], want) << "n " << n << " lane " << l;
      }

      std::uint64_t lanes = rng();
      if (trial % 4 == 1) lanes &= 0xff00ff0000ff00f0ull;  // empty groups in between
      if (trial % 4 == 2) lanes &= 0x8000000000000001ull;  // one lane at each end
      if (trial % 4 == 3) lanes = 0;
      std::array<std::uint64_t, 64> per_lane;
      for (auto& v : per_lane) v = rng();  // bits at and above n are ignored
      std::vector<std::uint64_t> back(n, rng());
      core::scatter_lanes(per_lane.data(), lanes, n, back.data());
      for (std::size_t b = 0; b < n; ++b) {
        std::uint64_t want = 0;
        for (unsigned l = 0; l < 64; ++l)
          if (core::word_lane(lanes, l) && ((per_lane[l] >> b) & 1u) != 0)
            want |= std::uint64_t{1} << l;
        ASSERT_EQ(back[b], want) << "n " << n << " bit " << b;
      }
    }
  }
}

// --- observability and error paths -----------------------------------------

TEST(CompiledSimTest, CountsOpsWordsAndCycles) {
  const nl::Netlist n = synthesised_src("rtl_opt");
  CompiledSim sim(n);
  for (const nl::PortBits& p : n.inputs()) sim.set_input(p.name, 0);
  for (int i = 0; i < 5; ++i) sim.step();

  EXPECT_EQ(sim.cycles(), 5u);
  EXPECT_GT(sim.ops_executed(), 0u);
  EXPECT_EQ(sim.gate_evaluations(), sim.ops_executed());
}

TEST(CompiledSimTest, ErrorPaths) {
  nl::Netlist n("tiny");
  const nl::NetId a = n.new_net();
  n.add_input("a", {a});
  n.add_output("y", {n.add_cell(nl::CellType::kInv, {a})});
  nl::Netlist other = n;

  CompiledSim two(n);
  EXPECT_THROW((void)two.input_port("nope"), std::invalid_argument);
  EXPECT_THROW((void)two.output_port("a"), std::invalid_argument);

  // Port handles from another netlist are rejected, not misread.
  CompiledSim foreign(other);
  EXPECT_THROW((void)two.set_input(foreign.input_port("a"), 1), std::invalid_argument);
}

}  // namespace
}  // namespace scflow::hdlsim
