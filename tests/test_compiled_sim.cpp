// The compiled bit-parallel gate backend, end to end: bytecode slot
// layout and flop-commit staging, the macro read-port fallback regime,
// bit-exactness against the event-driven interpreter on the synthesised
// SRC netlists (functional schedules and the fault campaign's stimulus,
// all five Fig. 10 designs), independent-lane semantics on random
// netlists, the batch runner's thread-count invariance on the compiled
// backend, and the CEC compiled pre-pass.
#include <gtest/gtest.h>

#include <array>
#include <random>

#include "core/wordpack.hpp"
#include "dsp/stimulus.hpp"
#include "fault/campaign.hpp"
#include "flow/synthesis_flow.hpp"
#include "formal/cec.hpp"
#include "hdlsim/batch_runner.hpp"
#include "hdlsim/compile.hpp"
#include "hdlsim/compiled_sim.hpp"
#include "hdlsim/dut.hpp"
#include "hdlsim/gate_sim.hpp"
#include "hdlsim/src_gate_sim.hpp"
#include "hls/src_beh.hpp"
#include "netlist/netlist.hpp"
#include "netlist_fuzz.hpp"
#include "obs/registry.hpp"
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

  // The checking RAM model and the reference evaluator only exist in the
  // interpreter: requesting either overrides the compiled choice.
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

// check_ram requests the interpreter-only checking memory model: the
// compiled backend must transparently fall back so the violations report
// is identical to an interpreted run.
TEST(CompiledSrcRun, CheckRamFallsBackToInterpreter) {
  const nl::Netlist gates = synthesised_src("rtl_opt");
  const auto inputs = dsp::make_noise_stimulus(40, 12);
  const auto ev = dsp::make_schedule(inputs, P::input_period_ps(SrcMode::k44_1To48), 40,
                                     P::output_period_ps(SrcMode::k44_1To48));
  GateSim::Options opt;
  opt.check_ram = true;

  const GateRunResult interp =
      run_src_netlist(gates, SrcMode::k44_1To48, ev, opt, 0, Backend::kInterpreted);
  const GateRunResult comp =
      run_src_netlist(gates, SrcMode::k44_1To48, ev, opt, 0, Backend::kCompiled);
  EXPECT_EQ(comp.outputs, interp.outputs);
  EXPECT_EQ(comp.ram_violations.count, interp.ram_violations.count);
  // The fallback ran the event-driven engine: its queue counters are live.
  EXPECT_EQ(comp.counters.dirty_pushes, interp.counters.dirty_pushes);
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

// --- fault-campaign stimulus parity ----------------------------------------

// The x_initial_flops gate DUTs on the compiled backend (make_gate_dut)
// rest on this: over the exact campaign stimulus (scan shifts included)
// the four-state compiled engine must reproduce the interpreter's
// output_sample() masks bit for bit, on every Fig. 10 design, X power-up
// included.
TEST(CompiledCampaignParity, AllFigureTenDesigns) {
  for (const char* which : {"vhdl_ref", "beh_unopt", "beh_opt", "rtl_unopt", "rtl_opt"}) {
    const nl::Netlist n = synthesised_src(which);
    fault::CampaignOptions copt;
    copt.max_faults = 1;
    copt.x_initial_flops = true;
    copt.functional_cycles = 24;
    const auto stimulus = fault::build_campaign_stimulus(n, copt);
    ASSERT_FALSE(stimulus.empty()) << which;

    GateSim::Options gopt;
    gopt.x_initial_flops = true;
    GateSim interp(n, gopt);
    CompiledSim::Options sopt;
    sopt.x_initial_flops = true;
    CompiledSim comp(n, sopt);

    std::vector<GateSim::PortRef> ins, outs;
    for (const nl::PortBits& p : n.inputs()) ins.push_back(&p);
    for (const nl::PortBits& p : n.outputs()) outs.push_back(&p);

    for (std::size_t c = 0; c < stimulus.size(); ++c) {
      for (std::size_t i = 0; i < ins.size(); ++i) {
        interp.set_input(ins[i], stimulus[c][i]);
        comp.set_input(ins[i], stimulus[c][i]);
      }
      interp.step();
      comp.step();
      for (const auto out : outs) {
        const GateSim::PortSample a = interp.output_sample(out);
        const GateSim::PortSample b = comp.output_sample(out);
        ASSERT_EQ(a.known, b.known)
            << which << " cycle " << c << " output " << out->name << " known mask";
        ASSERT_EQ(a.value & a.known, b.value & b.known)
            << which << " cycle " << c << " output " << out->name;
      }
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

// Fully defined stimulus: the four-state engine must collapse to the
// two-state engine's words with an all-ones known mask.
TEST(CompiledLanes, FourStateMatchesTwoStateOnDefinedStimulus) {
  for (int seed = 0; seed < 10; ++seed) {
    std::mt19937_64 rng(0xBEEF0000u + static_cast<unsigned>(seed));
    const nl::Netlist n = random_gate_netlist(rng);

    CompiledSim two(n);
    CompiledSim::Options fopt;
    fopt.four_state = true;
    CompiledSim four(n, fopt);

    for (int cycle = 0; cycle < 6; ++cycle) {
      for (const nl::PortBits& in : n.inputs()) {
        const auto p2 = two.input_port(in.name);
        const auto p4 = four.input_port(in.name);
        for (std::size_t b = 0; b < in.nets.size(); ++b) {
          const std::uint64_t w = rng();
          two.set_input_word(p2, b, w);
          four.set_input_word(p4, b, w);
        }
      }
      two.step();
      four.step();
      for (const nl::PortBits& out : n.outputs()) {
        const auto p2 = two.output_port(out.name);
        const auto p4 = four.output_port(out.name);
        for (std::size_t b = 0; b < out.nets.size(); ++b) {
          ASSERT_EQ(four.output_known_word(p4, b), ~0ull) << "seed " << seed;
          ASSERT_EQ(four.output_word(p4, b), two.output_word(p2, b)) << "seed " << seed;
          ASSERT_EQ(two.output_known_word(p2, b), ~0ull);
        }
      }
    }
  }
}

// Random netlists carrying RAM/ROM macros (read data addressing another
// port, read data driven by the stimulus between port evaluations): the
// broadcast two- and four-state runs reproduce the interpreter's samples.
TEST(CompiledLanes, MacroNetlistsMatchInterpreterOnBroadcastStimulus) {
  for (int seed = 0; seed < 64; ++seed) {
    std::mt19937_64 rng(0x3acf0000u + static_cast<unsigned>(seed));
    const nl::Netlist n = random_gate_netlist(rng, /*with_macros=*/true);
    GateSim gs(n);
    CompiledSim two(n);
    CompiledSim four(n, {.four_state = true});
    for (int cycle = 0; cycle < 24; ++cycle) {
      for (const nl::PortBits& in : n.inputs()) {
        const std::uint64_t v = rng();
        gs.set_input(&in, v);
        two.set_input(&in, v);
        four.set_input(&in, v);
      }
      gs.step();
      two.step();
      four.step();
      for (const nl::PortBits& out : n.outputs()) {
        const GateSim::PortSample ref = gs.output_sample(&out);
        for (const CompiledSim* cs : {&two, &four}) {
          const GateSim::PortSample got = cs->output_sample(&out);
          ASSERT_EQ(got.known, ref.known) << "seed " << seed << " cycle " << cycle;
          ASSERT_EQ(got.value, ref.value)
              << "seed " << seed << " cycle " << cycle << " port " << out.name
              << (cs->four_state() ? " (four-state)" : " (two-state)");
        }
      }
    }
  }
}

// Same netlists in four-state mode with X in the stimulus (and X power-up
// on odd seeds): unknown addresses, enables and data must re-evaluate the
// ports exactly when GateSim's do.  Z is left out — the compiled backend
// collapses it to X, so an X->Z drive is no transition there.
TEST(CompiledLanes, MacroNetlistsMatchInterpreterUnderX) {
  for (int seed = 0; seed < 64; ++seed) {
    std::mt19937_64 rng(0x3ad00000u + static_cast<unsigned>(seed));
    const nl::Netlist n = random_gate_netlist(rng, /*with_macros=*/true);
    const bool x_init = (seed & 1) != 0;
    GateSim gs(n, {.x_initial_flops = x_init});
    CompiledSim four(n, {.four_state = true, .x_initial_flops = x_init});
    for (int cycle = 0; cycle < 24; ++cycle) {
      for (const nl::PortBits& in : n.inputs()) {
        LogicVector v = random_logic_vector(rng, in.nets.size(), /*allow_xz=*/true);
        for (std::size_t i = 0; i < v.width(); ++i)
          if (v.at(i) == Logic::Z) v.set(i, Logic::X);
        gs.set_input_logic(in.name, v);
        four.set_input_logic(in.name, v);
      }
      gs.step();
      four.step();
      for (const nl::PortBits& out : n.outputs()) {
        const GateSim::PortSample ref = gs.output_sample(&out);
        const GateSim::PortSample got = four.output_sample(&out);
        ASSERT_EQ(got.known, ref.known)
            << "seed " << seed << " cycle " << cycle << " port " << out.name;
        ASSERT_EQ(got.value, ref.value)
            << "seed " << seed << " cycle " << cycle << " port " << out.name;
      }
    }
  }
}

// Every lane against its own interpreter, with an independent random word
// per input bit: the macro ports gather addresses and scatter data an
// 8-lane group at a time, so broadcast stimulus and single-lane faults
// alone would not show a lane crossing into its neighbour.  Four-state
// runs add per-lane X through the known-mask drive (and X power-up on odd
// seeds).
TEST(CompiledLanes, MacroNetlistsMatchPerLaneInterpreters) {
  constexpr unsigned kL = CompiledSim::kLanes;
  for (const bool four : {false, true}) {
    for (int seed = 0; seed < 32; ++seed) {
      std::mt19937_64 rng(0x3ad10000u + static_cast<unsigned>(seed));
      const nl::Netlist n = random_gate_netlist(rng, /*with_macros=*/true);
      const bool x_init = four && (seed & 1) != 0;
      CompiledSim comp(n, {.four_state = four, .x_initial_flops = x_init});
      std::vector<std::unique_ptr<GateSim>> refs;
      for (unsigned l = 0; l < kL; ++l)
        refs.push_back(std::make_unique<GateSim>(n, GateSim::Options{.x_initial_flops = x_init}));

      for (int cycle = 0; cycle < 24; ++cycle) {
        for (const nl::PortBits& in : n.inputs()) {
          const std::size_t width = in.nets.size();
          std::vector<std::uint64_t> val(width), known(width, ~0ull);
          for (std::size_t b = 0; b < width; ++b) {
            if (four) known[b] = rng() | rng() | rng();  // ~1/8 of the lanes X
            val[b] = rng() & known[b];
            if (four) comp.set_input_word(&in, b, val[b], known[b]);
            else comp.set_input_word(&in, b, val[b]);
          }
          for (unsigned l = 0; l < kL; ++l) {
            LogicVector v(width);
            for (std::size_t b = 0; b < width; ++b)
              v.set(b, !core::word_lane(known[b], l)
                           ? Logic::X
                           : logic_from_bool(core::word_lane(val[b], l)));
            refs[l]->set_input_logic(in.name, v);
          }
        }
        comp.step();
        for (auto& r : refs) r->step();
        for (const nl::PortBits& out : n.outputs()) {
          for (unsigned l = 0; l < kL; ++l) {
            const GateSim::PortSample want = refs[l]->output_sample(&out);
            const GateSim::PortSample got = comp.output_sample(&out, l);
            ASSERT_EQ(got.known, want.known) << (four ? "four" : "two") << "-state seed "
                                             << seed << " cycle " << cycle << " lane " << l
                                             << " port " << out.name;
            ASSERT_EQ(got.value, want.value) << (four ? "four" : "two") << "-state seed "
                                             << seed << " cycle " << cycle << " lane " << l
                                             << " port " << out.name;
          }
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
  EXPECT_EQ(sim.words_written(), sim.ops_executed());  // two-state: one word per op
  EXPECT_EQ(sim.gate_evaluations(), sim.ops_executed());
}

TEST(CompiledSimTest, ErrorPaths) {
  nl::Netlist n("tiny");
  const nl::NetId a = n.new_net();
  n.add_input("a", {a});
  n.add_output("y", {n.add_cell(nl::CellType::kInv, {a})});
  nl::Netlist other = n;

  CompiledSim two(n);
  EXPECT_THROW(two.set_input_x("a"), std::invalid_argument);
  LogicVector xv(1);
  xv.set(0, Logic::X);
  EXPECT_THROW(two.set_input_logic("a", xv), std::invalid_argument);
  EXPECT_THROW((void)two.input_port("nope"), std::invalid_argument);
  EXPECT_THROW((void)two.output_port("a"), std::invalid_argument);

  // Four-state: X propagates, numeric output() refuses it, sample masks it.
  CompiledSim::Options fopt;
  fopt.four_state = true;
  CompiledSim four(n, fopt);
  four.set_input_x("a");
  four.settle();
  EXPECT_THROW((void)four.output("y"), std::runtime_error);
  EXPECT_EQ(four.output_sample(four.output_port("y")).known, 0u);
  four.set_input("a", 1);
  four.settle();
  EXPECT_EQ(four.output("y"), 0u);

  // Port handles from another netlist are rejected, not misread.
  CompiledSim foreign(other);
  EXPECT_THROW((void)two.set_input(foreign.input_port("a"), 1), std::invalid_argument);
}

// --- CEC pre-pass ----------------------------------------------------------

TEST(CecCompiledPresim, RefutesAndRecordsOnGateOptPair) {
  std::mt19937_64 rng(0x5eed01);
  const nl::Netlist n = random_gate_netlist(rng);
  // Identical flop shapes on both sides: random netlists carry unnamed
  // flops, which CEC pairs positionally only when the counts match.
  const nl::Netlist copy = n;

  // Equivalent pair: the pre-pass runs all rounds, finds nothing, and the
  // usual engine proves equivalence.
  formal::CecOptions opt;
  obs::Registry reg;
  opt.metric_prefix = "cec.test";
  const formal::CecResult eq = formal::check_equivalence(n, copy, &reg, opt);
  EXPECT_TRUE(eq.equivalent());
  EXPECT_EQ(eq.stats.presim_rounds, static_cast<std::size_t>(opt.sim_rounds));
  EXPECT_GT(eq.stats.presim_ops, 0u);
  EXPECT_EQ(reg.counter("cec.test.presim_rounds"), eq.stats.presim_rounds);
  EXPECT_EQ(reg.counter("cec.test.presim_ops"), eq.stats.presim_ops);

  // Broken pair: flip one cell; the pre-pass should refute within its
  // rounds (64 patterns each) and the counterexample must replay.
  nl::Netlist broken = n;
  bool flipped = false;
  for (nl::Cell& c : broken.cells_mut()) {
    if (c.type == nl::CellType::kAnd2) {
      c.type = nl::CellType::kOr2;
      flipped = true;
      break;
    }
    if (c.type == nl::CellType::kInv) {
      c.type = nl::CellType::kBuf;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);
  const formal::CecResult ne = formal::check_equivalence(n, broken, nullptr, opt);
  if (ne.status == formal::CecStatus::kNotEquivalent && ne.stats.presim_rounds > 0 &&
      ne.stats.sat_calls == 0) {
    // Refuted by simulation (pre-pass or AIG): the cex must be concrete
    // and replay-confirmed through GateSim.
    ASSERT_TRUE(ne.cex.has_value());
    EXPECT_TRUE(ne.cex->replayed);
    EXPECT_TRUE(ne.cex->replay_confirmed);
  }
  // Whichever layer caught it, the verdict must not be "equivalent"
  // unless the flip happened to be behaviour-preserving on dead logic.
  if (ne.status == formal::CecStatus::kEquivalent) {
    const formal::CecResult confirm = formal::check_equivalence(n, broken);
    EXPECT_TRUE(confirm.equivalent());
  }

  // With the pre-pass disabled the stats stay zero and results agree.
  formal::CecOptions off = opt;
  off.compiled_presim = false;
  const formal::CecResult eq2 = formal::check_equivalence(n, copy, nullptr, off);
  EXPECT_TRUE(eq2.equivalent());
  EXPECT_EQ(eq2.stats.presim_rounds, 0u);
  EXPECT_EQ(eq2.stats.presim_ops, 0u);
}

}  // namespace
}  // namespace scflow::hdlsim
