// Unit suite for the formal subsystem: AIG structural hashing, the CDCL
// SAT solver (unit propagation, assumption cores, conflict learning,
// random 3-SAT differential vs brute force), and the CEC engine
// (opt/scan/lowering equivalence, injected-bug counterexamples with
// GateSim replay, and a netlist fuzz shard).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>

#include "formal/aig.hpp"
#include "formal/bitblast.hpp"
#include "formal/cec.hpp"
#include "formal/sat.hpp"
#include "netlist/lower.hpp"
#include "netlist/opt.hpp"
#include "obs/registry.hpp"
#include "rtl/builder.hpp"

namespace scflow::formal {
namespace {

// --------------------------------------------------------------------------
// AIG
// --------------------------------------------------------------------------

TEST(AigTest, ConstantFoldsAndHashing) {
  Aig g;
  const AigLit a = g.add_input();
  const AigLit b = g.add_input();
  EXPECT_EQ(g.and2(a, kAigFalse), kAigFalse);
  EXPECT_EQ(g.and2(kAigTrue, b), b);
  EXPECT_EQ(g.and2(a, a), a);
  EXPECT_EQ(g.and2(a, aig_not(a)), kAigFalse);
  const AigLit ab = g.and2(a, b);
  EXPECT_EQ(g.and2(b, a), ab);  // canonical fanin order shares the node
  const std::size_t before = g.node_count();
  EXPECT_EQ(g.and2(a, b), ab);
  EXPECT_EQ(g.node_count(), before);
  EXPECT_EQ(g.xor2(a, a), kAigFalse);
  EXPECT_EQ(g.xnor2(a, a), kAigTrue);
  EXPECT_EQ(g.ite(kAigFalse, a, b), b);
  EXPECT_EQ(g.ite(kAigTrue, a, b), a);
}

TEST(AigTest, SimulateMatchesSemantics) {
  Aig g;
  const AigLit a = g.add_input();
  const AigLit b = g.add_input();
  const AigLit x = g.xor2(a, b);
  std::vector<std::uint64_t> in = {0b1100u, 0b1010u};
  std::vector<std::uint64_t> words;
  g.simulate(in, words);
  const std::uint64_t xw = words[aig_node(x)] ^ (aig_phase(x) ? ~0ull : 0ull);
  EXPECT_EQ(xw & 0xfu, 0b0110u);
}

// --------------------------------------------------------------------------
// SAT solver
// --------------------------------------------------------------------------

TEST(SatTest, UnitPropagationChains) {
  sat::Solver s;
  const sat::Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause({sat::mk_lit(a, true), sat::mk_lit(b)});   // a -> b
  s.add_clause({sat::mk_lit(b, true), sat::mk_lit(c)});   // b -> c
  ASSERT_EQ(s.solve({sat::mk_lit(a)}), sat::Result::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_TRUE(s.model_value(c));
  EXPECT_GE(s.stats().propagations, 2u);
}

TEST(SatTest, RootLevelUnsat) {
  sat::Solver s;
  const sat::Var x = s.new_var();
  s.add_clause({sat::mk_lit(x)});
  EXPECT_FALSE(s.add_clause({sat::mk_lit(x, true)}));
  EXPECT_EQ(s.solve(), sat::Result::kUnsat);
  EXPECT_FALSE(s.okay());
}

TEST(SatTest, FailedAssumptionCore) {
  sat::Solver s;
  const sat::Var x = s.new_var(), y = s.new_var();
  s.add_clause({sat::mk_lit(x)});
  s.add_clause({sat::mk_lit(x, true), sat::mk_lit(y)});  // x -> y
  ASSERT_EQ(s.solve({sat::mk_lit(y, true)}), sat::Result::kUnsat);
  ASSERT_EQ(s.failed_assumptions().size(), 1u);
  EXPECT_EQ(s.failed_assumptions()[0], sat::mk_lit(y, true));
  EXPECT_TRUE(s.okay());  // still usable without the assumption
  EXPECT_EQ(s.solve(), sat::Result::kSat);
}

TEST(SatTest, CoreExcludesIrrelevantAssumptions) {
  sat::Solver s;
  const sat::Var a = s.new_var(), b = s.new_var(), d = s.new_var();
  s.add_clause({sat::mk_lit(a, true), sat::mk_lit(b, true)});  // ¬a ∨ ¬b
  ASSERT_EQ(s.solve({sat::mk_lit(d), sat::mk_lit(a), sat::mk_lit(b)}),
            sat::Result::kUnsat);
  for (const sat::Lit l : s.failed_assumptions()) {
    EXPECT_NE(sat::lit_var(l), d) << "independent assumption in core";
  }
  EXPECT_GE(s.failed_assumptions().size(), 2u);
}

/// Pigeonhole principle: @p pigeons into @p holes, one clause per pigeon
/// ("sits somewhere") plus pairwise exclusion per hole.  UNSAT whenever
/// pigeons > holes, and requires genuine conflict learning.
void add_pigeonhole(sat::Solver& s, int pigeons, int holes) {
  std::vector<std::vector<sat::Var>> v(static_cast<std::size_t>(pigeons));
  for (auto& row : v) {
    row.resize(static_cast<std::size_t>(holes));
    for (auto& var : row) var = s.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> c;
    for (int h = 0; h < holes; ++h)
      c.push_back(sat::mk_lit(v[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]));
    s.add_clause(std::move(c));
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_clause({sat::mk_lit(v[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)], true),
                      sat::mk_lit(v[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)], true)});
}

TEST(SatTest, PigeonholeUnsatWithLearning) {
  sat::Solver s;
  add_pigeonhole(s, 5, 4);
  EXPECT_EQ(s.solve(), sat::Result::kUnsat);
  EXPECT_GT(s.stats().learned_clauses, 0u);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(SatTest, ConflictBudgetReturnsUnknown) {
  sat::Solver s;
  add_pigeonhole(s, 7, 6);
  EXPECT_EQ(s.solve({}, 1), sat::Result::kUnknown);
  EXPECT_TRUE(s.okay());
  EXPECT_EQ(s.solve(), sat::Result::kUnsat);  // solvable once unbounded
}

TEST(SatTest, RandomThreeSatDifferentialVsBruteForce) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int inst = 0; inst < 60; ++inst) {
    const int n_vars = 4 + static_cast<int>(rng() % 11);  // 4..14
    const int n_clauses = static_cast<int>(static_cast<double>(n_vars) * 4.3);
    std::vector<std::vector<sat::Lit>> clauses;
    for (int c = 0; c < n_clauses; ++c) {
      std::vector<sat::Lit> cl;
      for (int k = 0; k < 3; ++k) {
        const auto v = static_cast<sat::Var>(rng() % static_cast<std::uint64_t>(n_vars));
        cl.push_back(sat::mk_lit(v, (rng() & 1) != 0));
      }
      clauses.push_back(std::move(cl));
    }
    // Brute force.
    bool brute_sat = false;
    for (std::uint64_t m = 0; m < (1ull << n_vars) && !brute_sat; ++m) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (const sat::Lit l : cl)
          any |= (((m >> sat::lit_var(l)) & 1u) != 0) != sat::lit_sign(l);
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    // Solver.
    sat::Solver s;
    for (int v = 0; v < n_vars; ++v) (void)s.new_var();
    bool ok = true;
    for (const auto& cl : clauses) ok = s.add_clause(cl) && ok;
    const sat::Result r = ok ? s.solve() : sat::Result::kUnsat;
    ASSERT_EQ(r == sat::Result::kSat, brute_sat) << "instance " << inst;
    if (r == sat::Result::kSat) {
      // The model must actually satisfy every clause.
      for (const auto& cl : clauses) {
        bool any = false;
        for (const sat::Lit l : cl)
          any |= s.model_value(sat::lit_var(l)) != sat::lit_sign(l);
        EXPECT_TRUE(any) << "instance " << inst;
      }
    }
  }
}

// --------------------------------------------------------------------------
// CEC
// --------------------------------------------------------------------------

rtl::Design small_design() {
  rtl::DesignBuilder b("small");
  auto x = b.input("x", 8);
  auto y = b.input("y", 8);
  auto acc = b.reg("acc", 12, 3);
  b.assign_always(acc, b.add(acc.q, b.sext(b.mul(x, y, 12), 12)));
  b.output("acc", acc.q);
  b.output("lt", b.lt_s(x, y));
  return b.finalise();
}

TEST(CecTest, OptimisedNetlistEquivalentToUnoptimised) {
  const rtl::Design d = small_design();
  const nl::Netlist gates = nl::lower_to_gates(d);
  const nl::Netlist opt = nl::optimize_gates(gates);
  obs::Registry reg;
  CecOptions o;
  o.metric_prefix = "t.cec";
  const CecResult res = check_equivalence(gates, opt, &reg, o);
  EXPECT_EQ(res.status, CecStatus::kEquivalent);
  EXPECT_GT(res.stats.compare_bits, 0u);
  EXPECT_EQ(reg.gauge("t.cec.equivalent"), 1.0);
  EXPECT_EQ(reg.counter("t.cec.counterexamples"), 0u);
  EXPECT_NE(reg.timer("t.cec"), nullptr);
}

TEST(CecTest, RtlVsLoweredNetlistIsStructurallyFree) {
  const rtl::Design d = small_design();
  const nl::Netlist gates = nl::lower_to_gates(d);
  const CecResult res = check_rtl_vs_netlist(d, gates);
  EXPECT_EQ(res.status, CecStatus::kEquivalent);
  // The RTL bitblaster mirrors the lowerer gate-for-gate, so hashing
  // collapses the whole miter without a single SAT call.
  EXPECT_EQ(res.stats.sat_calls, 0u);
  EXPECT_EQ(res.stats.bits_structural, res.stats.compare_bits);
}

TEST(CecTest, RtlVsOptimisedNetlist) {
  const rtl::Design d = small_design();
  nl::Netlist gates = nl::lower_to_gates(d);
  gates = nl::optimize_gates(gates);
  const CecResult res = check_rtl_vs_netlist(d, gates);
  EXPECT_EQ(res.status, CecStatus::kEquivalent);
}

TEST(CecTest, ScanInsertionEquivalentModuloScanPorts) {
  const rtl::Design d = small_design();
  const nl::Netlist pre = nl::optimize_gates(nl::lower_to_gates(d));
  nl::Netlist post = pre;
  nl::insert_scan_chain(post);
  const CecResult res = check_equivalence(pre, post, nullptr, CecOptions::scan_modulo());
  EXPECT_EQ(res.status, CecStatus::kEquivalent);
}

/// Flips the first 2-input AND (with distinct inputs) into an OR — the
/// ISSUE's canonical injected miscompile.
bool inject_and_to_or(nl::Netlist& n) {
  for (nl::Cell& c : n.cells_mut()) {
    if (c.type == nl::CellType::kAnd2 && c.inputs[0] != c.inputs[1]) {
      c.type = nl::CellType::kOr2;
      return true;
    }
  }
  return false;
}

TEST(CecTest, InjectedBugYieldsReplayedCounterexample) {
  rtl::DesignBuilder b("bug");
  auto x = b.input("x", 6);
  auto y = b.input("y", 6);
  b.output("o", b.and_(x, y));
  const nl::Netlist good = nl::lower_to_gates(b.finalise());
  nl::Netlist bad = good;
  ASSERT_TRUE(inject_and_to_or(bad));

  const CecResult res = check_equivalence(good, bad);
  ASSERT_EQ(res.status, CecStatus::kNotEquivalent);
  ASSERT_TRUE(res.cex.has_value());
  EXPECT_FALSE(res.cex->divergent_output.empty());
  EXPECT_NE(res.cex->value_a, res.cex->value_b);
  // The counterexample must reproduce end-to-end through GateSim.
  EXPECT_TRUE(res.cex->replayed);
  EXPECT_TRUE(res.cex->replay_confirmed);
}

TEST(CecTest, InjectedSequentialBugCaughtInNextStateCone) {
  const rtl::Design d = small_design();
  const nl::Netlist good = nl::optimize_gates(nl::lower_to_gates(d));
  nl::Netlist bad = good;
  ASSERT_TRUE(inject_and_to_or(bad));
  const CecResult res = check_equivalence(good, bad);
  ASSERT_EQ(res.status, CecStatus::kNotEquivalent);
  ASSERT_TRUE(res.cex.has_value());
  EXPECT_TRUE(res.cex->replay_confirmed);
}

TEST(CecTest, SingleMintermBugRefutedBySatModel) {
  // The sides differ only at x == K, one minterm of a 32-bit input: the
  // 256 random patterns miss it, so the SAT model must supply the vector.
  constexpr std::int64_t kMinterm = 0x5eedbeef;
  const auto build = [](bool bugged) {
    rtl::DesignBuilder b("minterm");
    auto x = b.input("x", 32);
    auto y = b.input("y", 32);
    auto o = b.lt_u(x, y);
    if (bugged) o = b.xor_(o, b.eq(x, b.c(32, kMinterm)));
    b.output("o", o);
    return nl::lower_to_gates(b.finalise());
  };
  const CecResult res = check_equivalence(build(false), build(true));
  ASSERT_EQ(res.status, CecStatus::kNotEquivalent);
  EXPECT_GT(res.stats.sat_calls, 0u);
  ASSERT_TRUE(res.cex.has_value());
  EXPECT_EQ(res.cex->divergent_output, "o");
  bool saw_x = false;
  for (const CecInputAssignment& in : res.cex->inputs) {
    if (in.name != "x") continue;
    saw_x = true;
    EXPECT_EQ(in.value, static_cast<std::uint64_t>(kMinterm));
  }
  EXPECT_TRUE(saw_x);
  EXPECT_TRUE(res.cex->replayed);
  EXPECT_TRUE(res.cex->replay_confirmed);
}

TEST(CecTest, AssertEquivalentThrowsWithDivergentNetAndVcd) {
  rtl::DesignBuilder b("thr");
  auto x = b.input("x", 4);
  auto y = b.input("y", 4);
  b.output("prod", b.mul(x, y, 8));
  const nl::Netlist good = nl::lower_to_gates(b.finalise());
  nl::Netlist bad = good;
  ASSERT_TRUE(inject_and_to_or(bad));

  const std::string vcd_path = "cec_cex_test.vcd";
  std::remove(vcd_path.c_str());
  try {
    assert_equivalent(good, bad, nullptr, {}, vcd_path);
    FAIL() << "expected EquivalenceError";
  } catch (const EquivalenceError& e) {
    const std::string what = e.what();
    ASSERT_TRUE(e.result.cex.has_value());
    EXPECT_NE(what.find(e.result.cex->divergent_output), std::string::npos) << what;
    EXPECT_NE(what.find(vcd_path), std::string::npos) << what;
  }
  std::ifstream vcd(vcd_path);
  ASSERT_TRUE(vcd.good());
  std::string contents((std::istreambuf_iterator<char>(vcd)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(contents.find("$var"), std::string::npos);
  // The dump must name the divergent output (both sides, VCD-sanitised)
  // and carry the counterexample input vectors — a waveform that cannot be
  // traced back to the offending net is useless for triage.
  EXPECT_NE(contents.find("a_prod"), std::string::npos) << contents;
  EXPECT_NE(contents.find("b_prod"), std::string::npos) << contents;
  EXPECT_NE(contents.find(" x "), std::string::npos) << contents;
  EXPECT_NE(contents.find(" y "), std::string::npos) << contents;
  std::remove(vcd_path.c_str());
}

TEST(CecTest, CombViewExposesStateAndNextPorts) {
  const rtl::Design d = small_design();
  const nl::Netlist gates = nl::lower_to_gates(d);
  const nl::Netlist view = comb_view(gates);
  EXPECT_NE(view.find_input("state:acc_q0"), nullptr);
  EXPECT_NE(view.find_output("next:acc_q0"), nullptr);
  for (const nl::Cell& c : view.cells()) {
    EXPECT_FALSE(nl::cell_is_sequential(c.type));
  }
}

// --------------------------------------------------------------------------
// Fuzz shard: random gate netlists -> optimize_gates -> CEC pre/post.
// --------------------------------------------------------------------------

/// Random acyclic-combinational netlist with named flops (feedback wired
/// through the whole pool afterwards, as sequential edges may point
/// anywhere).
nl::Netlist random_named_netlist(std::mt19937_64& rng) {
  auto rnd = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  nl::Netlist n("cecfuzz");
  std::vector<nl::NetId> pool;
  const int n_inputs = rnd(1, 3);
  for (int i = 0; i < n_inputs; ++i) {
    std::vector<nl::NetId> nets;
    const int w = rnd(1, 8);
    for (int bit = 0; bit < w; ++bit) nets.push_back(n.new_net());
    pool.insert(pool.end(), nets.begin(), nets.end());
    n.add_input("in" + std::to_string(i), std::move(nets));
  }
  pool.push_back(n.const_net(false));
  pool.push_back(n.const_net(true));
  auto pick = [&]() {
    return pool[static_cast<std::size_t>(rnd(0, static_cast<int>(pool.size()) - 1))];
  };

  std::vector<std::size_t> flop_cells;
  const int n_flops = rnd(0, 6);
  for (int f = 0; f < n_flops; ++f) {
    flop_cells.push_back(n.cells().size());
    const nl::NetId q =
        n.add_cell(nl::CellType::kDff, {pick()}, static_cast<int>(rng() & 1));
    n.cells_mut().back().name = "f" + std::to_string(f);
    pool.push_back(q);
  }

  static constexpr nl::CellType kComb[] = {
      nl::CellType::kBuf,  nl::CellType::kInv,   nl::CellType::kAnd2,
      nl::CellType::kOr2,  nl::CellType::kNand2, nl::CellType::kNor2,
      nl::CellType::kXor2, nl::CellType::kXnor2, nl::CellType::kMux2,
  };
  const int n_cells = rnd(10, 80);
  for (int i = 0; i < n_cells; ++i) {
    const nl::CellType t = kComb[static_cast<std::size_t>(rnd(0, 8))];
    std::vector<nl::NetId> ins;
    for (int k = 0; k < nl::cell_input_count(t); ++k) ins.push_back(pick());
    pool.push_back(n.add_cell(t, std::move(ins)));
  }
  for (const std::size_t ci : flop_cells)
    for (nl::NetId& in : n.cells_mut()[ci].inputs) in = pick();

  const int n_outs = rnd(1, 3);
  for (int o = 0; o < n_outs; ++o) {
    std::vector<nl::NetId> nets;
    const int w = rnd(1, 6);
    for (int bit = 0; bit < w; ++bit) nets.push_back(pick());
    n.add_output("out" + std::to_string(o), std::move(nets));
  }
  return n;
}

class CecFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CecFuzz, OptPassEquivalentOnRandomNetlists) {
  constexpr int kSeedsPerShard = 25;
  for (int s = 0; s < kSeedsPerShard; ++s) {
    const unsigned seed = 0xCEC0000u + static_cast<unsigned>(GetParam() * kSeedsPerShard + s);
    std::mt19937_64 rng(seed);
    const nl::Netlist pre = random_named_netlist(rng);
    const nl::Netlist post = nl::optimize_gates(pre);
    const CecResult res = check_equivalence(pre, post);
    ASSERT_EQ(res.status, CecStatus::kEquivalent)
        << "seed " << seed
        << (res.cex ? " divergent " + res.cex->divergent_output : "");
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, CecFuzz, ::testing::Range(0, 4));

TEST(CecFuzzRtl, LoweredAndOptimisedRandomDesigns) {
  std::mt19937_64 rng(0xCEC'F00D);
  auto rnd = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  for (int iter = 0; iter < 10; ++iter) {
    rtl::DesignBuilder b("rfz" + std::to_string(iter));
    std::vector<rtl::Sig> pool;
    for (int i = 0; i < 3; ++i)
      pool.push_back(b.input("in" + std::to_string(i), rnd(1, 12)));
    auto r0 = b.reg("r0", rnd(2, 10), rnd(0, 7));
    pool.push_back(r0.q);
    for (int i = 0; i < 10; ++i) {
      const int w = rnd(1, 12);
      auto pick = [&]() {
        return pool[static_cast<std::size_t>(rnd(0, static_cast<int>(pool.size()) - 1))];
      };
      switch (rnd(0, 4)) {
        case 0: pool.push_back(b.add(b.resize_s(pick(), w), b.resize_s(pick(), w))); break;
        case 1: pool.push_back(b.xor_(b.resize_u(pick(), w), b.resize_u(pick(), w))); break;
        case 2: pool.push_back(b.mul(b.resize_s(pick(), rnd(1, 6)), b.resize_s(pick(), rnd(1, 6)), w)); break;
        case 3: pool.push_back(b.zext(b.lt_u(b.resize_u(pick(), w), b.resize_u(pick(), w)), rnd(1, 3))); break;
        default: pool.push_back(b.mux(b.resize_u(pick(), 1), b.resize_u(pick(), w), b.resize_u(pick(), w))); break;
      }
    }
    b.assign(r0, b.resize_u(pool.back(), 1), b.resize_s(pool[pool.size() - 2], r0.q.width));
    b.output("o", pool.back());
    const rtl::Design d = b.finalise();

    const nl::Netlist gates = nl::lower_to_gates(d);
    const nl::Netlist opt = nl::optimize_gates(gates);
    ASSERT_EQ(check_rtl_vs_netlist(d, gates).status, CecStatus::kEquivalent)
        << "iter " << iter;
    const CecResult res = check_equivalence(gates, opt);
    ASSERT_EQ(res.status, CecStatus::kEquivalent)
        << "iter " << iter
        << (res.cex ? " divergent " + res.cex->divergent_output : "");
  }
}

}  // namespace
}  // namespace scflow::formal
