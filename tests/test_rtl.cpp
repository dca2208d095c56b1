// Tests for the RTL IR, builder, interpreter and optimisation passes.
#include <gtest/gtest.h>

#include <random>

#include "dtypes/bit_int.hpp"
#include "rtl/builder.hpp"
#include "rtl/interpreter.hpp"
#include "rtl/ir.hpp"
#include "rtl/passes.hpp"

namespace scflow::rtl {
namespace {

TEST(RtlIr, CounterCountsAndWraps) {
  DesignBuilder b("counter");
  auto cnt = b.reg("cnt", 4);
  b.assign_always(cnt, b.add(cnt.q, b.c(4, 1)));
  b.output("q", cnt.q);
  Design d = b.finalise();

  Interpreter it(d);
  for (int i = 0; i < 20; ++i) {
    it.evaluate();
    EXPECT_EQ(it.output("q"), static_cast<std::uint64_t>(i % 16));
    it.step();
  }
}

TEST(RtlIr, EnableGatesRegister) {
  DesignBuilder b("en");
  auto en = b.input("en", 1);
  auto r = b.reg("r", 8);
  b.assign(r, en, b.add(r.q, b.c(8, 1)));
  b.output("q", r.q);
  Design d = b.finalise();

  Interpreter it(d);
  it.set_input("en", 0);
  it.step();
  it.step();
  EXPECT_EQ(it.output("q"), 0u);
  it.set_input("en", 1);
  it.step();
  it.evaluate();
  EXPECT_EQ(it.output("q"), 1u);
}

TEST(RtlIr, LastAssignmentWins) {
  DesignBuilder b("prio");
  auto sel = b.input("sel", 1);
  auto r = b.reg("r", 8);
  b.assign_always(r, b.c(8, 5));
  b.assign(r, sel, b.c(8, 9));  // later assignment overrides when sel
  b.output("q", r.q);
  Design d = b.finalise();

  Interpreter it(d);
  it.set_input("sel", 0);
  it.step();
  it.evaluate();
  EXPECT_EQ(it.output("q"), 5u);
  it.set_input("sel", 1);
  it.step();
  it.evaluate();
  EXPECT_EQ(it.output("q"), 9u);
}

TEST(RtlIr, MemoryWriteThenRead) {
  DesignBuilder b("mem");
  auto we = b.input("we", 1);
  auto addr = b.input("addr", 4);
  auto data = b.input("data", 8);
  const int m = b.memory("ram", 4, 8);
  b.ram_write(m, addr, data, we);
  b.output("rd", b.ram_read(m, addr));
  Design d = b.finalise();

  Interpreter it(d);
  it.set_input("we", 1);
  it.set_input("addr", 3);
  it.set_input("data", 0xAB);
  it.evaluate();
  EXPECT_EQ(it.output("rd"), 0u);  // async read sees pre-write contents
  it.step();
  it.set_input("we", 0);
  it.evaluate();
  EXPECT_EQ(it.output("rd"), 0xABu);
}

TEST(RtlIr, RomReadAndSymmetryFoldLogic) {
  DesignBuilder b("rom");
  auto addr = b.input("a", 3);
  const int r = b.rom("tbl", 3, 8, {10, 20, 30, 40, 50, 60, 70, 80});
  b.output("d", b.rom_read(r, addr));
  Design d = b.finalise();

  Interpreter it(d);
  for (int a = 0; a < 8; ++a) {
    it.set_input("a", static_cast<std::uint64_t>(a));
    it.evaluate();
    EXPECT_EQ(it.output("d"), static_cast<std::uint64_t>((a + 1) * 10));
  }
}

TEST(RtlIr, SignedOpsMatchReference) {
  DesignBuilder b("signed");
  auto a = b.input("a", 8);
  auto x = b.input("x", 12);
  b.output("mul", b.mul(a, x, 20));
  b.output("sra", b.sra(a, 3));
  b.output("lts", b.lt_s(b.sext(a, 12), x));
  Design d = b.finalise();

  Interpreter it(d);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto av = static_cast<std::int64_t>(rng());
    const auto xv = static_cast<std::int64_t>(rng());
    const std::int64_t as = scflow::wrap_to_width(av, 8, true);
    const std::int64_t xs = scflow::wrap_to_width(xv, 12, true);
    it.set_input("a", static_cast<std::uint64_t>(as));
    it.set_input("x", static_cast<std::uint64_t>(xs));
    it.evaluate();
    EXPECT_EQ(it.output("mul"),
              static_cast<std::uint64_t>(as * xs) & bit_mask(20));
    EXPECT_EQ(static_cast<std::int64_t>(sign_extend(it.output("sra"), 8)), as >> 3);
    EXPECT_EQ(it.output("lts"), as < xs ? 1u : 0u);
  }
}

TEST(RtlIr, ValidateCatchesUnsetRegister) {
  Design d("bad");
  d.add_register("r", 4);
  EXPECT_THROW(d.validate(), std::logic_error);
}

TEST(RtlIr, ValidateCatchesWidthMismatch) {
  Design d("bad");
  const int r = d.add_register("r", 4);
  const NodeId c = d.constant(8, 3);
  d.set_register_next(r, c);
  EXPECT_THROW(d.validate(), std::logic_error);
}

TEST(RtlIr, StatsCountLiveArithmetic) {
  DesignBuilder b("stats");
  auto a = b.input("a", 16);
  auto m = b.mul(a, a, 32);
  b.output("o", b.add(m, m));
  auto dead = b.mul(a, b.c(16, 3), 32);  // dead: never used
  (void)dead;
  Design d = b.finalise();
  const auto s = d.stats();
  EXPECT_EQ(s.multipliers, 1u);
  EXPECT_EQ(s.adders, 1u);
}

// --- passes ---

TEST(RtlPasses, ConstantFoldingCollapsesConstantCones) {
  DesignBuilder b("fold");
  auto a = b.input("a", 16);
  auto k = b.add(b.c(16, 3), b.c(16, 4));       // folds to 7
  b.output("o", b.add(a, b.mul(k, b.c(16, 2), 16)));  // a + 14
  Design d = b.finalise();

  PassStats st;
  Design opt = run_passes(d, &st);
  EXPECT_GT(st.folded, 0u);
  Interpreter it(opt);
  it.set_input("a", 100);
  it.evaluate();
  EXPECT_EQ(it.output("o"), 114u);
}

TEST(RtlPasses, CseMergesIdenticalExpressions) {
  DesignBuilder b("cse");
  auto a = b.input("a", 16);
  auto x = b.add(a, b.c(16, 1));
  auto y = b.add(a, b.c(16, 1));  // structurally identical
  b.output("o", b.xor_(x, y));    // folds to 0 after CSE + x^x
  Design d = b.finalise();

  Design opt = run_passes(d);
  EXPECT_LT(opt.nodes().size(), d.nodes().size());
  Interpreter it(opt);
  it.set_input("a", 41);
  it.evaluate();
  EXPECT_EQ(it.output("o"), 0u);
}

TEST(RtlPasses, AddZeroIdentity) {
  DesignBuilder b("ident");
  auto a = b.input("a", 16);
  b.output("o", b.add(a, b.c(16, 0)));
  Design opt = run_passes(b.finalise());
  // Output should collapse to the input node directly.
  Interpreter it(opt);
  it.set_input("a", 1234);
  it.evaluate();
  EXPECT_EQ(it.output("o"), 1234u);
  std::size_t adders = 0;
  for (const auto& n : opt.nodes())
    if (n.op == Op::kAdd) ++adders;
  EXPECT_EQ(adders, 0u);
}

TEST(RtlPasses, PassesPreserveSequentialBehaviour) {
  // A small accumulating FSM, run with and without passes on random input.
  DesignBuilder b("acc");
  auto in = b.input("in", 8);
  auto en = b.input("en", 1);
  auto acc = b.reg("acc", 16);
  auto cnt = b.reg("cnt", 4);
  b.assign(acc, en, b.add(acc.q, b.sext(in, 16)));
  b.assign_always(cnt, b.add(cnt.q, b.c(4, 1)));
  // Mix in folding/CSE fodder.
  auto noise = b.add(b.c(16, 5), b.c(16, 6));
  b.output("sum", b.add(acc.q, b.sub(noise, b.c(16, 11))));
  b.output("cnt", cnt.q);
  Design d = b.finalise();

  Design opt = run_passes(d);

  Interpreter ref(d), fast(opt);
  std::mt19937_64 rng(99);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t iv = rng() & 0xff;
    const std::uint64_t ev = rng() & 1;
    ref.set_input("in", iv);
    ref.set_input("en", ev);
    fast.set_input("in", iv);
    fast.set_input("en", ev);
    ref.evaluate();
    fast.evaluate();
    ASSERT_EQ(ref.output("sum"), fast.output("sum")) << "cycle " << i;
    ASSERT_EQ(ref.output("cnt"), fast.output("cnt")) << "cycle " << i;
    ref.step();
    fast.step();
  }
}

TEST(RtlPasses, RomReadWithConstantAddressFolds) {
  DesignBuilder b("romfold");
  const int r = b.rom("tbl", 3, 8, {1, 2, 3, 4, 5, 6, 7, 8});
  b.output("o", b.rom_read(r, b.c(3, 5)));
  Design opt = run_passes(b.finalise());
  Interpreter it(opt);
  it.evaluate();
  EXPECT_EQ(it.output("o"), 6u);
  for (const auto& n : opt.nodes()) EXPECT_NE(n.op, Op::kRomRead);
}

}  // namespace
}  // namespace scflow::rtl
