// Tests for the gate-level substrate: cell library, lowering correctness
// (adders/multipliers/comparators vs word-level reference), logic
// optimisation and scan insertion.
#include <gtest/gtest.h>

#include <random>

#include "dtypes/bit_int.hpp"
#include "formal/cec.hpp"
#include "netlist/lower.hpp"
#include "netlist/netlist.hpp"
#include "netlist/opt.hpp"
#include "hdlsim/gate_sim.hpp"
#include "rtl/builder.hpp"

namespace scflow::nl {
namespace {

TEST(CellLibrary, SequentialCostsMoreThanCombinational) {
  EXPECT_GT(CellLibrary::area(CellType::kDff), CellLibrary::area(CellType::kNand2));
  EXPECT_GT(CellLibrary::area(CellType::kSdff), CellLibrary::area(CellType::kDff));
  EXPECT_EQ(cell_input_count(CellType::kMux2), 3);
  EXPECT_TRUE(cell_is_sequential(CellType::kSdff));
  EXPECT_FALSE(cell_is_sequential(CellType::kXor2));
}

TEST(NetlistIr, ValidateCatchesUndrivenNets) {
  Netlist n("bad");
  const NetId floating = n.new_net();
  n.add_cell(CellType::kInv, {floating});
  EXPECT_THROW(n.validate(), std::logic_error);
}

/// Helper: lower a design, simulate it with GateSim and compare against
/// the rtl::Interpreter-style reference for random inputs.
struct GateHarness {
  explicit GateHarness(const rtl::Design& d, bool optimize = false)
      : netlist(lower_to_gates(d)) {
    if (optimize) netlist = optimize_gates(netlist);
    sim = std::make_unique<hdlsim::GateSim>(netlist);
  }
  Netlist netlist;
  std::unique_ptr<hdlsim::GateSim> sim;
};

TEST(Lowering, AdderMatchesReference) {
  rtl::DesignBuilder b("add16");
  auto x = b.input("x", 16);
  auto y = b.input("y", 16);
  b.output("sum", b.add(x, y));
  const rtl::Design d = b.finalise();
  GateHarness h(d);
  std::mt19937_64 rng(1);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t xv = rng() & 0xffff, yv = rng() & 0xffff;
    h.sim->set_input("x", xv);
    h.sim->set_input("y", yv);
    h.sim->settle();
    ASSERT_EQ(h.sim->output("sum"), (xv + yv) & 0xffff);
  }
}

class LoweringMultiply : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LoweringMultiply, SignedMultiplierMatchesReference) {
  const auto [aw, bw] = GetParam();
  rtl::DesignBuilder b("mul");
  auto x = b.input("x", aw);
  auto y = b.input("y", bw);
  b.output("p", b.mul(x, y, aw + bw));
  GateHarness h(b.finalise());
  std::mt19937_64 rng(7 * aw + bw);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t xv = scflow::wrap_to_width(static_cast<std::int64_t>(rng()), aw, true);
    const std::int64_t yv = scflow::wrap_to_width(static_cast<std::int64_t>(rng()), bw, true);
    h.sim->set_input("x", static_cast<std::uint64_t>(xv) & scflow::bit_mask(aw));
    h.sim->set_input("y", static_cast<std::uint64_t>(yv) & scflow::bit_mask(bw));
    h.sim->settle();
    ASSERT_EQ(h.sim->output("p"), static_cast<std::uint64_t>(xv * yv) & scflow::bit_mask(aw + bw))
        << xv << " * " << yv;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LoweringMultiply,
                         ::testing::Values(std::make_tuple(4, 4),
                                           std::make_tuple(8, 5),
                                           std::make_tuple(16, 17),
                                           std::make_tuple(11, 17)));

TEST(Lowering, ComparatorsAndMuxMatchReference) {
  rtl::DesignBuilder b("cmp");
  auto x = b.input("x", 12);
  auto y = b.input("y", 12);
  b.output("ltu", b.lt_u(x, y));
  b.output("lts", b.lt_s(x, y));
  b.output("eq", b.eq(x, y));
  b.output("mx", b.select(b.lt_u(x, y), x, y));
  GateHarness h(b.finalise());
  std::mt19937_64 rng(3);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t xv = rng() & 0xfff, yv = rng() & 0xfff;
    h.sim->set_input("x", xv);
    h.sim->set_input("y", yv);
    h.sim->settle();
    ASSERT_EQ(h.sim->output("ltu"), xv < yv ? 1u : 0u);
    ASSERT_EQ(h.sim->output("lts"),
              scflow::sign_extend(xv, 12) < scflow::sign_extend(yv, 12) ? 1u : 0u);
    ASSERT_EQ(h.sim->output("eq"), xv == yv ? 1u : 0u);
    ASSERT_EQ(h.sim->output("mx"), xv < yv ? xv : yv);
  }
}

TEST(Lowering, SequentialCounterWorksAtGateLevel) {
  rtl::DesignBuilder b("cnt");
  auto en = b.input("en", 1);
  auto cnt = b.reg("cnt", 8, 5);
  b.assign(cnt, en, b.add(cnt.q, b.c(8, 1)));
  b.output("q", cnt.q);
  GateHarness h(b.finalise());
  h.sim->set_input("en", 1);
  h.sim->settle();
  EXPECT_EQ(h.sim->output("q"), 5u);  // reset/init value
  for (int i = 0; i < 10; ++i) h.sim->step();
  EXPECT_EQ(h.sim->output("q"), 15u);
  h.sim->set_input("en", 0);
  h.sim->step();
  h.sim->step();
  EXPECT_EQ(h.sim->output("q"), 15u);
}

TEST(Lowering, XPropagatesFromXInput) {
  rtl::DesignBuilder b("xprop");
  auto x = b.input("x", 4);
  auto y = b.input("y", 4);
  b.output("s", b.add(x, y));
  b.output("masked", b.and_(x, b.c(4, 0)));  // 0 dominates X
  GateHarness h(b.finalise(), true);
  h.sim->set_input("y", 3);
  h.sim->set_input_x("x");
  h.sim->settle();
  EXPECT_FALSE(h.sim->output_bits("s").is_fully_defined());
  EXPECT_THROW((void)h.sim->output("s"), std::runtime_error);
  EXPECT_EQ(h.sim->output("masked"), 0u);  // constant-0 AND absorbs X
}

TEST(GateOpt, FoldsConstantsAndDedupes) {
  rtl::DesignBuilder b("fold");
  auto x = b.input("x", 8);
  auto a = b.add(x, b.c(8, 0));           // identity at word level is kept
  auto m1 = b.and_(x, b.c(8, 0xff));      // AND with all-ones
  b.output("o1", a);
  b.output("o2", m1);
  b.output("o3", b.add(x, b.c(8, 0)));    // duplicate logic
  // Lower *without* word-level passes so the gate optimiser has work.
  Netlist n = lower_to_gates(b.finalise());
  GateOptStats stats;
  const Netlist opt = optimize_gates(n, &stats);
  EXPECT_LT(opt.cells().size(), n.cells().size());
  EXPECT_GT(stats.rewrites, 0u);

  // The pass is *proven* behaviour-preserving by CEC; the simulation below
  // stays as a smoke check of the optimised netlist under GateSim.
  EXPECT_TRUE(formal::check_equivalence(n, opt).equivalent());

  hdlsim::GateSim sim(opt);
  sim.set_input("x", 0x5a);
  sim.settle();
  EXPECT_EQ(sim.output("o1"), 0x5au);
  EXPECT_EQ(sim.output("o2"), 0x5au);
  EXPECT_EQ(sim.output("o3"), 0x5au);
}

TEST(GateOpt, PreservesSequentialBehaviour) {
  rtl::DesignBuilder b("seq");
  auto in = b.input("in", 8);
  auto acc = b.reg("acc", 16);
  b.assign_always(acc, b.add(acc.q, b.sext(in, 16)));
  b.output("acc", acc.q);
  const rtl::Design d = b.finalise();
  GateHarness plain(d, false), opt(d, true);
  // Full equivalence proof over the flop boundary (every next-state and
  // output cone); the lockstep simulation below stays as a smoke tier.
  EXPECT_TRUE(formal::check_equivalence(plain.netlist, opt.netlist).equivalent());
  std::mt19937_64 rng(11);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = rng() & 0xff;
    plain.sim->set_input("in", v);
    opt.sim->set_input("in", v);
    plain.sim->step();
    opt.sim->step();
    plain.sim->settle();
    opt.sim->settle();
    ASSERT_EQ(plain.sim->output("acc"), opt.sim->output("acc"));
  }
}

TEST(ScanChain, ReplacesFlopsAndShiftsData) {
  rtl::DesignBuilder b("scan");
  auto d_in = b.input("d", 1);
  auto r1 = b.reg("r1", 1);
  auto r2 = b.reg("r2", 1);
  b.assign_always(r1, d_in);
  b.assign_always(r2, r1.q);
  b.output("q", r2.q);
  Netlist n = lower_to_gates(b.finalise());
  const Netlist pre_scan = n;
  insert_scan_chain(n);
  // Scan insertion proven equivalent modulo the scan ports.
  EXPECT_TRUE(formal::check_equivalence(pre_scan, n, nullptr,
                                        formal::CecOptions::scan_modulo())
                  .equivalent());

  std::size_t sdffs = 0, dffs = 0;
  for (const auto& c : n.cells()) {
    if (c.type == CellType::kSdff) ++sdffs;
    if (c.type == CellType::kDff) ++dffs;
  }
  EXPECT_EQ(sdffs, 2u);
  EXPECT_EQ(dffs, 0u);

  // Shift a pattern through the chain in scan mode.
  hdlsim::GateSim sim(n);
  sim.set_input("d", 0);
  sim.set_input("scan_enable", 1);
  sim.set_input("scan_in", 1);
  sim.step();
  sim.set_input("scan_in", 0);
  sim.step();
  sim.settle();
  // After two shifts the first 1 reached the end of the 2-flop chain.
  EXPECT_EQ(sim.output("scan_out"), 1u);
}

TEST(AreaReportTest, SplitsCombinationalAndSequential) {
  rtl::DesignBuilder b("area");
  auto x = b.input("x", 8);
  auto r = b.reg("r", 8);
  b.assign_always(r, b.add(x, r.q));
  b.output("o", r.q);
  const Netlist n = lower_to_gates(b.finalise());
  const AreaReport rep = report_area(n);
  EXPECT_EQ(rep.flop_count, 8u);
  EXPECT_GT(rep.combinational, 0.0);
  EXPECT_NEAR(rep.sequential, 8 * CellLibrary::area(CellType::kDff), 1e-9);
  EXPECT_GT(rep.total(), rep.combinational);
}

TEST(AreaReportTest, MacrosAreExcluded) {
  rtl::DesignBuilder b("macro_area");
  auto addr = b.input("a", 4);
  const int mem = b.memory("ram", 4, 8);
  b.ram_write(mem, addr, b.c(8, 0), b.c(1, 0));
  b.output("d", b.ram_read(mem, addr));
  const Netlist n = lower_to_gates(b.finalise());
  // Only the TIE cells and read-enable plumbing appear; the RAM itself
  // contributes no area.
  const AreaReport rep = report_area(n);
  EXPECT_LT(rep.total(), 100.0);
  EXPECT_EQ(n.macros.size(), 1u);
}

}  // namespace
}  // namespace scflow::nl
