// Verifies the synthesisable SRC architectures (RTL IR) against the
// quantised golden model — the "RTL SystemC vs golden" leg of the paper's
// refinement verification — and checks the architectural knobs that drive
// the Fig. 10 area differences.
#include <gtest/gtest.h>

#include <ostream>

#include "core/run.hpp"
#include "dsp/stimulus.hpp"
#include "rtl/passes.hpp"
#include "rtl/src_design.hpp"
#include "rtl/src_sim.hpp"

namespace scflow::rtl {
namespace {

using dsp::SrcEvent;
using dsp::SrcMode;
using P = dsp::SrcParams;

std::vector<SrcEvent> schedule(SrcMode mode, std::size_t n, std::uint64_t seed) {
  const auto inputs = dsp::make_noise_stimulus(n, seed);
  return dsp::make_schedule(inputs, P::input_period_ps(mode), n, P::output_period_ps(mode));
}

std::vector<dsp::StereoSample> golden(SrcMode mode, const std::vector<SrcEvent>& ev,
                                      bool bug = false) {
  model::RunOptions opt;
  opt.quantized_time = true;
  opt.inject_corner_bug = bug;
  return model::run_level(model::RefinementLevel::kAlgorithmicCpp, mode, ev, opt).outputs;
}

TEST(SrcDesigns, AllConfigsValidate) {
  for (const auto& cfg : {rtl_opt_config(), rtl_unopt_config(), vhdl_ref_config()}) {
    const Design d = build_src_design(cfg);
    EXPECT_GT(d.nodes().size(), 200u) << cfg.name;
    EXPECT_GT(d.registers().size(), 20u) << cfg.name;
  }
}

TEST(SrcDesigns, RegisterBitsReflectArchitecture) {
  const auto opt = build_src_design(rtl_opt_config()).stats();
  const auto unopt = build_src_design(rtl_unopt_config()).stats();
  const auto ref = build_src_design(vhdl_ref_config()).stats();
  // The conservative RTL keeps removable registers; the C-spec reference
  // architecture carries 32-bit index registers and split accumulators.
  EXPECT_GT(unopt.register_bits, opt.register_bits);
  EXPECT_GT(ref.register_bits, unopt.register_bits);
}

struct SrcCase {
  const char* which;
  SrcMode mode;
};

// Names the case in test listings (the default would print the raw bytes,
// the architecture pointer included, which changes from run to run).
void PrintTo(const SrcCase& c, std::ostream* os) {
  const char* mode = "";
  switch (c.mode) {
    case SrcMode::k44_1To48: mode = "44_1To48"; break;
    case SrcMode::k48To44_1: mode = "48To44_1"; break;
    case SrcMode::k48To48: mode = "48To48"; break;
    case SrcMode::k32To48: mode = "32To48"; break;
  }
  *os << c.which << '_' << mode;
}

class SrcDesignEquivalence : public ::testing::TestWithParam<SrcCase> {};

TEST_P(SrcDesignEquivalence, MatchesQuantisedGolden) {
  const auto [which, mode] = GetParam();
  SrcArchConfig cfg;
  if (std::string(which) == "rtl_opt") cfg = rtl_opt_config();
  else if (std::string(which) == "rtl_unopt") cfg = rtl_unopt_config();
  else cfg = vhdl_ref_config();

  const auto ev = schedule(mode, 260, 17);
  const auto want = golden(mode, ev);
  const Design d = build_src_design(cfg);
  const auto got = run_src_design(d, mode, ev);
  ASSERT_EQ(got.outputs.size(), want.size()) << cfg.name;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got.outputs[i], want[i]) << cfg.name << " output " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, SrcDesignEquivalence,
    ::testing::Values(SrcCase{"rtl_opt", SrcMode::k44_1To48},
                      SrcCase{"rtl_opt", SrcMode::k48To44_1},
                      SrcCase{"rtl_opt", SrcMode::k48To48},
                      SrcCase{"rtl_unopt", SrcMode::k44_1To48},
                      SrcCase{"vhdl_ref", SrcMode::k44_1To48},
                      SrcCase{"vhdl_ref", SrcMode::k48To48}));

TEST(SrcDesigns, OptimisedDesignSurvivesPasses) {
  const auto ev = schedule(SrcMode::k44_1To48, 200, 3);
  const auto want = golden(SrcMode::k44_1To48, ev);
  const Design d = run_passes(build_src_design(rtl_opt_config()));
  const auto got = run_src_design(d, SrcMode::k44_1To48, ev);
  ASSERT_EQ(got.outputs.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got.outputs[i], want[i]);
}

TEST(SrcDesigns, CornerBugRefinesDownToTheIrDesign) {
  // Pass-through mode hits the mu == 0 corner; the bugged IR design must
  // match the bugged golden model (function-preserving refinement of a
  // bug, paper §4.7).
  SrcArchConfig cfg = rtl_opt_config();
  cfg.inject_corner_bug = true;
  const auto ev = schedule(SrcMode::k48To48, 260, 5);
  const auto want = golden(SrcMode::k48To48, ev, true);
  const auto want_clean = golden(SrcMode::k48To48, ev, false);
  const auto got = run_src_design(build_src_design(cfg), SrcMode::k48To48, ev);
  ASSERT_EQ(got.outputs.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got.outputs[i], want[i]);
  EXPECT_NE(want, want_clean) << "bug corner should actually trigger";
}

TEST(SrcDesigns, RamReadHookObservesMacTraffic) {
  const auto ev = schedule(SrcMode::k44_1To48, 120, 9);
  const Design d = build_src_design(rtl_opt_config());
  Interpreter it(d);
  std::uint64_t reads = 0;
  it.set_ram_read_hook([&reads](int, std::uint64_t) { ++reads; });
  run_src_design(d, SrcMode::k44_1To48, ev, &it);
  EXPECT_GT(reads, 0u);
}

}  // namespace
}  // namespace scflow::rtl
