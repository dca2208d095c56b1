// Tests for the DSP substrate: filter design, ROM symmetry, ring buffer,
// rate tracking, the restoring divider and the golden SRC model.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "dsp/divider.hpp"
#include "dsp/filter.hpp"
#include "dsp/filter_design.hpp"
#include "dsp/golden_src.hpp"
#include "dsp/input_buffer.hpp"
#include "dsp/polyphase.hpp"
#include "dsp/rate_tracker.hpp"
#include "dsp/stimulus.hpp"
#include "dsp/time_quantizer.hpp"

namespace scflow::dsp {
namespace {

using P = SrcParams;

TEST(FilterDesign, PrototypeIsSymmetricAndPeaksAtCentre) {
  const auto h = design_prototype(P::kProtoLen, P::kNumPhases);
  ASSERT_EQ(h.size(), static_cast<std::size_t>(P::kProtoLen));
  const int c = P::kProtoLen / 2;
  for (int i = 0; i < P::kProtoLen; ++i)
    EXPECT_NEAR(h[i], h[P::kProtoLen - 1 - i], 1e-12) << "asymmetry at " << i;
  for (int i = 0; i < P::kProtoLen; ++i) EXPECT_LE(std::abs(h[i]), std::abs(h[c]) + 1e-12);
}

TEST(FilterDesign, BranchGainsNearUnity) {
  const auto h = design_prototype(P::kProtoLen, P::kNumPhases);
  const auto half = quantise_prototype_half(h, P::kNumPhases);
  CoefficientRom rom(half);
  // Every polyphase branch's DC gain should be close to (and below) 1.0.
  for (int p = 0; p <= P::kNumPhases; ++p) {
    std::int64_t sum = 0;
    for (int k = 0; k < P::kTapsPerPhase; ++k) sum += rom.at(proto_index(p, k));
    EXPECT_LE(sum, 32768);
    EXPECT_GT(sum, 32768 * 0.8) << "branch " << p << " gain too low";
  }
}

TEST(FilterDesign, BesselI0Sanity) {
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-12);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658, 1e-6);
  EXPECT_NEAR(bessel_i0(5.0), 27.2398718, 1e-5);
}

TEST(CoefficientRomTest, MirrorsUpperHalf) {
  const auto rom = make_default_rom();
  for (int i = 0; i < P::kProtoLen; ++i)
    EXPECT_EQ(rom.at(i), rom.at(P::kProtoLen - 1 - i));
  EXPECT_EQ(rom.stored_half().size(), static_cast<std::size_t>(P::kProtoHalfLen));
}

TEST(CoefficientRomTest, RejectsWrongSize) {
  EXPECT_THROW(CoefficientRom(std::vector<std::int16_t>(5)), std::invalid_argument);
}

TEST(PolyphaseIterator, MatchesDirectInterpolation) {
  const auto rom = make_default_rom();
  PolyphaseFilter pf(rom);
  for (int phase : {0, 7, 31}) {
    for (int mu : {0, 1, 511, 1023}) {
      auto it = pf.coefficients(phase, mu);
      for (int k = 0; k < P::kTapsPerPhase; ++k, ++it)
        EXPECT_EQ(*it, interpolated_coeff(rom, phase, mu, k));
    }
  }
}

TEST(PolyphaseIterator, MuZeroIsBranchCoefficient) {
  const auto rom = make_default_rom();
  PolyphaseFilter pf(rom);
  auto it = pf.coefficients(12, 0);
  for (int k = 0; k < P::kTapsPerPhase; ++k, ++it)
    EXPECT_EQ(*it, rom.at(proto_index(12, k)));
}

TEST(InputBufferTest, WriteReadRoundtrip) {
  InputBuffer buf;
  auto w = buf.writer();
  for (int i = 0; i < 10; ++i) w.push(static_cast<std::int16_t>(i * 100));
  auto r = buf.reader_at_lag(0);
  EXPECT_EQ(*r, 900);
  --r;
  EXPECT_EQ(*r, 800);
}

TEST(InputBufferTest, ReadIteratorWrapsBelowZero) {
  InputBuffer buf;
  auto r = buf.reader_at_index(0);
  --r;  // wraps to top
  EXPECT_EQ(r.index(), static_cast<unsigned>(InputBuffer::kSize - 1));
  ++r;
  EXPECT_EQ(r.index(), 0u);
}

TEST(InputBufferTest, OverwriteAfterWrap) {
  InputBuffer buf;
  auto w = buf.writer();
  for (int i = 0; i < InputBuffer::kSize + 5; ++i) w.push(static_cast<std::int16_t>(i));
  EXPECT_EQ(buf.head(), static_cast<std::uint64_t>(InputBuffer::kSize + 5));
  EXPECT_EQ(*buf.reader_at_lag(0), InputBuffer::kSize + 4);
  // The slot that held sample 0 now holds sample kSize.
  EXPECT_EQ(*buf.reader_at_index(0), InputBuffer::kSize);
}

// Property: stepping a read iterator backwards N times from lag L lands on
// the sample written N+L positions before the newest, for any wrap state.
TEST(InputBufferTest, IteratorLagProperty) {
  InputBuffer buf;
  auto w = buf.writer();
  for (int i = 0; i < 200; ++i) {
    w.push(static_cast<std::int16_t>(i));
    if (i < InputBuffer::kSize) continue;
    for (unsigned lag : {0u, 1u, 7u, 31u, 63u}) {
      auto r = buf.reader_at_lag(lag);
      EXPECT_EQ(*r, static_cast<std::int16_t>(i - lag));
    }
  }
}

TEST(FilterAccumulate, ImpulseRecoversCoefficients) {
  const auto romv = make_default_rom();
  PolyphaseFilter pf(romv);
  InputBuffer buf;
  auto w = buf.writer();
  // Unit impulse at the newest sample: accumulator = c[0] * 1.
  for (int i = 0; i < 20; ++i) w.push(0);
  w.push(1 << 14);
  const std::int64_t acc = filter_accumulate(buf.reader_at_lag(0), pf.coefficients(5, 0));
  EXPECT_EQ(acc, static_cast<std::int64_t>(1 << 14) * romv.at(proto_index(5, 0)));
}

TEST(RoundSaturate, RoundingAndClipping) {
  EXPECT_EQ(round_saturate_output(0), 0);
  EXPECT_EQ(round_saturate_output(1ll << 15), 1);
  EXPECT_EQ(round_saturate_output((1ll << 14)), 1);      // rounds half up
  EXPECT_EQ(round_saturate_output((1ll << 14) - 1), 0);  // just below half
  EXPECT_EQ(round_saturate_output(-(1ll << 15)), -1);
  EXPECT_EQ(round_saturate_output(40000ll << 15), 32767);   // clips high
  EXPECT_EQ(round_saturate_output(-40000ll << 15), -32768); // clips low
}

TEST(RestoringDividerTest, MatchesIntegerDivision) {
  // Directed corners plus a sweep.
  EXPECT_EQ(RestoringDivider::divide(0, 1), 0u);
  EXPECT_EQ(RestoringDivider::divide(100, 7), 14u);
  EXPECT_EQ(RestoringDivider::divide(0xffffffffu, 1), 0xffffffffu);
  EXPECT_EQ(RestoringDivider::divide(0xffffffffu, 0xffff), 0xffffffffu / 0xffffu);
  std::uint64_t x = 0x1234abcd;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    const auto n = static_cast<std::uint32_t>(x);
    const auto d = static_cast<std::uint16_t>((x >> 32) | 1);
    EXPECT_EQ(RestoringDivider::divide(n, d), n / d);
  }
}

TEST(RestoringDividerTest, TakesExactly32Steps) {
  RestoringDivider d;
  d.start(1000, 3);
  int steps = 0;
  while (!d.done()) { d.step(); ++steps; }
  EXPECT_EQ(steps, 32);
  EXPECT_EQ(d.quotient(), 333u);
  EXPECT_EQ(d.remainder(), 1u);
  EXPECT_THROW(d.step(), std::logic_error);
}

TEST(RateTrackerTest, NominalIncrementBeforeWindows) {
  RateTracker t(SrcMode::k44_1To48, 0);
  EXPECT_EQ(t.increment(), P::nominal_increment(SrcMode::k44_1To48));
  EXPECT_FALSE(t.tracking());
}

TEST(RateTrackerTest, ConvergesToMeasuredRatio) {
  RateTracker t(SrcMode::k48To48, 1'600'000);  // wrong nominal on purpose
  // Feed 44.1k-ish inputs and 48k-ish outputs in ps.
  std::uint64_t tin = 0, tout = 0;
  for (int i = 0; i < 40; ++i) {
    tin += P::kPeriod44k1Ps;
    t.on_input(tin);
    tout += P::kPeriod48kPs;
    t.on_output(tout);
  }
  ASSERT_TRUE(t.tracking());
  const double ratio = static_cast<double>(t.increment()) / 32768.0;
  EXPECT_NEAR(ratio, 44100.0 / 48000.0, 0.001);
}

TEST(RateTrackerTest, DivideIncrementClamps) {
  EXPECT_EQ(RateTracker::divide_increment(1, 1'000'000), P::kIncMin);
  EXPECT_EQ(RateTracker::divide_increment(1'000'000, 1), P::kIncMax);
  EXPECT_EQ(RateTracker::divide_increment(0, 0), P::kIncMax);
  EXPECT_EQ(RateTracker::divide_increment(4, 2), 2ll << 15);
}

TEST(TimeQuantizerTest, CeilToEdges) {
  TimeQuantizer q(40'000);
  EXPECT_EQ(q.quantize_ps(1), 40'000u);
  EXPECT_EQ(q.quantize_ps(39'999), 40'000u);
  EXPECT_EQ(q.quantize_ps(40'000), 40'000u);  // on-edge observed at the edge
  EXPECT_EQ(q.quantize_ps(40'001), 80'000u);
  EXPECT_EQ(q.quantize_ps(0), 40'000u);       // nothing before the first edge
  EXPECT_EQ(q.quantize_cycles(40'001), 2u);
}

// ---- Golden model behaviour ----

std::vector<StereoSample> run_golden(AlgorithmicSrc& src, const std::vector<SrcEvent>& ev) {
  std::vector<StereoSample> out;
  for (const auto& e : ev) {
    if (e.is_input) src.push_input(e.t_ps, e.sample);
    else out.push_back(src.pull_output(e.t_ps));
  }
  return out;
}

TEST(GoldenSrc, StartupProducesSilenceThenAudio) {
  AlgorithmicSrc src(SrcMode::k44_1To48, AlgorithmicSrc::TimeBase::kContinuousPs);
  const auto inputs = make_sine_stimulus(400, 1000.0, 44100.0);
  const auto ev = make_schedule(inputs, P::kPeriod44k1Ps, 400, P::kPeriod48kPs);
  const auto out = run_golden(src, ev);
  ASSERT_EQ(out.size(), 400u);
  EXPECT_EQ(out[0], (StereoSample{0, 0}));  // before startup fill
  bool nonzero = false;
  for (const auto& s : out)
    if (s.left != 0) nonzero = true;
  EXPECT_TRUE(nonzero);
  EXPECT_TRUE(src.started());
}

TEST(GoldenSrc, ConvertsSineWithGoodSnr) {
  AlgorithmicSrc src(SrcMode::k44_1To48, AlgorithmicSrc::TimeBase::kContinuousPs);
  const auto inputs = make_sine_stimulus(4000, 1000.0, 44100.0);
  const auto ev = make_schedule(inputs, P::kPeriod44k1Ps, 4000, P::kPeriod48kPs);
  const auto out = run_golden(src, ev);
  // Skip the startup transient, measure the steady-state tone.
  std::vector<std::int16_t> tail;
  for (std::size_t i = 1000; i < out.size(); ++i) tail.push_back(out[i].left);
  const double snr = tone_snr_db(tail, 1000.0, 48000.0);
  EXPECT_GT(snr, 40.0) << "resampled tone too distorted";
}

TEST(GoldenSrc, PassthroughModeTracksUnity) {
  AlgorithmicSrc src(SrcMode::k48To48, AlgorithmicSrc::TimeBase::kContinuousPs);
  const auto inputs = make_noise_stimulus(2000, 99);
  const auto ev = make_schedule(inputs, P::kPeriod48kPs, 2000, P::kPeriod48kPs);
  run_golden(src, ev);
  EXPECT_TRUE(src.tracking());
  EXPECT_NEAR(static_cast<double>(src.increment()), 32768.0, 2.0);
}

TEST(GoldenSrc, DownsamplingModeWorks) {
  AlgorithmicSrc src(SrcMode::k48To44_1, AlgorithmicSrc::TimeBase::kContinuousPs);
  const auto inputs = make_sine_stimulus(4000, 1000.0, 48000.0);
  const auto ev = make_schedule(inputs, P::kPeriod48kPs, 3000, P::kPeriod44k1Ps);
  const auto out = run_golden(src, ev);
  std::vector<std::int16_t> tail;
  for (std::size_t i = 1000; i < out.size(); ++i) tail.push_back(out[i].left);
  EXPECT_GT(tone_snr_db(tail, 1000.0, 44100.0), 40.0);
}

// Paper Fig. 7: quantising event times to the clock grid changes output
// values; the two time bases must *differ* (that is the effect) while both
// remaining audio-quality conversions.
TEST(GoldenSrc, TimeQuantisationChangesOutputs) {
  AlgorithmicSrc cont(SrcMode::k44_1To48, AlgorithmicSrc::TimeBase::kContinuousPs);
  AlgorithmicSrc quant(SrcMode::k44_1To48, AlgorithmicSrc::TimeBase::kQuantizedCycles);
  const auto inputs = make_sine_stimulus(3000, 1000.0, 44100.0);
  const auto ev = make_schedule(inputs, P::kPeriod44k1Ps, 3000, P::kPeriod48kPs);
  const auto out_c = run_golden(cont, ev);
  const auto out_q = run_golden(quant, ev);
  ASSERT_EQ(out_c.size(), out_q.size());
  std::size_t diffs = 0;
  std::int64_t max_err = 0;
  for (std::size_t i = 0; i < out_c.size(); ++i) {
    if (out_c[i] != out_q[i]) ++diffs;
    max_err = std::max<std::int64_t>(max_err, std::abs(out_c[i].left - out_q[i].left));
  }
  EXPECT_GT(diffs, 0u) << "quantisation should perturb outputs";
  EXPECT_LT(max_err, 1024) << "perturbation should be small, not a malfunction";
}

TEST(GoldenSrc, QuantizedBaseIsDeterministic) {
  const auto inputs = make_noise_stimulus(1500, 7);
  const auto ev = make_schedule(inputs, P::kPeriod44k1Ps, 1500, P::kPeriod48kPs);
  AlgorithmicSrc a(SrcMode::k44_1To48, AlgorithmicSrc::TimeBase::kQuantizedCycles);
  AlgorithmicSrc b(SrcMode::k44_1To48, AlgorithmicSrc::TimeBase::kQuantizedCycles);
  EXPECT_EQ(run_golden(a, ev), run_golden(b, ev));
}

TEST(GoldenSrc, CornerBugTriggersAndPerturbsOutputs) {
  const auto inputs = make_sine_stimulus(3000, 500.0, 48000.0);
  // Pass-through mode: exact alignment (mu == 0, phase == 0) recurs, which
  // is the corner the injected bug lives in.
  const auto ev = make_schedule(inputs, P::kPeriod48kPs, 3000, P::kPeriod48kPs);
  AlgorithmicSrc good(SrcMode::k48To48, AlgorithmicSrc::TimeBase::kQuantizedCycles, false);
  AlgorithmicSrc bad(SrcMode::k48To48, AlgorithmicSrc::TimeBase::kQuantizedCycles, true);
  const auto out_good = run_golden(good, ev);
  const auto out_bad = run_golden(bad, ev);
  EXPECT_GT(bad.corner_bug_triggers(), 0u);
  EXPECT_NE(out_good, out_bad);
}

TEST(GoldenSrc, DepthStaysWithinValidityContract) {
  // Drive with a deliberately mismatched mode so the depth drifts to the
  // cap before tracking takes over; reads must still stay within the
  // 55-sample validity window the checking memory enforces.
  AlgorithmicSrc src(SrcMode::k48To44_1, AlgorithmicSrc::TimeBase::kQuantizedCycles);
  const auto inputs = make_noise_stimulus(4000, 3);
  const auto ev = make_schedule(inputs, P::kPeriod44k1Ps, 4000, P::kPeriod48kPs);
  for (const auto& e : ev) {
    if (e.is_input) src.push_input(e.t_ps, e.sample);
    else src.pull_output(e.t_ps);
    EXPECT_LE(src.depth(), DepthConstants::kMaxDepth);
    if (src.started()) {
      EXPECT_GT(src.depth(), 0);
    }
  }
}

TEST(Stimulus, ScheduleOrdersInputsFirstOnTies) {
  std::vector<StereoSample> ins(4);
  const auto ev = make_schedule(ins, 100, 4, 100);  // identical periods: all ties
  for (std::size_t i = 0; i + 1 < ev.size(); i += 2) {
    EXPECT_TRUE(ev[i].is_input);
    EXPECT_FALSE(ev[i + 1].is_input);
    EXPECT_EQ(ev[i].t_ps, ev[i + 1].t_ps);
  }
}

TEST(Stimulus, SnrMeasurementDetectsCleanTone) {
  const auto s = make_sine_stimulus(4096, 1000.0, 48000.0);
  std::vector<std::int16_t> left;
  for (const auto& v : s) left.push_back(v.left);
  EXPECT_GT(tone_snr_db(left, 1000.0, 48000.0), 50.0);
  // Noise should measure terribly against any single tone.
  const auto n = make_noise_stimulus(4096, 1);
  std::vector<std::int16_t> nl;
  for (const auto& v : n) nl.push_back(v.left);
  EXPECT_LT(tone_snr_db(nl, 1000.0, 48000.0), 10.0);
}

}  // namespace
}  // namespace scflow::dsp
