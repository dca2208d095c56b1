// Arbitrary-rational-ratio sample-rate conversion (ROADMAP item 3): the
// streaming-service generalisation of the paper's four fixed SrcModes.
//
// A requested fs_in -> fs_out pair is gcd-reduced to L/M (up/down) and
// decomposed into integer stages around the existing fixed-point
// polyphase interpolation core (shibatch-ssrc style Oversample /
// Undersample staging):
//
//   input --[x o1]--[x o2]--> AlgorithmicSrc core --[/ d1]--[/ d2]--> output
//
// The integer stages are classic polyphase FIR interpolators / anti-alias
// decimators whose prototypes come from the SAME filter-design machinery
// (Kaiser-windowed sinc, Q1.15 quantisation) and whose arithmetic is the
// SAME SrcParams contract (16-bit samples, 40-bit accumulate, round-half-
// up at the Q15 point).  The fractional core is literally AlgorithmicSrc
// driven with the canonical nominal-period event timeline, so for the
// four paper pairs — which plan as stage-free "direct" conversions — the
// output is bit-exact with the golden model on either time base
// (tests/test_rational_src.cpp pins that sample-for-sample).
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/golden_src.hpp"
#include "dsp/src_params.hpp"

namespace scflow::dsp {

/// Supported session rates (audio-shaped; keeps stage factors bounded).
inline constexpr std::uint32_t kMinRateHz = 4'000;
inline constexpr std::uint32_t kMaxRateHz = 768'000;

/// Nominal period of a sample rate in integer picoseconds (round to
/// nearest).  Reproduces the SrcParams constants: 44100 -> kPeriod44k1Ps,
/// 48000 -> kPeriod48kPs, 32000 -> kPeriod32kPs.
constexpr std::uint64_t rate_period_ps(std::uint32_t hz) {
  return (1'000'000'000'000ULL + hz / 2) / hz;
}

/// round(fs_in / fs_out * 2^15) — the nominal Q3.15 phase increment of a
/// rate pair.  Matches SrcParams::nominal_increment for three of the four
/// paper modes; the k48To44_1 table entry is the *truncated* 35665, one
/// LSB below round-to-nearest, so plan_ratio() pins the paper pairs to
/// the legacy table seeds rather than this formula.
constexpr std::int64_t nominal_increment_for(std::uint32_t fs_in, std::uint32_t fs_out) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(fs_in) << SrcParams::kFracBits) + fs_out / 2) /
         static_cast<std::int64_t>(fs_out);
}

/// The gcd decomposition of one rate pair into integer stages plus the
/// fractional core.  Built by plan_ratio(); immutable afterwards.
struct RatioPlan {
  std::uint32_t fs_in_hz = 0;
  std::uint32_t fs_out_hz = 0;
  std::uint32_t up = 1;    ///< L = fs_out / gcd(fs_in, fs_out)
  std::uint32_t down = 1;  ///< M = fs_in  / gcd(fs_in, fs_out)

  /// Input-side integer interpolators (factors in cascade order); their
  /// product raises the core input rate to fs_in * oversample_total().
  std::vector<int> oversample_stages;
  /// Output-side integer decimators; the core produces fs_out *
  /// undersample_total() and the cascade divides back down to fs_out.
  std::vector<int> undersample_stages;

  std::uint32_t core_fs_in_hz = 0;   ///< rate the fractional core consumes
  std::uint32_t core_fs_out_hz = 0;  ///< rate the fractional core produces
  std::int64_t core_increment = 0;   ///< nominal Q3.15 increment of the core

  [[nodiscard]] int oversample_total() const {
    int p = 1;
    for (int m : oversample_stages) p *= m;
    return p;
  }
  [[nodiscard]] int undersample_total() const {
    int p = 1;
    for (int m : undersample_stages) p *= m;
    return p;
  }
  /// Stage-free: the pair runs purely through the AlgorithmicSrc core —
  /// true for all four paper pairs (their ratios sit inside the core's
  /// comfortable increment band).
  [[nodiscard]] bool direct() const {
    return oversample_stages.empty() && undersample_stages.empty();
  }
  /// Upper bound on outputs one pushed input can release (service ring
  /// sizing / backpressure watermark).
  [[nodiscard]] std::size_t max_outputs_per_input() const {
    return static_cast<std::size_t>((fs_out_hz + fs_in_hz - 1) / fs_in_hz) + 2;
  }
};

/// Plans the decomposition for a rate pair.  Throws std::invalid_argument
/// when a rate is outside [kMinRateHz, kMaxRateHz].
RatioPlan plan_ratio(std::uint32_t fs_in_hz, std::uint32_t fs_out_hz);

/// One integer-factor polyphase FIR stage (stereo).  Interpolators emit
/// `factor` outputs per input (one per polyphase branch, 8 taps each);
/// decimators emit one output per `factor` inputs (one full 8*factor+1
/// tap anti-alias convolution).  Both run the SrcParams fixed-point
/// arithmetic via filter.hpp's round_saturate_output.
class IntegerStage {
 public:
  enum class Kind { kOversample, kUndersample };

  IntegerStage(Kind kind, int factor);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] int factor() const { return factor_; }

  /// Feeds one input sample; appends 0..factor outputs to @p out.
  std::size_t feed(StereoSample s, std::vector<StereoSample>& out);

  /// Snapshot support: history rings + cursors (coefficients are
  /// construction-determined and not serialized).
  void save_state(core::StateWriter& w) const;
  [[nodiscard]] bool load_state(core::StateReader& r);

 private:
  [[nodiscard]] std::int16_t convolve_branch(int ch, int branch) const;
  [[nodiscard]] std::int16_t convolve_full(int ch) const;

  Kind kind_;
  int factor_;
  std::vector<std::int16_t> coeffs_;  ///< full prototype, mirrored from the half
  // Per-channel history rings (power-of-two, newest at head_ - 1).
  unsigned ring_mask_;
  std::vector<std::int16_t> ring_[SrcParams::kChannels];
  unsigned head_ = 0;
  int phase_ = 0;  ///< decimator input-count modulo factor
};

/// The streaming arbitrary-ratio converter: push inputs one at a time;
/// every converted output that became computable is handed back
/// immediately.  Internally the core's event timeline is synthesised at
/// the canonical nominal periods (input k at (k+1)*P_in, output j at
/// (j+1)*P_out, inputs first on ties — exactly make_schedule's ordering),
/// so a direct plan replays the golden model's event sequence verbatim.
class RationalSrc {
 public:
  using TimeBase = AlgorithmicSrc::TimeBase;

  RationalSrc(std::uint32_t fs_in_hz, std::uint32_t fs_out_hz, TimeBase time_base);

  [[nodiscard]] const RatioPlan& plan() const { return plan_; }

  /// Feeds one input sample and writes the outputs that became computable
  /// to @p out (capacity @p cap).  Returns the number written.  A @p cap
  /// of at least plan().max_outputs_per_input() never truncates; fewer
  /// slots spill the excess into an internal carry drained by later calls.
  std::size_t push(StereoSample in, StereoSample* out, std::size_t cap);

  [[nodiscard]] std::uint64_t inputs_consumed() const { return inputs_; }
  [[nodiscard]] std::uint64_t outputs_produced() const { return outputs_; }

  /// Snapshot support (serve resilience layer): serializes the complete
  /// mid-stream state — event-timeline cursors, the fractional core, every
  /// integer stage's filter history, and the undrained-output carry — so
  /// that a converter reconstructed with the same (fs_in, fs_out, time
  /// base) and then load_state()ed produces the byte-identical remaining
  /// output stream.  load_state returns false (leaving the converter
  /// unusable) on truncated or shape-mismatched payloads, or when the
  /// core output cursor is not where the input cursor's timeline puts it;
  /// it never reads out of bounds.
  void save_state(core::StateWriter& w) const;
  [[nodiscard]] bool load_state(core::StateReader& r);

 private:
  void drain_core_until(std::uint64_t horizon_ps);
  void emit(StereoSample s);

  RatioPlan plan_;
  AlgorithmicSrc core_;
  std::vector<IntegerStage> pre_;   ///< oversample cascade (input side)
  std::vector<IntegerStage> post_;  ///< undersample cascade (output side)

  std::uint64_t core_in_period_ps_;
  std::uint64_t core_out_period_ps_;
  std::uint64_t core_inputs_ = 0;
  std::uint64_t core_outputs_ = 0;
  std::uint64_t inputs_ = 0;
  std::uint64_t outputs_ = 0;

  // Scratch for the cascade expansions (no per-push allocation once warm)
  // and the carry FIFO for undersized caller buffers.
  std::vector<StereoSample> expand_a_;
  std::vector<StereoSample> expand_b_;
  std::vector<StereoSample> post_tmp_;
  std::vector<StereoSample> ready_;
  std::size_t ready_read_ = 0;
};

}  // namespace scflow::dsp
