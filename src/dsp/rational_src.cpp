#include "dsp/rational_src.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "dsp/filter.hpp"
#include "dsp/filter_design.hpp"

namespace scflow::dsp {
namespace {

// Splits an integer stage product into cascade factors: greedily the
// largest factor <= 8 (keeps each stage's anti-alias filter at a modest
// 8*m+1 taps), falling back to the smallest prime factor when all prime
// factors exceed 8 (rare audio-rate pairs like 4000 -> 44000).
std::vector<int> factor_stages(int product) {
  std::vector<int> factors;
  int q = product;
  while (q > 1) {
    int f = 0;
    for (int c = 8; c >= 2; --c) {
      if (q % c == 0) {
        f = c;
        break;
      }
    }
    if (f == 0) {
      f = q;  // q's smallest prime factor is > 8; q itself may be it
      for (int c = 9; c * c <= q; ++c) {
        if (q % c == 0) {
          f = c;
          break;
        }
      }
    }
    factors.push_back(f);
    q /= f;
  }
  return factors;
}

// Seed increment for the fractional core.  The four paper pairs keep
// their SrcMode table entries bit-for-bit — k48To44_1's 35665 is the
// truncated quotient, one LSB below nominal_increment_for()'s
// round-to-nearest 35666 — so a direct plan replays the golden model
// exactly from the first output on.
std::int64_t core_seed_increment(std::uint32_t fs_in, std::uint32_t fs_out) {
  if (fs_out == 48'000) {
    if (fs_in == 44'100) return SrcParams::nominal_increment(SrcMode::k44_1To48);
    if (fs_in == 48'000) return SrcParams::nominal_increment(SrcMode::k48To48);
    if (fs_in == 32'000) return SrcParams::nominal_increment(SrcMode::k32To48);
  }
  if (fs_in == 48'000 && fs_out == 44'100) {
    return SrcParams::nominal_increment(SrcMode::k48To44_1);
  }
  return nominal_increment_for(fs_in, fs_out);
}

}  // namespace

RatioPlan plan_ratio(std::uint32_t fs_in_hz, std::uint32_t fs_out_hz) {
  if (fs_in_hz < kMinRateHz || fs_in_hz > kMaxRateHz) {
    throw std::invalid_argument("plan_ratio: input rate outside supported range");
  }
  if (fs_out_hz < kMinRateHz || fs_out_hz > kMaxRateHz) {
    throw std::invalid_argument("plan_ratio: output rate outside supported range");
  }

  RatioPlan plan;
  plan.fs_in_hz = fs_in_hz;
  plan.fs_out_hz = fs_out_hz;
  const std::uint32_t g = std::gcd(fs_in_hz, fs_out_hz);
  plan.up = fs_out_hz / g;
  plan.down = fs_in_hz / g;

  // Integer staging keeps the fractional core's ratio inside (0.5, 2]:
  //  * an exact integer quotient goes entirely to one side (core ratio
  //    exactly 1, the resync case the core handles natively);
  //  * otherwise powers of two peel off until the residue fits.
  // The four paper pairs land in neither branch — they plan direct.
  std::uint32_t oversample = 1;
  std::uint32_t undersample = 1;
  if (fs_in_hz % fs_out_hz == 0 && fs_in_hz / fs_out_hz >= 2) {
    undersample = fs_in_hz / fs_out_hz;
  } else if (fs_out_hz % fs_in_hz == 0 && fs_out_hz / fs_in_hz >= 2) {
    oversample = fs_out_hz / fs_in_hz;
  } else {
    while (static_cast<std::uint64_t>(fs_in_hz) * oversample * 2 <= fs_out_hz) {
      oversample *= 2;
    }
    while (static_cast<std::uint64_t>(fs_out_hz) * undersample * 2 < fs_in_hz) {
      undersample *= 2;
    }
  }
  plan.oversample_stages = factor_stages(static_cast<int>(oversample));
  plan.undersample_stages = factor_stages(static_cast<int>(undersample));
  plan.core_fs_in_hz = fs_in_hz * oversample;
  plan.core_fs_out_hz = fs_out_hz * undersample;
  plan.core_increment = core_seed_increment(plan.core_fs_in_hz, plan.core_fs_out_hz);
  return plan;
}

IntegerStage::IntegerStage(Kind kind, int factor) : kind_(kind), factor_(factor) {
  const int length = SrcParams::kTapsPerPhase * factor + 1;
  const auto proto = design_prototype(length, factor);
  // Interpolator branches each see a full-scale input stream, so branch
  // DC gain is the clipping bound (same normalisation as the core ROM);
  // a decimator output is one complete convolution, so the whole-filter
  // DC gain is.
  const auto half = kind == Kind::kOversample
                        ? quantise_prototype_half(proto, factor)
                        : quantise_prototype_half_unity_dc(proto);
  coeffs_.resize(length);
  for (int i = 0; i < length; ++i) {
    coeffs_[i] = half[std::min(i, length - 1 - i)];
  }

  const int history = kind == Kind::kOversample ? SrcParams::kTapsPerPhase : length;
  unsigned size = 1;
  while (static_cast<int>(size) < history) size <<= 1;
  ring_mask_ = size - 1;
  for (auto& ring : ring_) ring.assign(size, 0);
}

std::int16_t IntegerStage::convolve_branch(int ch, int branch) const {
  std::int64_t acc = 0;
  for (int k = 0; k < SrcParams::kTapsPerPhase; ++k) {
    acc += static_cast<std::int64_t>(ring_[ch][(head_ - 1 - k) & ring_mask_]) *
           coeffs_[branch + factor_ * k];
  }
  return round_saturate_output(acc);
}

std::int16_t IntegerStage::convolve_full(int ch) const {
  std::int64_t acc = 0;
  for (int j = 0; j < static_cast<int>(coeffs_.size()); ++j) {
    acc += static_cast<std::int64_t>(ring_[ch][(head_ - 1 - j) & ring_mask_]) *
           coeffs_[j];
  }
  return round_saturate_output(acc);
}

std::size_t IntegerStage::feed(StereoSample s, std::vector<StereoSample>& out) {
  ring_[0][head_ & ring_mask_] = s.left;
  ring_[1][head_ & ring_mask_] = s.right;
  ++head_;

  if (kind_ == Kind::kOversample) {
    for (int p = 0; p < factor_; ++p) {
      out.push_back({convolve_branch(0, p), convolve_branch(1, p)});
    }
    return static_cast<std::size_t>(factor_);
  }
  if (++phase_ < factor_) return 0;
  phase_ = 0;
  out.push_back({convolve_full(0), convolve_full(1)});
  return 1;
}

void IntegerStage::save_state(core::StateWriter& w) const {
  w.u32(head_);
  w.u32(static_cast<std::uint32_t>(phase_));
  for (const auto& ring : ring_) {
    for (std::int16_t v : ring) w.i16(v);
  }
}

bool IntegerStage::load_state(core::StateReader& r) {
  head_ = r.u32();
  const std::uint32_t phase = r.u32();
  if (phase >= static_cast<std::uint32_t>(factor_)) return false;
  phase_ = static_cast<int>(phase);
  for (auto& ring : ring_) {
    for (std::int16_t& v : ring) v = r.i16();
  }
  return r.ok();
}

RationalSrc::RationalSrc(std::uint32_t fs_in_hz, std::uint32_t fs_out_hz,
                         TimeBase time_base)
    : plan_(plan_ratio(fs_in_hz, fs_out_hz)),
      core_(plan_.core_increment, time_base),
      core_in_period_ps_(rate_period_ps(plan_.core_fs_in_hz)),
      core_out_period_ps_(rate_period_ps(plan_.core_fs_out_hz)) {
  for (int m : plan_.oversample_stages) {
    pre_.emplace_back(IntegerStage::Kind::kOversample, m);
  }
  for (int m : plan_.undersample_stages) {
    post_.emplace_back(IntegerStage::Kind::kUndersample, m);
  }
}

void RationalSrc::emit(StereoSample s) {
  StereoSample cur = s;
  for (auto& stage : post_) {
    post_tmp_.clear();
    if (stage.feed(cur, post_tmp_) == 0) return;  // decimated away
    cur = post_tmp_[0];
  }
  ready_.push_back(cur);
  ++outputs_;
}

void RationalSrc::drain_core_until(std::uint64_t horizon_ps) {
  // Strict < keeps make_schedule's tie ordering: an output landing at
  // exactly the next input's timestamp is pulled after that input.
  while ((core_outputs_ + 1) * core_out_period_ps_ < horizon_ps) {
    const std::uint64_t t = (core_outputs_ + 1) * core_out_period_ps_;
    ++core_outputs_;
    emit(core_.pull_output(t));
  }
}

void RationalSrc::save_state(core::StateWriter& w) const {
  w.u64(inputs_);
  w.u64(outputs_);
  w.u64(core_inputs_);
  w.u64(core_outputs_);
  core_.save_state(w);
  w.u64(pre_.size());
  for (const IntegerStage& s : pre_) s.save_state(w);
  w.u64(post_.size());
  for (const IntegerStage& s : post_) s.save_state(w);
  // Undrained-output carry (non-empty only when a caller buffer was
  // undersized; the streaming service never leaves one, but the format
  // covers it so snapshots are valid at ANY push boundary).
  w.u64(ready_.size() - ready_read_);
  for (std::size_t i = ready_read_; i < ready_.size(); ++i) {
    w.i16(ready_[i].left);
    w.i16(ready_[i].right);
  }
}

bool RationalSrc::load_state(core::StateReader& r) {
  inputs_ = r.u64();
  outputs_ = r.u64();
  core_inputs_ = r.u64();
  core_outputs_ = r.u64();
  // push() leaves the core drained up to the next input's timestamp, so
  // the output cursor follows from the input cursor; a mismatch would make
  // the next push drain an arbitrarily long stretch of the timeline.
  const std::uint64_t drained =
      core_inputs_ == 0 ? 0
                        : ((core_inputs_ + 1) * core_in_period_ps_ - 1) / core_out_period_ps_;
  if (core_outputs_ != drained) return false;
  if (!core_.load_state(r)) return false;
  if (r.u64() != pre_.size()) return false;  // plan shape must match the config
  for (IntegerStage& s : pre_) {
    if (!s.load_state(r)) return false;
  }
  if (r.u64() != post_.size()) return false;
  for (IntegerStage& s : post_) {
    if (!s.load_state(r)) return false;
  }
  const std::uint64_t carry = r.u64();
  if (carry > r.remaining() / 4) return false;  // two i16 per sample must be present
  ready_.clear();
  ready_read_ = 0;
  for (std::uint64_t i = 0; i < carry; ++i) {
    StereoSample s;
    s.left = r.i16();
    s.right = r.i16();
    ready_.push_back(s);
  }
  return r.ok();
}

std::size_t RationalSrc::push(StereoSample in, StereoSample* out, std::size_t cap) {
  ++inputs_;
  expand_a_.clear();
  expand_a_.push_back(in);
  for (auto& stage : pre_) {
    expand_b_.clear();
    for (const auto& s : expand_a_) stage.feed(s, expand_b_);
    expand_a_.swap(expand_b_);
  }

  for (const auto& s : expand_a_) {
    const std::uint64_t t_in = (core_inputs_ + 1) * core_in_period_ps_;
    drain_core_until(t_in);
    core_.push_input(t_in, s);
    ++core_inputs_;
  }
  // Release every output strictly before the NEXT (future) core input:
  // on the canonical timeline those events precede it.
  drain_core_until((core_inputs_ + 1) * core_in_period_ps_);

  std::size_t written = 0;
  while (written < cap && ready_read_ < ready_.size()) {
    out[written++] = ready_[ready_read_++];
  }
  if (ready_read_ == ready_.size()) {
    ready_.clear();
    ready_read_ = 0;
  }
  return written;
}

}  // namespace scflow::dsp
