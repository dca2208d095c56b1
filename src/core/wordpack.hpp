// 64-pattern word utilities shared by every bit-parallel engine in the
// tree: formal::Aig::simulate (CEC's random simulation), the compiled
// gate backend (hdlsim::CompiledSim) and the PPSFP fault lanes all pack
// 64 independent two-state patterns into one machine word.  One definition
// of the mixing / stream-generation / lane primitives keeps their pattern
// streams and lane conventions identical across engines.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace scflow::core {

/// splitmix64 finaliser: full-avalanche 64-bit mix.  Used both as a hash
/// (AIG structural hashing) and as the output stage of the pattern rng.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Counter-based splitmix64 stream: state advances by the golden-gamma
/// increment, each output is the mixed state.  Deterministic, seedable,
/// and cheap enough to sit inside pattern-generation loops.
struct SplitMix64 {
  std::uint64_t s = 0;
  constexpr std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ull;
    return mix64(s);
  }
};

/// Lane accessors: pattern lane @p lane (0..63) of word @p w.
[[nodiscard]] constexpr bool word_lane(std::uint64_t w, unsigned lane) {
  return ((w >> lane) & 1u) != 0;
}
/// All 64 lanes driven with the same scalar bit.
[[nodiscard]] constexpr std::uint64_t word_broadcast(bool v) { return v ? ~0ull : 0ull; }

namespace detail {
/// In-place transpose of the 64/P side-by-side P x P bit blocks of
/// a[0..P): for each block k, bit (kP + c) of a[r] swaps with bit
/// (kP + r) of a[c] (r, c < P; P a power of two <= 64).  One block-swap
/// stage per swap distance J = P/2 .. 1 (Hacker's Delight 7-3, in
/// LSB-first bit order), with constant bounds so each width unrolls.
template <unsigned P, unsigned J = P / 2>
constexpr void transpose_blocks(std::uint64_t* a) {
  if constexpr (J > 0) {
    constexpr std::uint64_t kMask[6] = {0x5555555555555555ull, 0x3333333333333333ull,
                                        0x0f0f0f0f0f0f0f0full, 0x00ff00ff00ff00ffull,
                                        0x0000ffff0000ffffull, 0x00000000ffffffffull};
    constexpr std::uint64_t m = kMask[std::countr_zero(J)];
    for (unsigned base = 0; base < P; base += 2 * J)
      for (unsigned k = base; k < base + J; ++k) {
        const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & m;
        a[k] ^= t << J;
        a[k + J] ^= t;
      }
    transpose_blocks<P, J / 2>(a);
  }
}

/// Runs f.template operator()<P>() with P = the bus width n (<= 64)
/// rounded up to a power of two.
template <typename F>
constexpr void with_block_width(std::size_t n, F&& f) {
  if (n <= 1) f.template operator()<1>();
  else if (n <= 2) f.template operator()<2>();
  else if (n <= 4) f.template operator()<4>();
  else if (n <= 8) f.template operator()<8>();
  else if (n <= 16) f.template operator()<16>();
  else if (n <= 32) f.template operator()<32>();
  else f.template operator()<64>();
}

template <unsigned P>
constexpr std::uint64_t kLowBits = P == 64 ? ~0ull : (std::uint64_t{1} << P) - 1;
}  // namespace detail

/// Bit-sliced bus to per-lane values: out[l] (all 64 lanes) = the @p n-bit
/// value (n <= 64) whose bit b is lane l of words[b].  One block
/// transpose over the bus padded to P = bit_ceil(n) words leaves lane
/// kP + i's value in bits [kP, kP + P) of word i.
inline void gather_lanes(const std::uint64_t* words, std::size_t n, std::uint64_t* out) {
  detail::with_block_width(n, [&]<unsigned P>() {
    std::uint64_t a[P] = {};
    std::copy_n(words, n, a);
    detail::transpose_blocks<P>(a);
    for (unsigned k = 0; k < 64 / P; ++k)
      for (unsigned i = 0; i < P; ++i) out[k * P + i] = (a[i] >> (k * P)) & detail::kLowBits<P>;
  });
}

/// The inverse: writes the @p n bus words (n <= 64) with words[b] holding
/// bit b of in[l] at lane l for each lane in @p lanes, and 0 at every
/// other lane.  Bits of in[] at or above n are ignored.
inline void scatter_lanes(const std::uint64_t* in, std::uint64_t lanes, std::size_t n,
                          std::uint64_t* words) {
  detail::with_block_width(n, [&]<unsigned P>() {
    std::uint64_t a[P] = {};
    for (unsigned i = 0; i < P; ++i) a[i] = in[i] & detail::kLowBits<P>;
    for (unsigned k = 1; k < 64 / P; ++k)
      for (unsigned i = 0; i < P; ++i) a[i] |= (in[k * P + i] & detail::kLowBits<P>) << (k * P);
    detail::transpose_blocks<P>(a);
    for (std::size_t b = 0; b < n; ++b) words[b] = a[b] & lanes;
  });
}

}  // namespace scflow::core
