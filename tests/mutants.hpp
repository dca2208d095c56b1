// Seeded byte-level mutators shared by the reader fuzz suites
// (test_obs_fuzz for JSON and ledgers, test_serve_fuzz for snapshots):
// the same seed gives the same mutant stream in both.
#pragma once

#include <random>
#include <string>
#include <string_view>

namespace scflow::fuzz {

/// Flips one to three random bits of @p s (which must be non-empty).
inline std::string flip_bits(std::string s, std::mt19937_64& rng) {
  for (int i = 0, flips = 1 + static_cast<int>(rng() % 3); i < flips; ++i)
    s[rng() % s.size()] ^= static_cast<char>(1u << (rng() % 8));
  return s;
}

/// A random prefix of @p a followed by a random suffix of @p b.
inline std::string splice(std::string_view a, std::string_view b, std::mt19937_64& rng) {
  return std::string(a.substr(0, rng() % (a.size() + 1))) +
         std::string(b.substr(rng() % (b.size() + 1)));
}

}  // namespace scflow::fuzz
