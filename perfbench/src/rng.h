// Deterministic randomness and input digests for the benchmark's generator.
//
// The benchmark keeps its own generator instead of the library's so that the
// inputs a seed denotes never change when the library under test changes.
#pragma once

#include <cstdint>
#include <string_view>

namespace perfbench {

/// splitmix64 finalizer: a bijective 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// splitmix64 stream.  fork() derives an independent stream per component,
/// so adding draws to one component never shifts another's inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(mix64(seed)) {}

  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }
  /// Uniform in [0, n); n must be > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// True with probability num/den.
  bool chance(std::uint64_t num, std::uint64_t den) { return below(den) < num; }
  Rng fork(std::uint64_t tag) const { return Rng(state_ ^ mix64(tag + 1)); }

 private:
  std::uint64_t state_;
};

/// Order-sensitive digest (FNV-1a over bytes, finalized with mix64).
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;  // separator, so ("ab","c") != ("a","bc")
    h_ *= 0x100000001b3ULL;
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return mix64(h_); }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
