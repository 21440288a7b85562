// Deterministic random number generation.
//
// All stochastic pieces of the library (random-fit RWA, synthetic gradient
// data for the verification oracle, workload jitter) draw from an
// explicitly seeded generator so every simulation run is reproducible.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace wrht {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = kDefaultSeed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform_real(double lo, double hi);

  /// Normal deviate.
  [[nodiscard]] double normal(double mean, double stddev);

  /// Fisher-Yates shuffle of an index permutation [0, n).
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

  /// Vector of n uniform reals in [lo, hi); used as synthetic gradients.
  [[nodiscard]] std::vector<double> uniform_vector(std::size_t n, double lo,
                                                   double hi);

  std::mt19937_64& engine() { return engine_; }

  static constexpr std::uint64_t kDefaultSeed = 0x5eed'2023'0001ull;

 private:
  std::mt19937_64 engine_;
};

}  // namespace wrht
