/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (scene layout jitter,
 * sampled kernel inputs, synthetic address noise) flows through Rng
 * so that every experiment is reproducible from a seed. The generator
 * is xoshiro256**, which is small, fast, and has no global state.
 */

#ifndef PARALLAX_SIM_RNG_HH
#define PARALLAX_SIM_RNG_HH

#include <cstdint>

namespace parallax
{

/** Seedable xoshiro256** generator with convenience distributions. */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Returns 0 when n == 0. */
    std::uint64_t below(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /** Standard normal variate (Box-Muller). */
    double gaussian();

    /** Normal variate with given mean and standard deviation. */
    double gaussian(double mean, double stddev);

  private:
    std::uint64_t state_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

} // namespace parallax

#endif // PARALLAX_SIM_RNG_HH
