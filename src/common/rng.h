/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component of cubeSSD draws from an explicitly seeded
 * Rng instance so that simulation runs are exactly reproducible. The
 * implementation is xoshiro256** (public domain, Blackman & Vigna), which
 * is fast and has no observable statistical defects at our sample sizes.
 */

#ifndef CUBESSD_COMMON_RNG_H
#define CUBESSD_COMMON_RNG_H

#include <array>
#include <cstdint>

#include "src/common/state_hash.h"

namespace cubessd {

/**
 * A small, fast, explicitly seeded random number generator.
 *
 * Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
 * plugged into <random> distributions, but also offers the handful of
 * distributions the simulator needs directly (uniform, normal, lognormal,
 * Bernoulli, Poisson-ish exponential spacing).
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed via SplitMix64 state expansion. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** @return the next raw 64-bit output. */
    result_type operator()();

    /** @return a double uniform in [0, 1). */
    double uniform();

    /** @return a double uniform in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return an integer uniform in [0, n) for n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** @return true with probability p (clamped to [0, 1]). */
    bool bernoulli(double p);

    /** @return a standard-normal sample (Box-Muller, cached pair). */
    double normal();

    /** @return a normal sample with the given mean and stddev. */
    double normal(double mean, double stddev);

    /**
     * @return a lognormal sample whose *underlying normal* has the given
     * mu/sigma. Used for per-block and per-chip process offsets.
     */
    double lognormal(double mu, double sigma);

    /** @return an exponential sample with the given mean (> 0). */
    double exponential(double mean);

    /** Derive an independent child generator (for per-chip streams). */
    Rng fork();

    /** Fold the generator's position (state and cached normal) in. */
    void
    hashState(StateHash &h) const
    {
        h.add(state_).add(cachedNormal_).add(hasCachedNormal_);
    }

  private:
    std::array<std::uint64_t, 4> state_;
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

}  // namespace cubessd

#endif  // CUBESSD_COMMON_RNG_H
