/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * All stochastic components in the simulator (cache-eviction injection,
 * workload generators) draw from Rng instances seeded explicitly so
 * that every experiment is reproducible run-to-run.
 */

#ifndef HIPPO_SUPPORT_RANDOM_HH
#define HIPPO_SUPPORT_RANDOM_HH

#include <cstdint>

namespace hippo
{

/**
 * Derive the seed for sub-stream @p stream of a master @p seed with
 * one splitmix64 step: deterministic, platform-independent, and far
 * apart for adjacent streams. This is how a fan-out turns one
 * user-facing seed into independent per-stream seeds (perfbench
 * derives each workload's inputs from its --seed this way), so
 * results never depend on which thread runs which stream.
 */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/**
 * xoshiro256** 1.0 generator (Blackman & Vigna), seeded via splitmix64.
 * Small, fast, and fully deterministic across platforms.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [0, bound) using Lemire's method. */
    uint64_t nextBelow(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t nextRange(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability p. */
    bool chance(double p);

  private:
    uint64_t state_[4];
};

} // namespace hippo

#endif // HIPPO_SUPPORT_RANDOM_HH
