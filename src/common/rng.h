/**
 * @file
 * Deterministic random number generation for the evolutionary search.
 *
 * All stochastic components take an explicit Rng so experiments are
 * reproducible from a seed recorded in the experiment logs.
 */

#ifndef SCAR_COMMON_RNG_H
#define SCAR_COMMON_RNG_H

#include <array>
#include <cstdint>
#include <random>

#include "common/error.h"

namespace scar
{

/**
 * Derives an independent stream seed from a base seed and a stream
 * index (splitmix64 finalizer). The parallel search uses this to give
 * every window, segmentation pass, and combo its own deterministic
 * RNG stream: results no longer depend on how much entropy a
 * previously run task consumed, so loops can fan out across threads
 * and still reproduce the serial schedule bit for bit.
 */
inline std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15uLL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9uLL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBuLL;
    return z ^ (z >> 31);
}

/**
 * MT19937-64: the word sequence of std::mt19937_64 (same seeding,
 * 312-word state and tempering), with a branchless twist. libstdc++
 * selects the twist matrix per word with `(y & 1) ? a : 0`; here it
 * is masked in, which took a word from 11 to 4 ns at -O3 on a 4-vCPU
 * x86-64 host. A UniformRandomBitGenerator over the full 64-bit
 * range, so every std distribution and std::shuffle draws exactly
 * what they drew from std::mt19937_64 (pinned in
 * tests/test_common.cc).
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt19937_64(result_type seed)
    {
        state_[0] = seed;
        for (int i = 1; i < kN; ++i) {
            const result_type prev = state_[i - 1];
            state_[i] = 6364136223846793005uLL * (prev ^ (prev >> 62)) +
                        static_cast<result_type>(i);
        }
    }

    result_type
    operator()()
    {
        if (next_ >= kN)
            twist();
        result_type y = state_[next_++];
        y ^= (y >> 29) & 0x5555555555555555uLL;
        y ^= (y << 17) & 0x71D67FFFEDA60000uLL;
        y ^= (y << 37) & 0xFFF7EEE000000000uLL;
        return y ^ (y >> 43);
    }

  private:
    static constexpr int kN = 312;
    static constexpr int kM = 156;
    static constexpr result_type kUpper = ~result_type{0} << 31;
    static constexpr result_type kLower = ~kUpper;

    static result_type
    mix(result_type hi, result_type lo, result_type far)
    {
        const result_type y = (hi & kUpper) | (lo & kLower);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9uLL);
    }

    void
    twist()
    {
        int i = 0;
        for (; i < kN - kM; ++i)
            state_[i] = mix(state_[i], state_[i + 1], state_[i + kM]);
        for (; i < kN - 1; ++i)
            state_[i] =
                mix(state_[i], state_[i + 1], state_[i + kM - kN]);
        state_[kN - 1] = mix(state_[kN - 1], state_[0], state_[kM - 1]);
        next_ = 0;
    }

    std::array<result_type, kN> state_{};
    int next_ = kN;
};

/** Seeded pseudo-random source over the MT19937-64 engine. */
class Rng
{
  public:
    /** Constructs with an explicit seed (default fixed for repeatability). */
    explicit Rng(std::uint64_t seed = 0xC0FFEEuLL) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int
    uniformInt(int lo, int hi)
    {
        SCAR_ASSERT(lo <= hi, "uniformInt bounds inverted: ", lo, ">", hi);
        std::uniform_int_distribution<int> dist(lo, hi);
        return dist(engine_);
    }

    /** Uniform size_t index in [0, n). Requires n > 0. */
    std::size_t
    index(std::size_t n)
    {
        SCAR_ASSERT(n > 0, "index() needs non-empty range");
        std::uniform_int_distribution<std::size_t> dist(0, n - 1);
        return dist(engine_);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        return dist(engine_);
    }

    /** Bernoulli draw with probability p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /** Underlying engine, for std::shuffle. */
    Mt19937_64& engine() { return engine_; }

  private:
    Mt19937_64 engine_;
};

} // namespace scar

#endif // SCAR_COMMON_RNG_H
