/**
 * @file
 * Unit tests for the common utilities: errors, logging, RNG, units,
 * table and CSV formatting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <random>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "common/flat_hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"

namespace scar
{
namespace
{

TEST(Error, FatalCarriesMessage)
{
    try {
        fatal("bad config: ", 42);
        FAIL() << "fatal() must throw";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("bad config: 42"),
                  std::string::npos);
    }
}

TEST(Error, PanicIsLogicError)
{
    EXPECT_THROW(panic("broken"), PanicError);
    EXPECT_THROW(panic("broken"), std::logic_error);
}

TEST(Error, RequireMacroPassesAndFails)
{
    EXPECT_NO_THROW(SCAR_REQUIRE(1 + 1 == 2, "math"));
    EXPECT_THROW(SCAR_REQUIRE(false, "nope"), FatalError);
}

TEST(Error, AssertMacroPassesAndFails)
{
    EXPECT_NO_THROW(SCAR_ASSERT(true, "fine"));
    EXPECT_THROW(SCAR_ASSERT(false, "bug"), PanicError);
}

TEST(Logging, LevelFiltering)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    inform("this must not crash while silent");
    setLogLevel(before);
}

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.uniformInt(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, IndexRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.index(13), 13u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(99);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

/**
 * Rng's draws as they were made from the standard engine, kept as the
 * oracle of the in-repo MT19937-64: the same distributions over
 * std::mt19937_64.
 */
class ReferenceRng
{
  public:
    explicit ReferenceRng(std::uint64_t seed) : engine_(seed) {}

    int
    uniformInt(int lo, int hi)
    {
        return std::uniform_int_distribution<int>(lo, hi)(engine_);
    }

    std::size_t
    index(std::size_t n)
    {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(
            engine_);
    }

    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    bool chance(double p) { return uniform() < p; }

    std::mt19937_64& engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

std::vector<std::uint64_t>
oracleSeeds()
{
    std::vector<std::uint64_t> seeds = {0, 1, 0xC0FFEEuLL,
                                        ~std::uint64_t{0}};
    for (std::uint64_t stream = 0; stream < 16; ++stream)
        seeds.push_back(mixSeed(0xC0FFEEuLL, stream));
    return seeds;
}

TEST(Rng, EngineMatchesStdMt19937_64)
{
    static_assert(Mt19937_64::min() == std::mt19937_64::min());
    static_assert(Mt19937_64::max() == std::mt19937_64::max());
    for (const std::uint64_t seed : oracleSeeds()) {
        Mt19937_64 got(seed);
        std::mt19937_64 want(seed);
        int mismatches = 0;
        for (int i = 0; i < 1'000'000; ++i)
            mismatches += got() != want() ? 1 : 0;
        EXPECT_EQ(mismatches, 0) << "seed " << seed;
    }
}

TEST(Rng, DrawsMatchTheStdEngineReference)
{
    for (const std::uint64_t seed : oracleSeeds()) {
        Rng got(seed);
        ReferenceRng want(seed);
        int mismatches = 0;
        for (int i = 0; i < 20'000; ++i) {
            // Interleave every draw kind and several range widths, so
            // each distribution sees the engine in varied states.
            const int hi = i % 97;
            mismatches += got.uniformInt(-hi, hi) != want.uniformInt(-hi, hi);
            mismatches += got.uniformInt(0, 1 << (i % 31)) !=
                          want.uniformInt(0, 1 << (i % 31));
            const std::size_t n = 1 + static_cast<std::size_t>(i) * 7919;
            mismatches += got.index(n) != want.index(n);
            mismatches += got.uniform() != want.uniform();
            mismatches += got.chance(0.3) != want.chance(0.3);
        }
        EXPECT_EQ(mismatches, 0) << "seed " << seed;
    }
}

TEST(Rng, ShuffleMatchesTheStdEngine)
{
    for (const std::uint64_t seed : oracleSeeds()) {
        for (const std::size_t n : {2u, 17u, 1000u}) {
            std::vector<int> got(n);
            std::iota(got.begin(), got.end(), 0);
            std::vector<int> want = got;
            Rng rng(seed);
            ReferenceRng ref(seed);
            std::shuffle(got.begin(), got.end(), rng.engine());
            std::shuffle(want.begin(), want.end(), ref.engine());
            EXPECT_EQ(got, want) << "seed " << seed << ", n " << n;
        }
    }
}

TEST(Units, CycleSecondsRoundTrip)
{
    EXPECT_DOUBLE_EQ(cyclesToSeconds(kClockHz), 1.0);
    EXPECT_DOUBLE_EQ(secondsToCycles(cyclesToSeconds(12345.0)), 12345.0);
}

TEST(Units, NsToCyclesAt500Mhz)
{
    // 500 MHz -> 2 ns per cycle.
    EXPECT_DOUBLE_EQ(nsToCycles(2.0), 1.0);
    EXPECT_DOUBLE_EQ(nsToCycles(35.0), 17.5);
}

TEST(Units, BandwidthConversion)
{
    // 64 GB/s at 500 MHz = 128 bytes/cycle.
    EXPECT_DOUBLE_EQ(gbpsToBytesPerCycle(64.0), 128.0);
}

TEST(Units, EnergyConversions)
{
    EXPECT_DOUBLE_EQ(njToJoules(1.0e9), 1.0);
    EXPECT_DOUBLE_EQ(pjToNj(1000.0), 1.0);
}

TEST(Table, RendersAlignedRows)
{
    TextTable table({"A", "Metric"});
    table.addRow({"x", "1.5"});
    table.addRow({"long-name", "2"});
    const std::string out = table.render();
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_NE(out.find("| A "), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, RejectsWrongArity)
{
    TextTable table({"A", "B"});
    EXPECT_THROW(table.addRow({"only-one"}), FatalError);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Csv, WritesHeaderAndEscapes)
{
    const std::string path = "/tmp/scar_test_csv.csv";
    {
        CsvWriter csv(path, {"name", "value"});
        csv.addRow({"plain", "1"});
        csv.addRow({"with,comma", "quote\"inside"});
        EXPECT_TRUE(csv.good());
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "name,value");
    std::getline(in, line);
    EXPECT_EQ(line, "plain,1");
    std::getline(in, line);
    EXPECT_EQ(line, "\"with,comma\",\"quote\"\"inside\"");
    std::remove(path.c_str());
}

TEST(Csv, RejectsWrongArity)
{
    CsvWriter csv("/tmp/scar_test_csv2.csv", {"a"});
    EXPECT_THROW(csv.addRow({"x", "y"}), FatalError);
    std::remove("/tmp/scar_test_csv2.csv");
}

// ---- FlatHashMap (the PathCache backing store) --------------------

/** Hash for std::vector<int> keys. */
struct IntSequenceHash
{
    std::uint64_t
    operator()(const std::vector<int>& seq) const
    {
        std::uint64_t h = mixBits(static_cast<std::uint64_t>(seq.size()));
        for (const int v : seq)
            h = mixBits(h ^ static_cast<std::uint64_t>(
                                static_cast<std::int64_t>(v)));
        return h;
    }
};

TEST(FlatHashMap, FindInsertAndGrowth)
{
    FlatHashMap<std::vector<int>, int, IntSequenceHash> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find({1, 2, 3}), nullptr);

    // Enough keys to force several rehashes past the 7/8 load factor.
    for (int i = 0; i < 1000; ++i)
        map.insert({i, i * 31, -i}, i);
    EXPECT_EQ(map.size(), 1000u);
    for (int i = 0; i < 1000; ++i) {
        const int* value = map.find({i, i * 31, -i});
        ASSERT_NE(value, nullptr) << "lost key " << i;
        EXPECT_EQ(*value, i);
    }
    EXPECT_EQ(map.find({1000, 31000, -1000}), nullptr);
    // Prefix/suffix confusion must not alias.
    EXPECT_EQ(map.find({1, 31}), nullptr);
    EXPECT_EQ(map.find({}), nullptr);
}

TEST(FlatHashMap, DuplicateInsertKeepsFirstValue)
{
    FlatHashMap<std::vector<int>, int, IntSequenceHash> map;
    EXPECT_EQ(map.insert({7, 7}, 1), 1);
    // The memoization caches rely on first-write-wins: racing
    // duplicate computations store identical values, so keeping the
    // first is both cheap and correct.
    EXPECT_EQ(map.insert({7, 7}, 2), 1);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(*map.find({7, 7}), 1);
}

} // namespace
} // namespace scar
