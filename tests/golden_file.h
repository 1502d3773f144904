/**
 * @file
 * Stored-golden comparison shared by the golden test suites.
 *
 * Goldens are captured from a reference build by running a test
 * binary with SCAR_GOLDEN_CAPTURE=1 and committed under tests/golden/;
 * every later build must reproduce them byte for byte. Floating-point
 * bit patterns are toolchain-dependent (FMA contraction differs across
 * compilers and -O levels), so the comparison is gated on a toolchain
 * signature recorded at capture time: a foreign compiler or build type
 * skips instead of failing spuriously.
 */

#ifndef SCAR_TESTS_GOLDEN_FILE_H
#define SCAR_TESTS_GOLDEN_FILE_H

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace scar
{
namespace golden
{

/**
 * The toolchain fingerprint goldens are valid for. FP bit patterns
 * depend on the compiler (contraction policy), the optimization
 * level, and the target ISA extensions actually enabled (FMA/AVX
 * change contraction and vectorization), so the signature folds in
 * every flag-sensitive macro observable from inside the build. Not
 * airtight — e.g. -O2 vs -O3 are indistinguishable by macro — but a
 * clang build, a Debug/sanitizer build, -Ofast, or -march=native all
 * skip instead of failing spuriously.
 */
inline std::string
toolchainSignature()
{
    std::ostringstream os;
    os << __VERSION__ << " |"
#ifdef NDEBUG
       << " opt"
#else
       << " noopt"
#endif
#ifdef __OPTIMIZE__
       << " O"
#endif
#ifdef __FAST_MATH__
       << " fastmath"
#endif
#ifdef __FMA__
       << " fma"
#endif
#ifdef __AVX2__
       << " avx2"
#endif
#ifdef __AVX512F__
       << " avx512f"
#endif
        ;
    return os.str();
}

inline std::string
goldenDir()
{
    if (const char* env = std::getenv("SCAR_GOLDEN_DIR"))
        return env;
#ifdef SCAR_GOLDEN_DIR_DEFAULT
    return SCAR_GOLDEN_DIR_DEFAULT;
#else
    return "tests/golden";
#endif
}

inline bool
captureMode()
{
    const char* env = std::getenv("SCAR_GOLDEN_CAPTURE");
    return env != nullptr && env[0] != '\0' &&
           std::strcmp(env, "0") != 0;
}

/**
 * Compares `produced` against the stored golden `name`, or (re)writes
 * the golden in capture mode. Skips the comparison alone when the
 * stored toolchain signature does not match this build: the caller
 * has already computed `produced`, so a Debug or sanitizer build still
 * runs every check made on the way (run invariants, ASan, TSan).
 */
inline void
checkGolden(const std::string& name, const std::string& produced)
{
    const std::string path = goldenDir() + "/" + name + ".golden.txt";
    const std::string sigPath = goldenDir() + "/toolchain.txt";
    if (captureMode()) {
        std::ofstream sigOut(sigPath);
        ASSERT_TRUE(sigOut.good()) << "cannot write " << sigPath;
        sigOut << toolchainSignature() << '\n';
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << produced;
        SUCCEED() << "captured golden " << path;
        return;
    }

    std::ifstream sigIn(sigPath);
    ASSERT_TRUE(sigIn.good())
        << "missing " << sigPath
        << " — capture goldens first (SCAR_GOLDEN_CAPTURE=1)";
    std::string storedSig;
    std::getline(sigIn, storedSig);
    if (storedSig != toolchainSignature()) {
        GTEST_SKIP() << "goldens captured under a different toolchain "
                        "(stored: "
                     << storedSig << "; this build: "
                     << toolchainSignature()
                     << ") — FP bit patterns are not comparable";
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path;
    std::ostringstream stored;
    stored << in.rdbuf();
    EXPECT_EQ(stored.str(), produced)
        << "output drifted from the golden " << path
        << " — the change altered observable bits";
}

} // namespace golden
} // namespace scar

#endif // SCAR_TESTS_GOLDEN_FILE_H
