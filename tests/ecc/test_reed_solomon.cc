#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "ecc/reed_solomon.hh"

namespace xed::ecc
{
namespace
{

std::vector<std::uint8_t>
randomData(Rng &rng, unsigned k)
{
    std::vector<std::uint8_t> data(k);
    for (auto &d : data)
        d = static_cast<std::uint8_t>(rng.below(256));
    return data;
}

/** Corrupt @p count distinct symbols with nonzero deltas. */
std::vector<unsigned>
corrupt(Rng &rng, std::vector<std::uint8_t> &word, unsigned count)
{
    std::vector<unsigned> positions;
    while (positions.size() < count) {
        const auto p = static_cast<unsigned>(rng.below(word.size()));
        bool dup = false;
        for (const auto q : positions)
            dup |= (q == p);
        if (dup)
            continue;
        word[p] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        positions.push_back(p);
    }
    return positions;
}

TEST(ReedSolomon, RejectsBadParameters)
{
    EXPECT_THROW(ReedSolomon(300, 10), std::invalid_argument);
    EXPECT_THROW(ReedSolomon(10, 10), std::invalid_argument);
    EXPECT_THROW(ReedSolomon(10, 0), std::invalid_argument);
    // Shapes beyond the fixed-capacity decode scratch (n <= 36,
    // n - k <= 4) are rejected up front: no decoder covers them.
    EXPECT_THROW(ReedSolomon(255, 223), std::invalid_argument);
    EXPECT_THROW(ReedSolomon(36, 31), std::invalid_argument);
    EXPECT_THROW(ReedSolomon(37, 36), std::invalid_argument);
    EXPECT_NO_THROW(ReedSolomon(36, 32));
}

TEST(ReedSolomon, EncodeProducesCodeword)
{
    Rng rng(1);
    for (const auto &[n, k] :
         {std::pair{18u, 16u}, {36u, 32u}, {9u, 5u}}) {
        ReedSolomon rs(n, k);
        for (int i = 0; i < 20; ++i) {
            const auto data = randomData(rng, k);
            const auto word = rs.encode(data);
            ASSERT_EQ(word.size(), n);
            EXPECT_TRUE(rs.isCodeword(word));
            // Systematic: data symbols come through unchanged.
            for (unsigned j = 0; j < k; ++j)
                EXPECT_EQ(word[j], data[j]);
        }
    }
}

TEST(ReedSolomon, NoErrorDecode)
{
    Rng rng(2);
    ReedSolomon rs(18, 16);
    auto word = rs.encode(randomData(rng, 16));
    const auto result = rs.decode(word);
    EXPECT_EQ(result.status, RsStatus::NoError);
}

TEST(ReedSolomon, Chipkill1816CorrectsAnySingleSymbol)
{
    // RS(18,16): the paper's commercial Chipkill arrangement -- 16 data
    // chips, 2 check chips, corrects one faulty chip.
    Rng rng(3);
    ReedSolomon rs(18, 16);
    for (int trial = 0; trial < 500; ++trial) {
        const auto data = randomData(rng, 16);
        const auto clean = rs.encode(data);
        auto word = clean;
        corrupt(rng, word, 1);
        const auto result = rs.decode(word);
        ASSERT_EQ(result.status, RsStatus::Corrected);
        EXPECT_EQ(result.numErrors, 1u);
        EXPECT_EQ(word, clean);
    }
}

TEST(ReedSolomon, Chipkill1816DoubleErrorMostlyDetected)
{
    // Two unknown-position symbol errors exceed t=1. With only two
    // check symbols (distance 3), the locator aliases to a valid
    // position for ~18/255 of random double errors, so a small
    // mis-correction rate is inherent -- exactly the weakness that
    // catch-word *erasure* location removes (Section IX).
    Rng rng(4);
    ReedSolomon rs(18, 16);
    int failures = 0;
    int miscorrected = 0;
    const int trials = 1000;
    for (int trial = 0; trial < trials; ++trial) {
        const auto data = randomData(rng, 16);
        const auto clean = rs.encode(data);
        auto word = clean;
        corrupt(rng, word, 2);
        const auto result = rs.decode(word);
        if (result.status == RsStatus::Corrected)
            miscorrected += (word != clean) ? 1 : 0;
        else
            ++failures;
    }
    EXPECT_GT(failures, trials * 8 / 10);
    // ~7% alias rate; allow generous slack either side.
    EXPECT_GT(miscorrected, trials * 2 / 100);
    EXPECT_LT(miscorrected, trials * 15 / 100);
}

TEST(ReedSolomon, XedOnChipkillCorrectsTwoErasures)
{
    // Section IX: XED on top of Chipkill -- catch-words locate up to two
    // faulty chips, the two check symbols rebuild them (erasure mode).
    Rng rng(5);
    ReedSolomon rs(18, 16);
    for (int trial = 0; trial < 500; ++trial) {
        const auto data = randomData(rng, 16);
        const auto clean = rs.encode(data);
        auto word = clean;
        const auto positions = corrupt(rng, word, 2);
        const auto result = rs.decode(word, positions);
        ASSERT_EQ(result.status, RsStatus::Corrected) << trial;
        EXPECT_EQ(result.numErasures, 2u);
        EXPECT_EQ(word, clean);
    }
}

TEST(ReedSolomon, ErasedButCleanSymbolsStillDecode)
{
    // A chip that sends a catch-word due to an on-die *corrected* error
    // delivers no data error; erasure decode must still succeed.
    Rng rng(6);
    ReedSolomon rs(18, 16);
    const auto clean = rs.encode(randomData(rng, 16));
    auto word = clean;
    word[3] ^= 0x5A; // one real error...
    const auto result = rs.decode(word, {3u, 11u}); // ...one clean erasure
    ASSERT_EQ(result.status, RsStatus::Corrected);
    EXPECT_EQ(word, clean);
}

TEST(ReedSolomon, DoubleChipkill3632CorrectsTwoRandomErrors)
{
    // RS(36,32): Double-Chipkill corrects two faulty chips without
    // location hints.
    Rng rng(7);
    ReedSolomon rs(36, 32);
    for (int trial = 0; trial < 300; ++trial) {
        const auto data = randomData(rng, 32);
        const auto clean = rs.encode(data);
        auto word = clean;
        corrupt(rng, word, 2);
        const auto result = rs.decode(word);
        ASSERT_EQ(result.status, RsStatus::Corrected) << trial;
        EXPECT_EQ(result.numErrors, 2u);
        EXPECT_EQ(word, clean);
    }
}

TEST(ReedSolomon, DoubleChipkill3632TripleErrorFails)
{
    Rng rng(8);
    ReedSolomon rs(36, 32);
    int bad = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const auto clean = rs.encode(randomData(rng, 32));
        auto word = clean;
        corrupt(rng, word, 3);
        const auto result = rs.decode(word);
        if (result.status == RsStatus::Corrected && word != clean)
            ++bad;
    }
    // Silent mis-correction of 3 errors must be rare; claimed successes
    // must be genuine. (A t=2 code can mis-correct some 3-error
    // patterns; they must not dominate.)
    EXPECT_LT(bad, 30);
}

TEST(ReedSolomon, ErrorsAndErasuresCombined)
{
    // 2nu + e <= n-k: RS(36,32) can fix 1 error + 2 erasures.
    Rng rng(9);
    ReedSolomon rs(36, 32);
    for (int trial = 0; trial < 200; ++trial) {
        const auto clean = rs.encode(randomData(rng, 32));
        auto word = clean;
        const auto positions = corrupt(rng, word, 3);
        const std::vector<unsigned> erasures{positions[0], positions[1]};
        const auto result = rs.decode(word, erasures);
        ASSERT_EQ(result.status, RsStatus::Corrected) << trial;
        EXPECT_EQ(word, clean);
    }
}

TEST(ReedSolomon, FourErasuresWithFourCheckSymbols)
{
    Rng rng(10);
    ReedSolomon rs(36, 32);
    for (int trial = 0; trial < 200; ++trial) {
        const auto clean = rs.encode(randomData(rng, 32));
        auto word = clean;
        const auto positions = corrupt(rng, word, 4);
        const auto result = rs.decode(word, positions);
        ASSERT_EQ(result.status, RsStatus::Corrected) << trial;
        EXPECT_EQ(word, clean);
    }
}

TEST(ReedSolomon, TooManyErasuresFails)
{
    Rng rng(11);
    ReedSolomon rs(18, 16);
    auto word = rs.encode(randomData(rng, 16));
    corrupt(rng, word, 3);
    const auto result = rs.decode(word, {0u, 1u, 2u});
    EXPECT_EQ(result.status, RsStatus::Failure);
}

TEST(ReedSolomon, DecodeRejectsWrongLength)
{
    ReedSolomon rs(18, 16);
    std::vector<std::uint8_t> bad(17, 0);
    EXPECT_THROW(rs.decode(bad), std::invalid_argument);
}

} // namespace
} // namespace xed::ecc
