#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "ecc/gf256.hh"

namespace xed::ecc
{
namespace
{

class GfTest : public ::testing::Test
{
  protected:
    const GF256 &gf = GF256::instance();
};

TEST_F(GfTest, AddIsXor)
{
    EXPECT_EQ(gf.add(0x53, 0xCA), 0x53 ^ 0xCA);
    EXPECT_EQ(gf.add(7, 7), 0);
}

TEST_F(GfTest, MulIdentityAndZero)
{
    for (unsigned a = 0; a < 256; ++a) {
        EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 1), a);
        EXPECT_EQ(gf.mul(1, static_cast<std::uint8_t>(a)), a);
        EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 0), 0);
    }
}

TEST_F(GfTest, MulMatchesCarrylessReference)
{
    // Reference: shift-and-add multiply reduced by 0x11D.
    auto refMul = [](std::uint8_t a, std::uint8_t b) {
        unsigned acc = 0;
        unsigned aa = a;
        for (int i = 0; i < 8; ++i) {
            if ((b >> i) & 1)
                acc ^= aa << i;
        }
        for (int bit = 15; bit >= 8; --bit)
            if ((acc >> bit) & 1)
                acc ^= GF256::fieldPoly << (bit - 8);
        return static_cast<std::uint8_t>(acc);
    };
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
        const auto a = static_cast<std::uint8_t>(rng.below(256));
        const auto b = static_cast<std::uint8_t>(rng.below(256));
        EXPECT_EQ(gf.mul(a, b), refMul(a, b));
    }
}

TEST_F(GfTest, EveryNonzeroElementHasInverse)
{
    for (unsigned a = 1; a < 256; ++a) {
        const auto inv = gf.inv(static_cast<std::uint8_t>(a));
        EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), inv), 1) << a;
    }
}

TEST_F(GfTest, MulRowPtrMatchesMul)
{
    for (unsigned c = 0; c < 256; ++c) {
        const std::uint8_t *row =
            gf.mulRowPtr(static_cast<std::uint8_t>(c));
        for (unsigned x = 0; x < 256; ++x)
            ASSERT_EQ(row[x], gf.mul(static_cast<std::uint8_t>(c),
                                     static_cast<std::uint8_t>(x)));
    }
}

TEST_F(GfTest, FullMulTableMatchesCarrylessReference)
{
    // Exhaustive 256x256 cross-check of the product table against an
    // independent shift-and-reduce multiply.
    auto refMul = [](std::uint8_t a, std::uint8_t b) {
        unsigned acc = 0;
        for (int i = 0; i < 8; ++i)
            if ((b >> i) & 1)
                acc ^= static_cast<unsigned>(a) << i;
        for (int bit = 15; bit >= 8; --bit)
            if ((acc >> bit) & 1)
                acc ^= GF256::fieldPoly << (bit - 8);
        return static_cast<std::uint8_t>(acc);
    };
    for (unsigned a = 0; a < 256; ++a)
        for (unsigned b = 0; b < 256; ++b)
            ASSERT_EQ(gf.mul(static_cast<std::uint8_t>(a),
                             static_cast<std::uint8_t>(b)),
                      refMul(static_cast<std::uint8_t>(a),
                             static_cast<std::uint8_t>(b)))
                << a << " * " << b;
}

TEST_F(GfTest, DivByZeroIsRejected)
{
    // Regression: div(a, 0) used to read the undefined log_[0] entry
    // and silently return garbage. The precondition is now enforced
    // (in release builds too).
    for (unsigned a : {0u, 1u, 2u, 0x53u, 0xFFu})
        EXPECT_THROW(gf.div(static_cast<std::uint8_t>(a), 0),
                     std::domain_error)
            << "div(" << a << ", 0)";
}

TEST_F(GfTest, DivConsistentWithMul)
{
    Rng rng(2);
    for (int i = 0; i < 5000; ++i) {
        const auto a = static_cast<std::uint8_t>(rng.below(256));
        const auto b = static_cast<std::uint8_t>(1 + rng.below(255));
        EXPECT_EQ(gf.mul(gf.div(a, b), b), a);
    }
}

TEST_F(GfTest, AlphaGeneratesWholeGroup)
{
    bool seen[256] = {};
    for (unsigned e = 0; e < GF256::groupOrder; ++e)
        seen[gf.expAlpha(e)] = true;
    unsigned count = 0;
    for (unsigned v = 1; v < 256; ++v)
        count += seen[v] ? 1 : 0;
    EXPECT_EQ(count, GF256::groupOrder);
    EXPECT_EQ(gf.expAlpha(GF256::groupOrder), 1);
}

TEST_F(GfTest, PowMatchesRepeatedMul)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const auto a = static_cast<std::uint8_t>(rng.below(256));
        const auto n = static_cast<unsigned>(rng.below(600));
        std::uint8_t ref = 1;
        for (unsigned j = 0; j < n; ++j)
            ref = gf.mul(ref, a);
        EXPECT_EQ(gf.pow(a, n), ref);
    }
}

TEST(SimdGf256, MulConstInPlaceMatchesOutOfPlace)
{
    // mulConstXorInto allows src == dst; aliasing must give the same
    // bytes as the out-of-place call.
    const GF256 &gf = GF256::instance();
    Rng rng(0x6F257);
    std::vector<std::uint8_t> buffer(129);
    for (auto &symbol : buffer)
        symbol = static_cast<std::uint8_t>(rng.below(256));
    std::vector<std::uint8_t> expected = buffer;
    gf.mulConstXorInto(0x8E, buffer.data(), expected.data(),
                       buffer.size());
    gf.mulConstXorInto(0x8E, buffer.data(), buffer.data(), buffer.size());
    ASSERT_EQ(buffer, expected);
}

} // namespace
} // namespace xed::ecc
