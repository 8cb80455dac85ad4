#include "ecc/gf256.hh"

namespace xed::ecc
{

GF256::GF256()
{
    unsigned x = 1;
    for (unsigned i = 0; i < groupOrder; ++i) {
        exp_[i] = static_cast<std::uint8_t>(x);
        log_[x] = i;
        x <<= 1;
        if (x & 0x100)
            x ^= fieldPoly;
    }
    exp_[groupOrder] = exp_[0];
    log_[0] = 0; // unused; callers must not take log of zero

    // Full product table from the log/exp pair. Row 0 and column 0
    // stay zero from value-initialization.
    for (unsigned a = 1; a < 256; ++a)
        for (unsigned b = 1; b < 256; ++b)
            mul_[a][b] = exp_[(log_[a] + log_[b]) % groupOrder];
}

void
GF256::mulConstXorInto(std::uint8_t c, const std::uint8_t *src,
                       std::uint8_t *dst, std::size_t n) const
{
    const std::uint8_t *row = mulRowPtr(c);
    for (std::size_t i = 0; i < n; ++i)
        dst[i] ^= row[src[i]];
}

const GF256 &
GF256::instance()
{
    static const GF256 field;
    return field;
}

} // namespace xed::ecc
