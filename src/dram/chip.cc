#include "dram/chip.hh"

namespace xed::dram
{

namespace
{

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

Chip::Chip(const ChipGeometry &geometry, const ecc::Secded7264 &onDieCode,
           std::uint64_t chipSeed)
    : geometry_(geometry), code_(onDieCode), chipSeed_(chipSeed),
      injector_(geometry)
{
}

ecc::Word72
Chip::backgroundWord(std::uint64_t packed) const
{
    const std::uint64_t data = backgroundData_
                                   ? backgroundData_(packed)
                                   : mix(packed ^ chipSeed_);
    return code_.encode(data);
}

std::uint64_t
Chip::expectedData(const WordAddr &addr) const
{
    const std::uint64_t packed = packWordAddr(geometry_, addr);
    const auto it = store_.find(packed);
    if (it != store_.end())
        return code_.extractData(it->second.codeword);
    return backgroundData_ ? backgroundData_(packed)
                           : mix(packed ^ chipSeed_);
}

void
Chip::write(const WordAddr &addr, std::uint64_t data)
{
    const std::uint64_t packed = packWordAddr(geometry_, addr);
    auto &slot = store_[packed];
    slot.codeword = code_.encode(data);
    slot.writeEpoch = ++epoch_;
}

ChipReadResult
Chip::read(const WordAddr &addr)
{
    const std::uint64_t packed = packWordAddr(geometry_, addr);
    ecc::Word72 codeword;
    std::uint64_t writeEpoch = 0;
    const auto it = store_.find(packed);
    if (it != store_.end()) {
        codeword = it->second.codeword;
        writeEpoch = it->second.writeEpoch;
    } else {
        codeword = backgroundWord(packed);
    }
    codeword ^= injector_.corruption(addr, writeEpoch);
    const auto decoded = code_.decode(codeword);
    ChipReadResult result;
    result.internalStatus = decoded.status;
    if (xedEnable_ && decoded.status != ecc::DecodeStatus::NoError) {
        // DC-Mux: reveal the detection episode via the catch-word.
        result.value = catchWord_;
        result.sentCatchWord = true;
    } else {
        // decoded.data is the corrected value for single-bit errors and
        // the raw (possibly garbage) data for detected-uncorrectable
        // words -- the best a real chip can put on the bus.
        result.value = decoded.data;
    }
    return result;
}

} // namespace xed::dram
