#include "format.hh"

namespace mmxdsp::trace {

uint64_t
fnv1aMix(uint64_t hash, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

void
putString(std::vector<uint8_t> &out, const std::string &s)
{
    putVarint(out, s.size());
    out.insert(out.end(), s.begin(), s.end());
}

uint64_t
ByteReader::getVarint()
{
    uint64_t v = 0;
    int shift = 0;
    while (p_ != end_) {
        const uint8_t byte = *p_++;
        if (shift < 64)
            v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
        if (shift > 63 + 7) { // more than 10 bytes: malformed
            ok_ = false;
            return 0;
        }
    }
    ok_ = false;
    return 0;
}

std::string
ByteReader::getString()
{
    const uint64_t len = getVarint();
    if (!ok_ || len > remaining()) {
        ok_ = false;
        return {};
    }
    std::string s(reinterpret_cast<const char *>(p_),
                  static_cast<size_t>(len));
    p_ += len;
    return s;
}

} // namespace mmxdsp::trace
