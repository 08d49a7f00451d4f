/**
 * @file
 * Byte-level primitives shared by the trace layer: FNV-1a field mixing
 * (SuiteConfig::hash() and vprofd's machine hash) and the LEB128 varint
 * encoding of the v3 image's Meta section (format_v2.hh).
 */

#ifndef MMXDSP_TRACE_FORMAT_HH
#define MMXDSP_TRACE_FORMAT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mmxdsp::trace {

/** Mix one u64 into an FNV-1a running hash (for struct field hashing). */
uint64_t fnv1aMix(uint64_t hash, uint64_t value);

/** Append v as an LEB128 varint. */
void putVarint(std::vector<uint8_t> &out, uint64_t v);

/** Append a varint length followed by the raw bytes. */
void putString(std::vector<uint8_t> &out, const std::string &s);

/**
 * Bounds-checked cursor over an encoded byte range. All getters return
 * safe defaults once a read runs past the end; check ok() afterwards.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size)
        : p_(data), end_(data + size)
    {
    }

    uint64_t getVarint();
    std::string getString();

    bool ok() const { return ok_; }
    size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  private:
    const uint8_t *p_;
    const uint8_t *end_;
    bool ok_ = true;
};

} // namespace mmxdsp::trace

#endif // MMXDSP_TRACE_FORMAT_HH
