#include "cache.hh"

#include <cstdio>

#include "support/logging.hh"

namespace mmxdsp::mem {

namespace {

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

uint32_t
log2OfPowerOfTwo(uint64_t v)
{
    uint32_t shift = 0;
    while ((1ull << shift) < v)
        ++shift;
    return shift;
}

} // namespace

std::string
CacheConfig::describe() const
{
    char buf[64];
    if (size_bytes >= 1024 && size_bytes % 1024 == 0)
        std::snprintf(buf, sizeof(buf), "%uKB/%uB/%uw", size_bytes / 1024,
                      line_bytes, ways);
    else
        std::snprintf(buf, sizeof(buf), "%uB/%uB/%uw", size_bytes,
                      line_bytes, ways);
    return buf;
}

bool
CacheConfig::valid() const
{
    // 64-bit: line * ways must not wrap around to a false divisor.
    const uint64_t set_bytes = static_cast<uint64_t>(line_bytes) * ways;
    return isPowerOfTwo(size_bytes) && isPowerOfTwo(line_bytes) && ways != 0
           && ways <= kMaxWays && size_bytes / line_bytes <= kMaxLines
           && size_bytes % set_bytes == 0
           && isPowerOfTwo(size_bytes / set_bytes);
}

Cache::Cache(const CacheConfig &config)
{
    if (!config.valid())
        mmxdsp_fatal("cache %s: invalid geometry %s (size and line must "
                     "be powers of two, size / (line * ways) a power of "
                     "two, at most %u lines and %u ways)",
                     config.name.c_str(), config.describe().c_str(),
                     CacheConfig::kMaxLines, CacheConfig::kMaxWays);
    numSets_ = config.size_bytes / (config.line_bytes * config.ways);
    // Both divisors are enforced powers of two, so the per-access
    // index/tag math reduces to shifts computed once here.
    lineShift_ = log2OfPowerOfTwo(config.line_bytes);
    setShift_ = log2OfPowerOfTwo(numSets_);
    ways_ = config.ways;
    lines_.resize(static_cast<size_t>(numSets_) * config.ways);
}

void
Cache::missFill(Line *base, uint64_t tag)
{
    ++stats_.misses;

    // The victim is the least stamp, so the first empty way (stamp 0)
    // wins while one is left.
    Line *victim = base;
    for (uint32_t w = 1; w < ways_; ++w) {
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }

    stats_.evictions += victim->lru != 0;
    victim->tag = tag;
    victim->lru = tick_;
}

MemoryHierarchy::MemoryHierarchy()
    : MemoryHierarchy(
          CacheConfig{"L1D", 16 * 1024, 32, 4},
          CacheConfig{"L2", 512 * 1024, 32, 4},
          Penalties{})
{
}

MemoryHierarchy::MemoryHierarchy(const CacheConfig &l1, const CacheConfig &l2,
                                 const Penalties &penalties)
    : l1_(l1), l2_(l2), penalties_(penalties)
{
}

} // namespace mmxdsp::mem
