/**
 * @file
 * A set-associative, write-allocate cache model with true-LRU
 * replacement, used for the Pentium L1 data cache and the off-chip L2.
 *
 * The model keeps tags and LRU stamps only (no data, no write-back
 * state): the runtime computes real values, and a penalty depends on
 * the access class alone (L1 hit, served from L2, missed both), so
 * loads and stores access a line alike. The cache exists purely to
 * charge miss penalties and count hit/miss statistics the way VTune's
 * Pentium model did.
 */

#ifndef MMXDSP_MEM_CACHE_HH
#define MMXDSP_MEM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace mmxdsp::mem {

/** Geometry and identification for one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    uint32_t size_bytes = 16 * 1024;
    uint32_t line_bytes = 32;
    uint32_t ways = 4;

    /** Caps that keep one level's tag array small: at most 6 MB. */
    static constexpr uint32_t kMaxLines = 1u << 18;
    static constexpr uint32_t kMaxWays = 64;

    /** Compact geometry label for sweep reports, e.g. "16KB/32B/4w". */
    std::string describe() const;

    /**
     * True when a Cache can be built from this geometry: size and line
     * are powers of two, the size splits into a power-of-two number of
     * sets of @c ways lines, and neither the line count nor @c ways
     * exceeds its cap. The Cache constructor enforces it; untrusted
     * geometries (vprofd query lines) are checked with it before they
     * reach a constructor.
     */
    bool valid() const;
};

/** Hit/miss counters for one cache level. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /** Always 0: the model writes nothing back. Kept because the
     *  pipeline benchmark's profile comparison (perfbench/src/common.cc)
     *  still reads it. */
    uint64_t writebacks = 0;

    bool operator==(const CacheStats &) const = default;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses)
                              / static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * Tag-only set-associative cache with true LRU.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access one cache line.
     *
     * Inline so the (overwhelmingly common) hit path costs a tag loop
     * and an LRU store at the call site; only misses leave the header.
     *
     * @param addr  byte address (the caller splits line-crossing accesses)
     * @return true on hit.
     */
    bool access(uint64_t addr)
    {
        ++stats_.accesses;
        ++tick_;
        const uint64_t line_addr = lineIndex(addr);
        const uint64_t set = setOf(line_addr);
        const uint64_t tag = tagOf(line_addr);
        Line *base = &lines_[set * ways_];
        for (uint32_t w = 0; w < ways_; ++w) {
            Line &line = base[w];
            if (line.lru != 0 && line.tag == tag) {
                line.lru = tick_;
                return true;
            }
        }
        missFill(base, tag);
        return false;
    }

    const CacheStats &stats() const { return stats_; }
    /** log2 of the line size (line size is always a power of two). */
    uint32_t lineShift() const { return lineShift_; }

  private:
    /** A way is empty iff its stamp is 0: tick_ is bumped before every
     *  access, so a filled way's stamp is nonzero. Any tag is a real
     *  tag (addresses are any u64), so none can mark an empty way. */
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lru = 0; ///< last-use timestamp; 0 = empty
    };

    uint64_t lineIndex(uint64_t addr) const { return addr >> lineShift_; }
    uint64_t setOf(uint64_t line_addr) const
    {
        return line_addr & (numSets_ - 1);
    }
    uint64_t tagOf(uint64_t line_addr) const { return line_addr >> setShift_; }

    /** Miss bookkeeping: victim choice, eviction stats, line install. */
    void missFill(Line *base, uint64_t tag);

    uint32_t numSets_;
    uint32_t ways_ = 1; ///< CacheConfig::ways, hoisted for the access loop
    /** log2(line_bytes) / log2(numSets_); both enforced powers of two. */
    uint32_t lineShift_ = 0;
    uint32_t setShift_ = 0;
    std::vector<Line> lines_; ///< numSets_ * ways, set-major
    uint64_t tick_ = 0;
    CacheStats stats_;
};

/**
 * The two-level data hierarchy with the paper's penalty numbers:
 * L1 miss detection costs 3 cycles, a line served from L2 costs 8 in
 * total, and an L2 miss costs 15 in total (paper, section 4.1).
 */
class MemoryHierarchy
{
  public:
    /** Penalty cycles, configurable for sensitivity studies. */
    struct Penalties
    {
        uint32_t l1_miss = 3;  ///< added on any L1 miss
        uint32_t l2_hit = 5;   ///< added when L2 has the line (total 8)
        uint32_t l2_miss = 7;  ///< added again when L2 misses (total 15)

        /**
         * Penalty charged for one access class: 0 = L1 hit, 1 = served
         * from L2, 2 = missed both levels.
         * Monotone non-decreasing in the class, which is what lets a
         * line-straddling access take the max over its two lines'
         * classes instead of their penalties.
         */
        uint32_t
        ofClass(uint32_t cls) const
        {
            uint32_t penalty = 0;
            if (cls >= 1)
                penalty += l1_miss + l2_hit;
            if (cls >= 2)
                penalty += l2_miss;
            return penalty;
        }
    };

    MemoryHierarchy();
    MemoryHierarchy(const CacheConfig &l1, const CacheConfig &l2,
                    const Penalties &penalties);

    /**
     * Simulate one data access and return the penalty in cycles
     * (0 for an L1 hit). Accesses that straddle a line boundary touch
     * both lines and pay the larger penalty. Inline: the timing model
     * calls this for every memory operand.
     */
    uint32_t access(uint64_t addr, uint32_t size)
    {
        const uint32_t shift = l1_.lineShift();
        const uint64_t first = addr >> shift;
        const uint64_t last = (addr + (size ? size - 1 : 0)) >> shift;
        uint32_t penalty = accessLine(addr);
        if (last != first)
            penalty = std::max(penalty, accessLine(last << shift));
        return penalty;
    }

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }

  private:
    uint32_t accessLine(uint64_t addr)
    {
        return penalties_.ofClass(classifyLine(addr));
    }

    uint32_t classifyLine(uint64_t addr)
    {
        if (l1_.access(addr))
            return 0;
        return l2_.access(addr) ? 1 : 2;
    }

    Cache l1_;
    Cache l2_;
    Penalties penalties_;
};

} // namespace mmxdsp::mem

#endif // MMXDSP_MEM_CACHE_HH
