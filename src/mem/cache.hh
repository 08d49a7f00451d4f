/**
 * @file
 * A set-associative, write-back/write-allocate cache model with true-LRU
 * replacement, used for the Pentium L1 data cache and the off-chip L2.
 *
 * The model tracks tags only (no data): the runtime computes real values;
 * the cache exists purely to charge miss penalties and count hit/miss
 * statistics the way VTune's Pentium model did.
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

    /** Compact geometry label for sweep reports, e.g. "16KB/32B/4w". */
    std::string describe() const;
};

/** Hit/miss counters for one cache level. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;

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
     * @param addr   byte address (the caller splits line-crossing accesses)
     * @param write  true for stores (marks the line dirty)
     * @return true on hit.
     */
    bool access(uint64_t addr, bool write)
    {
        ++stats_.accesses;
        ++tick_;
        const uint64_t line_addr = lineIndex(addr);
        const uint64_t set = setOf(line_addr);
        const uint64_t tag = tagOf(line_addr);
        Line *base = &lines_[set * ways_];
        for (uint32_t w = 0; w < ways_; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                line.lru = tick_;
                line.dirty = line.dirty || write;
                return true;
            }
        }
        missFill(base, tag, write);
        return false;
    }

    /** True if the line holding @p addr is currently resident. */
    bool probe(uint64_t addr) const;

    /** Drop all lines and reset LRU (stats are kept). */
    void flush();

    /** Reset statistics only. */
    void resetStats();

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }
    /** log2 of the line size (line size is always a power of two). */
    uint32_t lineShift() const { return lineShift_; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0; ///< last-use timestamp
    };

    uint64_t lineIndex(uint64_t addr) const { return addr >> lineShift_; }
    uint64_t setOf(uint64_t line_addr) const
    {
        return line_addr & (numSets_ - 1);
    }
    uint64_t tagOf(uint64_t line_addr) const { return line_addr >> setShift_; }

    /** Miss bookkeeping: victim choice, eviction stats, line install. */
    void missFill(Line *base, uint64_t tag, bool write);

    CacheConfig config_;
    uint32_t numSets_;
    uint32_t ways_ = 1; ///< config_.ways, hoisted for the access loop
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
    uint32_t access(uint64_t addr, uint32_t size, bool write)
    {
        const uint32_t shift = l1_.lineShift();
        const uint64_t first = addr >> shift;
        const uint64_t last = (addr + (size ? size - 1 : 0)) >> shift;
        uint32_t penalty = accessLine(addr, write);
        if (last != first)
            penalty = std::max(penalty, accessLine(last << shift, write));
        return penalty;
    }

    /** Invalidate both levels (between benchmark runs). */
    void flush();

    /** Reset statistics on both levels. */
    void resetStats();

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Penalties &penalties() const { return penalties_; }

  private:
    uint32_t accessLine(uint64_t addr, bool write)
    {
        return penalties_.ofClass(classifyLine(addr, write));
    }

    uint32_t classifyLine(uint64_t addr, bool write)
    {
        if (l1_.access(addr, write))
            return 0;
        return l2_.access(addr, write) ? 1 : 2;
    }

    Cache l1_;
    Cache l2_;
    Penalties penalties_;
};

} // namespace mmxdsp::mem

#endif // MMXDSP_MEM_CACHE_HH
