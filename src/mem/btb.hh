/**
 * @file
 * Branch target buffer model in the style of the Pentium's 256-entry,
 * 4-way BTB with 2-bit saturating counters.
 *
 * We have no program counter in the instrumented runtime, so branches are
 * identified by their static site id; this preserves the property that
 * matters to the model — one predictor entry per static branch, with
 * capacity/conflict effects across many branches.
 *
 * Prediction rules (matching VTune's documented Pentium behaviour):
 *  - branch not in the BTB: predicted not-taken; a taken branch then
 *    mispredicts and allocates an entry,
 *  - branch in the BTB: predicted by the 2-bit counter.
 */

#ifndef MMXDSP_MEM_BTB_HH
#define MMXDSP_MEM_BTB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmxdsp::mem {

/** BTB prediction statistics. */
struct BtbStats
{
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
    uint64_t missesInBtb = 0;

    double
    mispredictRate() const
    {
        return branches ? static_cast<double>(mispredicts)
                              / static_cast<double>(branches)
                        : 0.0;
    }
};

/**
 * 4-way set-associative BTB with per-entry 2-bit counters.
 */
class Btb
{
  public:
    /** @param entries total entries; @param ways associativity. */
    explicit Btb(uint32_t entries = 256, uint32_t ways = 4);

    /** Caps that keep the entry array small: at most 1 MB. */
    static constexpr uint32_t kMaxEntries = 1u << 16;
    static constexpr uint32_t kMaxWays = 64;

    /**
     * True when a Btb can be built with this geometry: @p ways > 0
     * divides @p entries into a power-of-two number of sets, and
     * neither @p entries nor @p ways exceeds its cap. The constructor
     * enforces it; untrusted geometries (vprofd query lines) are
     * checked with it first.
     */
    static bool valid(uint32_t entries, uint32_t ways);

    /**
     * Record one executed branch and return true if it was mispredicted.
     * Inline: the timing model calls this for every control transfer;
     * only the miss/allocate path leaves the header.
     *
     * @param branch_id stable identifier of the static branch
     * @param taken     actual outcome
     */
    bool predict(uint32_t branch_id, bool taken)
    {
        ++stats_.branches;
        ++tick_;

        // Scramble the id so consecutively allocated sites spread over
        // sets.
        const uint32_t h = branch_id * 2654435761u;
        const uint32_t set = (h >> 8) & (sets_ - 1);
        Entry *base = &entries_[static_cast<size_t>(set) * ways_];

        for (uint32_t w = 0; w < ways_; ++w) {
            Entry &e = base[w];
            if (e.lru != 0 && e.id == branch_id) {
                e.lru = tick_;
                const bool predicted_taken = e.counter >= 2;
                const bool mispredict = predicted_taken != taken;
                if (taken && e.counter < 3)
                    ++e.counter;
                else if (!taken && e.counter > 0)
                    --e.counter;
                stats_.mispredicts += mispredict;
                return mispredict;
            }
        }
        return missAllocate(base, branch_id, taken);
    }

    const BtbStats &stats() const { return stats_; }

  private:
    /** An entry is empty iff its stamp is 0 (tick_ is bumped before
     *  every prediction); any u32 is a real site id, so no id can mark
     *  an empty entry. */
    struct Entry
    {
        uint32_t id = 0;
        uint8_t counter = 0; ///< 2-bit: 0,1 -> not taken; 2,3 -> taken
        uint64_t lru = 0;    ///< last-use timestamp; 0 = empty
    };

    /** Not-present bookkeeping: fall-through or mispredict + allocate. */
    bool missAllocate(Entry *base, uint32_t branch_id, bool taken);

    uint32_t sets_;
    uint32_t ways_;
    std::vector<Entry> entries_;
    uint64_t tick_ = 0;
    BtbStats stats_;
};

} // namespace mmxdsp::mem

#endif // MMXDSP_MEM_BTB_HH
