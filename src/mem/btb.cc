#include "btb.hh"

#include "support/logging.hh"

namespace mmxdsp::mem {

bool
Btb::valid(uint32_t entries, uint32_t ways)
{
    if (ways == 0 || ways > kMaxWays || entries > kMaxEntries
        || entries % ways)
        return false;
    const uint32_t sets = entries / ways;
    return sets != 0 && (sets & (sets - 1)) == 0;
}

Btb::Btb(uint32_t entries, uint32_t ways)
    : ways_(ways)
{
    if (!valid(entries, ways))
        mmxdsp_fatal("BTB: %u entries / %u ways is not a power-of-two "
                     "set count of at most %u entries and %u ways",
                     entries, ways, kMaxEntries, kMaxWays);
    sets_ = entries / ways;
    entries_.resize(entries);
}

bool
Btb::missAllocate(Entry *base, uint32_t branch_id, bool taken)
{
    // Not present: predicted not-taken (fall-through).
    ++stats_.missesInBtb;
    if (!taken)
        return false;

    // Taken branch missing from the BTB: mispredict and allocate.
    ++stats_.mispredicts;
    // The victim is the least stamp, so the first empty way (stamp 0)
    // wins while one is left.
    Entry *victim = base;
    for (uint32_t w = 1; w < ways_; ++w) {
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }
    victim->id = branch_id;
    victim->counter = 2; // weakly taken after the first taken outcome
    victim->lru = tick_;
    return true;
}

} // namespace mmxdsp::mem
