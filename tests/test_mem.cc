/**
 * @file
 * Unit tests for the cache and BTB models.
 */

#include <gtest/gtest.h>

#include "mem/btb.hh"
#include "mem/cache.hh"

namespace mmxdsp::mem {
namespace {

CacheConfig
tinyCache()
{
    // 4 sets x 2 ways x 32B lines = 256 bytes.
    return CacheConfig{"tiny", 256, 32, 2};
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x101f)); // same 32B line
    EXPECT_FALSE(c.access(0x1020)); // next line
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictsOldestWay)
{
    Cache c(tinyCache());
    // Three lines mapping to the same set (set stride = 4 lines * 32B).
    const uint64_t stride = 4 * 32;
    c.access(0 * stride);
    c.access(1 * stride);
    // Touch line 0 so line 1 is LRU.
    c.access(0 * stride);
    c.access(2 * stride); // evicts line 1
    EXPECT_TRUE(c.access(0 * stride));
    EXPECT_TRUE(c.access(2 * stride));
    EXPECT_FALSE(c.access(1 * stride));
}

TEST(Cache, AnyAddressMissesColdThenHits)
{
    // An empty way is marked by its LRU stamp, not by a tag value, so
    // no address is mistaken for resident in a fresh cache: not 0
    // (tag 0 under the default geometry), and not UINT64_MAX in one
    // set of 1-byte lines, where the tag is the address itself.
    for (const auto &[config, addr] :
         {std::pair{CacheConfig{}, uint64_t{0}},
          std::pair{CacheConfig{"one-set", 64, 1, 64}, UINT64_MAX}}) {
        Cache c(config);
        EXPECT_FALSE(c.access(addr)) << config.describe();
        EXPECT_TRUE(c.access(addr)) << config.describe();
        EXPECT_EQ(c.stats().misses, 1u) << config.describe();
    }
}

TEST(Hierarchy, PaperPenalties)
{
    MemoryHierarchy h;
    // Cold: misses both levels -> 3 + 5 + 7 = 15 cycles (paper: L2 miss).
    EXPECT_EQ(h.access(0x5000, 4), 15u);
    // Now L1-hit: free.
    EXPECT_EQ(h.access(0x5000, 4), 0u);

    // Evict from L1 but not L2: walk enough lines to wrap L1 (16 KB,
    // 4-way, 32B lines -> 128 sets). Lines 0x5000 + k*16KB map to the
    // same L1 set.
    for (int k = 1; k <= 4; ++k)
        h.access(0x5000 + k * 16 * 1024, 4);
    // L1 evicted, L2 still has it -> 3 + 5 = 8 cycles (paper: L2 access).
    EXPECT_EQ(h.access(0x5000, 4), 8u);
}

TEST(Hierarchy, LineCrossingAccessTouchesBothLines)
{
    MemoryHierarchy h;
    // 8-byte access straddling a 32-byte boundary.
    uint32_t penalty = h.access(32 - 4, 8);
    EXPECT_EQ(penalty, 15u);
    // Both lines now resident.
    EXPECT_EQ(h.access(0, 4), 0u);
    EXPECT_EQ(h.access(32, 4), 0u);
}

TEST(Btb, FirstTakenBranchMispredicts)
{
    Btb b;
    EXPECT_TRUE(b.predict(1, true));   // unknown, taken -> mispredict
    EXPECT_FALSE(b.predict(1, true));  // now predicted taken
    EXPECT_FALSE(b.predict(1, true));
}

TEST(Btb, UnknownNotTakenIsCorrect)
{
    Btb b;
    EXPECT_FALSE(b.predict(2, false));
    EXPECT_FALSE(b.predict(2, false));
    EXPECT_EQ(b.stats().mispredicts, 0u);
}

TEST(Btb, AnyIdMissesInAFreshBtb)
{
    // An empty entry is marked by its LRU stamp, so no site id, 0 and
    // UINT32_MAX included, finds one in a fresh BTB.
    Btb b;
    EXPECT_TRUE(b.predict(0, true));
    EXPECT_TRUE(b.predict(UINT32_MAX, true));
    EXPECT_EQ(b.stats().missesInBtb, 2u);
    // Both were allocated and now hit, predicted taken.
    EXPECT_FALSE(b.predict(0, true));
    EXPECT_FALSE(b.predict(UINT32_MAX, true));
    EXPECT_EQ(b.stats().missesInBtb, 2u);
}

TEST(Btb, LoopExitMispredictsOnce)
{
    Btb b;
    // Train a loop branch: taken 100 times.
    b.predict(3, true); // allocate (mispredict)
    for (int i = 0; i < 99; ++i)
        EXPECT_FALSE(b.predict(3, true));
    // Loop exit.
    EXPECT_TRUE(b.predict(3, false));
    // Counter went 3 -> 2; still predicted taken on re-entry.
    EXPECT_FALSE(b.predict(3, true));
}

TEST(Btb, TwoBitHysteresis)
{
    Btb b;
    b.predict(4, true); // allocate at weakly-taken (2)
    b.predict(4, true); // -> 3
    EXPECT_TRUE(b.predict(4, false));  // 3 -> 2, mispredict
    EXPECT_TRUE(b.predict(4, false));  // 2 -> 1, mispredict (was taken)
    EXPECT_FALSE(b.predict(4, false)); // now predicted not-taken
}

TEST(Btb, CapacityConflictsEvict)
{
    Btb b(8, 2); // 4 sets x 2 ways
    // Many distinct always-taken branches thrash the tiny BTB; each
    // re-encounter after eviction mispredicts again.
    for (int round = 0; round < 3; ++round) {
        for (uint32_t id = 0; id < 64; ++id)
            b.predict(id, true);
    }
    // With only 8 entries, the mispredict count must stay high in
    // steady state (most accesses re-allocate).
    EXPECT_GT(b.stats().mispredicts, 120u);
}

TEST(Cache, SequentialSweepMissesOncePerLine)
{
    // Property: a cold sequential sweep of N bytes misses exactly
    // ceil(N / line) times, regardless of access size.
    Cache c(CacheConfig{"sweep", 16 * 1024, 32, 4});
    const uint64_t bytes = 8 * 1024;
    for (uint64_t a = 0; a < bytes; a += 4)
        c.access(a);
    EXPECT_EQ(c.stats().misses, bytes / 32);
    // Second sweep fits: all hits.
    uint64_t before = c.stats().misses;
    for (uint64_t a = 0; a < bytes; a += 4)
        c.access(a);
    EXPECT_EQ(c.stats().misses, before);
}

TEST(Cache, ThrashingSweepMissesEveryTime)
{
    // A working set of 2x the cache size with LRU misses on every
    // access of a repeated sequential sweep.
    Cache c(CacheConfig{"thrash", 1024, 32, 2});
    for (int round = 0; round < 3; ++round) {
        for (uint64_t a = 0; a < 2048; a += 32)
            c.access(a);
    }
    EXPECT_EQ(c.stats().misses, c.stats().accesses);
}

TEST(Btb, AlternatingBranchIsTheTwoBitWorstCase)
{
    // A strictly alternating branch ping-pongs the 2-bit counter
    // between the two weak states and mispredicts every time — the
    // counter's textbook worst case.
    Btb b;
    uint64_t before_mpr = 0;
    for (int i = 0; i < 200; ++i) {
        b.predict(9, i % 2 == 0);
        if (i == 99)
            before_mpr = b.stats().mispredicts;
    }
    uint64_t late = b.stats().mispredicts - before_mpr;
    EXPECT_EQ(late, 100u);
}

} // namespace
} // namespace mmxdsp::mem
