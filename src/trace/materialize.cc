#include "materialize.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "sim/p6_timer.hh"
#include "sim/uop.hh"
#include "support/logging.hh"
#include "support/parallel.hh"

namespace mmxdsp::trace {

using isa::InstrEvent;
using isa::MemMode;

namespace {

/** Events staged per onInstrBatch() call: big enough to amortize the
 *  virtual dispatch, small enough to stay resident in L1D. */
constexpr size_t kBatchEvents = 512;

} // namespace

void
MaterializedTrace::derive(const std::vector<uint64_t> &sidCounts)
{
    // The OpFacts of every static entry: its descriptor and flags.
    const sim::UopDesc *descs = sim::descTable().data();
    facts_.resize(statics_.size());
    for (size_t sid = 0; sid < statics_.size(); ++sid) {
        const StaticInstr &s = statics_[sid];
        OpFacts &f = facts_[sid];
        f.desc = static_cast<uint16_t>(s.op * 3u + s.mem);
        f.flags = descs[f.desc].flags;
    }

    // The function-run list and the per-function counts: each Run
    // segment belongs to the function on top of the enter/leave stack,
    // adjacent runs of one function merge, and each Enter is a call.
    fnRuns_.clear();
    fnCounts_.assign(fnNames_.size(), profile::FunctionStats{});
    std::vector<uint32_t> stack;
    uint32_t current = 0;
    for (const Segment &seg : segments_) {
        switch (seg.kind) {
          case Segment::Enter:
            stack.push_back(seg.value);
            current = seg.value;
            ++fnCounts_[current].calls;
            break;
          case Segment::Leave:
            if (!stack.empty())
                stack.pop_back();
            current = stack.empty() ? 0 : stack.back();
            break;
          case Segment::Run:
            if (!seg.value)
                break;
            fnCounts_[current].instructions += seg.value;
            if (!fnRuns_.empty() && fnRuns_.back().fnId == current
                && fnRuns_.back().count <= UINT32_MAX - seg.value)
                fnRuns_.back().count += seg.value;
            else
                fnRuns_.push_back({seg.value, current});
            break;
        }
    }

    // The config-independent tallies depend only on the static entry,
    // so they fold from the per-entry event counts.
    profile::ProfileResult counts{};
    controlCount_ = 0;
    for (size_t sid = 0; sid < statics_.size(); ++sid) {
        const StaticInstr &s = statics_[sid];
        const uint64_t count = sidCounts[sid];
        const OpFacts &f = facts_[sid];
        counts.dynamicInstructions += count;
        counts.uops += count * descs[f.desc].uops;
        counts.memoryReferences += s.mem ? count : 0;
        counts.opCounts[s.op] += count;
        const isa::MmxCategory cat =
            isa::opInfo(static_cast<isa::Op>(s.op)).mmx;
        if (cat != isa::MmxCategory::None)
            counts.mmxByCategory[static_cast<size_t>(cat)] += count;
        if (f.flags & sim::kDescControl)
            controlCount_ += count;
    }
    counts.functionCalls =
        counts.opCounts[static_cast<size_t>(isa::Op::Call)];
    counts.staticInstructions = executedSites(sidCounts).size();
    for (size_t c = 1; c < counts.mmxByCategory.size(); ++c)
        counts.mmxInstructions += counts.mmxByCategory[c];
    counts_ = counts;
}

std::vector<uint32_t>
MaterializedTrace::executedSites(const std::vector<uint64_t> &sidCounts) const
{
    // Sorted rather than marked in a site-indexed array: a site id is
    // any u32, and nothing is sized by a value an image supplies.
    std::vector<uint32_t> sites;
    for (size_t sid = 0; sid < statics_.size(); ++sid)
        if (sidCounts[sid])
            sites.push_back(statics_[sid].site);
    std::sort(sites.begin(), sites.end());
    sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
    return sites;
}

size_t
MaterializedTrace::byteSize() const
{
    size_t bytes = ops_.size() * sizeof(PackedOp)
                   + addrLo_.size() * sizeof(uint32_t)
                   + statics_.size() * sizeof(StaticInstr)
                   + regions_.size() * sizeof(uint32_t)
                   + segments_.size() * sizeof(Segment)
                   + facts_.size() * sizeof(OpFacts)
                   + fnRuns_.size() * sizeof(FnRun)
                   + siteMeta_.size() * sizeof(SiteMeta);
    for (const std::string &s : fnNames_)
        bytes += s.size();
    for (const std::string &s : strings_)
        bytes += s.size();
    return bytes;
}

bool
MaterializedTrace::replayTo(sim::TraceSink &sink) const
{
    if (!valid_)
        return false;
    std::array<InstrEvent, kBatchEvents> buf;
    size_t pos = 0;
    size_t memIdx = 0;
    for (const Segment &seg : segments_) {
        switch (seg.kind) {
          case Segment::Enter:
            sink.onEnterFunction(fnNames_[seg.value].c_str());
            break;
          case Segment::Leave:
            sink.onLeaveFunction();
            break;
          case Segment::Run: {
            size_t remaining = seg.value;
            while (remaining) {
                const size_t chunk = std::min(remaining, kBatchEvents);
                for (size_t i = 0; i < chunk; ++i)
                    buf[i] = decode(ops_[pos + i], memIdx);
                sink.onInstrBatch(
                    std::span<const InstrEvent>(buf.data(), chunk));
                pos += chunk;
                remaining -= chunk;
            }
            break;
          }
        }
    }
    return true;
}

MaterializedTrace::Memos::CacheKey
MaterializedTrace::Memos::cacheKey(const sim::TimerConfig &c)
{
    return {c.l1.size_bytes, c.l1.line_bytes, c.l1.ways,
            c.l2.size_bytes, c.l2.line_bytes, c.l2.ways};
}

MaterializedTrace::Memos::BtbKey
MaterializedTrace::Memos::btbKey(const sim::TimerConfig &c)
{
    return {c.btb_entries, c.btb_ways};
}

size_t
MaterializedTrace::Memos::byteSize() const
{
    size_t bytes = 0;
    for (const auto &[key, memo] : cache_)
        bytes += sizeof(cache_[0]) + memo.cls.capacity();
    for (const auto &[key, memo] : btb_)
        bytes += sizeof(btb_[0]) + memo.bits.capacity() * sizeof(uint64_t);
    return bytes;
}

void
MaterializedTrace::Memos::clear()
{
    cache_ = {};
    btb_ = {};
}

void
MaterializedTrace::buildCacheMemos(
    const mem::CacheConfig &l1, const std::vector<const mem::CacheConfig *> &l2s,
    const std::vector<CacheMemo *> &out) const
{
    // Geometry-only simulation: penalties do not influence tag-array
    // behaviour, so one class stream serves every penalty set.
    //
    // The L1 pass keeps each line it misses, in probe order, with the
    // memory event it belongs to. Mirrors MemoryHierarchy::access(): a
    // line-straddling access probes both lines, the first under its
    // full address.
    struct Miss
    {
        uint64_t addr;
        uint32_t event; ///< memory-event index
    };
    mem::Cache first(l1);
    const uint32_t shift = first.lineShift();
    std::vector<Miss> misses;
    const StaticInstr *statics = statics_.data();
    const uint32_t *regions = regions_.data();
    const uint32_t *addrLo = addrLo_.data();
    size_t j = 0;
    for (const PackedOp &p : ops_) {
        const StaticInstr &s = statics[p.sid];
        if (!s.mem)
            continue;
        const uint64_t a = uint64_t{regions[p.ev >> 1]} << 32 | addrLo[j];
        const uint64_t line = a >> shift;
        const uint64_t last = (a + (s.size ? s.size - 1 : 0)) >> shift;
        const uint32_t event = static_cast<uint32_t>(j++);
        if (!first.access(a))
            misses.push_back({a, event});
        if (last != line && !first.access(last << shift))
            misses.push_back({last << shift, event});
    }

    // Each L2 then runs over just those lines. An event the L1 served
    // stays class 0; a straddling one takes the larger class of its
    // lines (class order is penalty order, Penalties::ofClass() being
    // monotone).
    for (size_t k = 0; k < l2s.size(); ++k) {
        mem::Cache second(*l2s[k]);
        CacheMemo &memo = *out[k];
        memo.cls.assign(counts_.memoryReferences, 0);
        for (const Miss &m : misses) {
            const uint8_t c = second.access(m.addr) ? 1 : 2;
            uint8_t &cls = memo.cls[m.event];
            cls = std::max(cls, c);
        }
        for (size_t p = 0; p < misses.size(); ++p) {
            if (p + 1 < misses.size()
                && misses[p + 1].event == misses[p].event)
                continue; // count a straddling event once, at its last line
            const uint8_t cls = memo.cls[misses[p].event];
            memo.l2Served += cls == 1;
            memo.l2Missed += cls == 2;
        }
        memo.l1 = first.stats();
        memo.l2 = second.stats();
    }
}

BtbMemo
MaterializedTrace::buildBtbMemo(uint32_t entries, uint32_t ways) const
{
    BtbMemo memo;
    memo.bits.assign((controlCount_ + 63) / 64, 0);
    mem::Btb btb(entries, ways);
    const OpFacts *facts = facts_.data();
    const StaticInstr *statics = statics_.data();
    size_t branch = 0;
    for (const PackedOp &p : ops_) {
        if (facts[p.sid].flags & sim::kDescControl) {
            if (btb.predict(statics[p.sid].site, (p.ev & 1) != 0))
                memo.bits[branch >> 6] |= uint64_t{1} << (branch & 63);
            ++branch;
        }
    }
    memo.stats = btb.stats();
    return memo;
}

profile::ProfileResult
MaterializedTrace::runKernel(const sim::MachineConfig &machine,
                             const CacheMemo *cache, const BtbMemo *btb) const
{
    const sim::TimerConfig &c = machine.timer;
    switch (machine.model) {
      case sim::ModelKind::P6:
        return cache ? runKernelImpl<sim::P6Timer, true>(c, cache, btb)
                     : runKernelImpl<sim::P6Timer, false>(c, cache, btb);
      case sim::ModelKind::P6P:
        return cache ? runKernelImpl<sim::P6PTimer, true>(c, cache, btb)
                     : runKernelImpl<sim::P6PTimer, false>(c, cache, btb);
      case sim::ModelKind::P5:
        break;
    }
    return cache ? runKernelImpl<sim::PentiumTimer, true>(c, cache, btb)
                 : runKernelImpl<sim::PentiumTimer, false>(c, cache, btb);
}

template <typename Model, bool Memoized>
profile::ProfileResult
MaterializedTrace::runKernelImpl(const sim::TimerConfig &config,
                                 const CacheMemo *cache,
                                 const BtbMemo *btb) const
{
    // The config-independent counts come from the template (assemble());
    // this loop only runs the timing model and attributes its cycles.
    // Model is a final class, so every consume call below devirtualizes
    // and inlines.
    std::vector<uint64_t> fnCycles(fnNames_.size(), 0);
    uint64_t callRet = 0;
    uint64_t overhead = 0;

    // With memos, consumeResolved() never touches the timer's own
    // cache hierarchy and BTB, so they get the smallest legal geometry
    // instead of real tag arrays.
    sim::TimerConfig timing = config;
    if constexpr (Memoized) {
        timing.l1 = timing.l2 = mem::CacheConfig{"unused", 8, 8, 1};
        timing.btb_entries = timing.btb_ways = 1;
    }
    Model timer(timing);
    const uint8_t *cls = Memoized ? cache->cls.data() : nullptr;
    const uint64_t *bits = Memoized ? btb->bits.data() : nullptr;
    const std::array<uint32_t, 3> penaltyOf = {
        0, config.penalties.ofClass(1), config.penalties.ofClass(2)};

    const PackedOp *ops = ops_.data();
    const OpFacts *facts = facts_.data();
    const StaticInstr *statics = statics_.data();
    size_t memIdx = 0;
    size_t branch = 0;
    size_t i = 0;

    for (const FnRun &run : fnRuns_) {
        uint64_t runCycles = 0;
        for (const size_t runEnd = i + run.count; i < runEnd; ++i) {
            const PackedOp &p = ops[i];
            const uint8_t f = facts[p.sid].flags;
            uint64_t cost;
            if constexpr (Memoized) {
                // consumeResolved() reads only the op, the memory mode
                // and the register tags, so the address column is
                // never loaded.
                const StaticInstr &s = statics[p.sid];
                InstrEvent e;
                e.op = static_cast<isa::Op>(s.op);
                e.mem = static_cast<MemMode>(s.mem);
                e.src0 = p.src0;
                e.src1 = p.src1;
                e.dst = p.dst;
                // Both outcomes were recorded once for these geometries.
                uint32_t penalty = 0;
                if (f & sim::kDescMem)
                    penalty = penaltyOf[cls[memIdx++]];
                bool mispredict = false;
                if (f & sim::kDescControl) {
                    mispredict = (bits[branch >> 6] >> (branch & 63)) & 1;
                    ++branch;
                }
                cost = timer.consumeResolved(e, penalty, mispredict);
            } else {
                cost = timer.consume(decode(p, memIdx));
            }
            runCycles += cost;
            // Branchless attribution from the static entry's flags.
            callRet +=
                cost & -static_cast<uint64_t>((f & sim::kDescCallRet) != 0);
            overhead +=
                cost & -static_cast<uint64_t>((f & sim::kDescOverhead) != 0);
        }
        fnCycles[run.fnId] += runCycles;
    }

    Measured m{timer.cycles(), callRet, overhead, timer.stats(), {}, {}, {}};
    if constexpr (Memoized) {
        m.l1 = cache->l1;
        m.l2 = cache->l2;
        m.btb = btb->stats;
    } else {
        m.l1 = timer.memory().l1().stats();
        m.l2 = timer.memory().l2().stats();
        m.btb = timer.btb().stats();
    }
    return assemble(m, fnCycles.data(), 1);
}

profile::ProfileResult
MaterializedTrace::assemble(const Measured &m, const uint64_t *fnCycles,
                            size_t stride) const
{
    profile::ProfileResult r = counts_;
    r.cycles = m.cycles;
    r.callRetCycles = m.callRet;
    r.callOverheadCycles = m.overhead;
    r.timer = m.timer;
    r.l1 = m.l1;
    r.l2 = m.l2;
    r.btb = m.btb;
    for (size_t id = 0; id < fnCounts_.size(); ++id) {
        const profile::FunctionStats &st = fnCounts_[id];
        if (st.calls || st.instructions) {
            profile::FunctionStats full = st;
            full.cycles = fnCycles[id * stride];
            r.functions.emplace(fnNames_[id], full);
        }
    }
    return r;
}

profile::ProfileResult
MaterializedTrace::replayProfile(const sim::MachineConfig &machine) const
{
    return runKernel(machine, nullptr, nullptr);
}

std::vector<profile::ProfileResult>
MaterializedTrace::replaySweepScalar(
    const std::vector<sim::MachineConfig> &machines, int threads,
    Memos *memos) const
{
    if (memos)
        return runSweep(machines, threads, memos, SweepRoute::Dispatch,
                        LaneIsa::None);
    std::vector<profile::ProfileResult> results(machines.size());
    parallelFor(machines.size(), threads, [&](size_t i) {
        results[i] = runKernel(machines[i], nullptr, nullptr);
    });
    return results;
}

namespace {

/** Index of @p key in a memo list, or the list's size when absent. */
template <typename Key, typename Memo>
size_t
memoIndex(const std::vector<std::pair<Key, Memo>> &memos, const Key &key)
{
    size_t k = 0;
    while (k < memos.size() && memos[k].first != key)
        ++k;
    return k;
}

} // namespace

MaterializedTrace::MemoPass
MaterializedTrace::planMemos(const std::vector<sim::MachineConfig> &machines,
                             Memos &memos) const
{
    if (memos.owner_ && memos.owner_ != this)
        mmxdsp_panic("replay memos used with a second trace");
    memos.owner_ = this;

    // Resolve every entry's geometries against the recorded memos; each
    // missing one is recorded once, for the first entry using it. An
    // entry that finds both of its geometries already recorded is a hit.
    const size_t n = machines.size();
    const size_t cacheBase = memos.cache_.size();
    const size_t btbBase = memos.btb_.size();
    MemoPass pass;
    std::vector<const sim::TimerConfig *> cacheCfg; ///< per newCache entry
    std::vector<size_t> cacheOf(n);
    std::vector<size_t> btbOf(n);
    for (size_t i = 0; i < n; ++i) {
        const sim::TimerConfig &tc = machines[i].timer;
        const Memos::CacheKey ck = Memos::cacheKey(tc);
        size_t c = memoIndex(memos.cache_, ck);
        if (c == cacheBase) {
            c += memoIndex(pass.newCache, ck);
            if (c == cacheBase + pass.newCache.size()) {
                pass.newCache.push_back({ck, {}});
                cacheCfg.push_back(&tc);
            }
        }
        const Memos::BtbKey bk = Memos::btbKey(tc);
        size_t b = memoIndex(memos.btb_, bk);
        if (b == btbBase) {
            b += memoIndex(pass.newBtb, bk);
            if (b == btbBase + pass.newBtb.size())
                pass.newBtb.push_back({bk, {}});
        }
        cacheOf[i] = c;
        btbOf[i] = b;
        memos.hits_ += c < cacheBase && b < btbBase;
    }

    // New cache geometries grouped by L1: one recorder per group filters
    // the events through the L1 once for all of its L2 geometries, so
    // the 12 geometries of a 4 x 3 L1 x L2 grid cost 4 full passes.
    std::vector<std::vector<size_t>> byL1;
    for (size_t g = 0; g < pass.newCache.size(); ++g) {
        const auto sameL1 = [&](const std::vector<size_t> &group) {
            return std::equal(pass.newCache[g].first.begin(),
                              pass.newCache[g].first.begin() + 3,
                              pass.newCache[group[0]].first.begin());
        };
        auto it = std::find_if(byL1.begin(), byL1.end(), sameL1);
        if (it == byL1.end())
            byL1.push_back({g});
        else
            it->push_back(g);
    }
    for (const std::vector<size_t> &group : byL1) {
        std::vector<const mem::CacheConfig *> l2s;
        std::vector<CacheMemo *> out;
        for (size_t g : group) {
            l2s.push_back(&cacheCfg[g]->l2);
            out.push_back(&pass.newCache[g].second);
        }
        pass.recorders.push_back(
            [this, l1 = cacheCfg[group[0]]->l1, l2s, out] {
                buildCacheMemos(l1, l2s, out);
            });
    }
    for (auto &[key, memo] : pass.newBtb)
        pass.recorders.push_back([this, key = key, memo = &memo] {
            *memo = buildBtbMemo(key[0], key[1]);
        });

    pass.refs.resize(n);
    for (size_t i = 0; i < n; ++i) {
        pass.refs[i].cache =
            cacheOf[i] < cacheBase
                ? &memos.cache_[cacheOf[i]].second
                : &pass.newCache[cacheOf[i] - cacheBase].second;
        pass.refs[i].btb = btbOf[i] < btbBase
                               ? &memos.btb_[btbOf[i]].second
                               : &pass.newBtb[btbOf[i] - btbBase].second;
    }
    return pass;
}

std::string
MaterializedTrace::siteLabel(uint32_t site) const
{
    if (site >= siteMeta_.size() || siteMeta_[site].file < 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "site#%u", site);
        return buf;
    }
    const SiteMeta &meta = siteMeta_[site];
    const char *file = strings_[static_cast<size_t>(meta.file)].c_str();
    if (const char *slash = std::strrchr(file, '/'))
        file = slash + 1;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s:%u", file, meta.line);
    return buf;
}

} // namespace mmxdsp::trace
