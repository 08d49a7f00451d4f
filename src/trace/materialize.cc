#include "materialize.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <span>
#include <unordered_map>
#include <utility>

#include "sim/p6_timer.hh"
#include "sim/p6p_timer.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "trace/writer.hh"

namespace mmxdsp::trace {

using isa::InstrEvent;
using isa::MemMode;

namespace {

/** Events staged per onInstrBatch() call: big enough to amortize the
 *  virtual dispatch, small enough to stay resident in L1D. */
constexpr size_t kBatchEvents = 512;

} // namespace

/**
 * The recording sink build() drives the TraceReader through: writes
 * every event into the pre-sized structure-of-arrays buffers, interns
 * function names, and resolves the owning function id per event. Event
 * fields go through raw pointers (the arrays were resized to the
 * header's instruction count up front), so the per-event cost is plain
 * stores rather than nine capacity-checked push_backs.
 */
struct MaterializedTrace::BuildSink final : sim::TraceSink
{
    BuildSink(MaterializedTrace &trace, size_t count)
        : t(trace), n(count), op(trace.op_.mutableData()),
          flags(trace.flags_.mutableData()), size(trace.size_.mutableData()),
          src0(trace.src0_.mutableData()), src1(trace.src1_.mutableData()),
          dst(trace.dst_.mutableData()), site(trace.site_.mutableData()),
          addr(trace.addr_.mutableData()), fnId(trace.fnId_.mutableData())
    {
        // Per-op flag bits, derived once so onInstr() and the replay
        // kernels never consult the op tables.
        opBits = opFlagBits();
    }

    void
    onInstr(const InstrEvent &e) override
    {
        if (idx >= n) {
            overflow = true;
            return;
        }
        const size_t i = idx++;
        op[i] = static_cast<uint16_t>(e.op);
        flags[i] = static_cast<uint8_t>(
            (static_cast<uint8_t>(e.mem) & kFlagMemMask)
            | (e.taken ? kFlagTaken : 0)
            | opBits[static_cast<size_t>(e.op)]);
        size[i] = e.size;
        src0[i] = e.src0;
        src1[i] = e.src1;
        dst[i] = e.dst;
        site[i] = e.site;
        addr[i] = e.addr;
        fnId[i] = current;
        ++run;
    }

    void
    onEnterFunction(const char *name) override
    {
        flushRun();
        auto [it, inserted] =
            fnIds.try_emplace(name ? name : "", static_cast<uint32_t>(0));
        if (inserted) {
            it->second = static_cast<uint32_t>(t.fnNames_.size());
            t.fnNames_.push_back(it->first);
            t.fnCounts_.emplace_back();
        }
        const uint32_t id = it->second;
        stack.push_back(id);
        current = id;
        ++t.fnCounts_[id].calls;
        segs.push_back({Segment::Enter, id});
    }

    void
    onLeaveFunction() override
    {
        flushRun();
        if (!stack.empty())
            stack.pop_back();
        current = stack.empty() ? 0 : stack.back();
        segs.push_back({Segment::Leave, 0});
    }

    /** Close the open instruction run (instead of touching the segment
     *  list per event, onInstr just counts and a marker flushes). */
    void
    flushRun()
    {
        if (run) {
            segs.push_back({Segment::Run, run});
            run = 0;
        }
    }

    MaterializedTrace &t;
    /** Staged segment list, adopted into t.segments_ after the run. */
    std::vector<Segment> segs;
    size_t n;
    uint16_t *op;
    uint8_t *flags;
    uint8_t *size;
    uint8_t *src0;
    uint8_t *src1;
    uint8_t *dst;
    uint32_t *site;
    uint64_t *addr;
    uint32_t *fnId;
    std::array<uint8_t, isa::kNumOps> opBits{};
    std::unordered_map<std::string, uint32_t> fnIds;
    std::vector<uint32_t> stack;
    size_t idx = 0;
    bool overflow = false;
    uint32_t current = 0;
    uint32_t run = 0; ///< length of the currently open instruction run
};

std::array<uint8_t, isa::kNumOps>
MaterializedTrace::opFlagBits()
{
    std::array<uint8_t, isa::kNumOps> bits{};
    const auto &table = profile::opReplayTable();
    for (size_t o = 0; o < bits.size(); ++o) {
        uint8_t b = 0;
        if (isa::isControl(static_cast<isa::Op>(o)))
            b |= kFlagControl;
        if (table[o].costClass == profile::kCostCall
            || table[o].costClass == profile::kCostRet)
            b |= kFlagCallRet | kFlagOverhead;
        else if (table[o].costClass == profile::kCostPushPop)
            b |= kFlagOverhead;
        bits[o] = b;
    }
    return bits;
}

void
MaterializedTrace::finalizeFromBuffers()
{
    const size_t n = op_.size();
    uint32_t maxSite = 0;
    for (size_t i = 0; i < n; ++i)
        maxSite = std::max(maxSite, site_[i]);
    siteTableSize_ = n ? maxSite + 1 : 0;
    for (size_t i = 0; i < n; ++i)
        ++fnCounts_[fnId_[i]].instructions;

    // Fold every config-independent metric into the result template so
    // the per-config kernel only has to produce cycle attribution.
    const auto &table = profile::opReplayTable();
    std::vector<uint8_t> seen(siteTableSize_, 0);
    counts_.dynamicInstructions = n;
    for (size_t i = 0; i < n; ++i) {
        const size_t op_idx = op_[i];
        const size_t mem_idx = flags_[i] & kFlagMemMask;
        const profile::OpReplayEntry &entry = table[op_idx];
        counts_.uops += entry.uopsByMem[mem_idx];
        counts_.memoryReferences += mem_idx != 0;
        ++counts_.opCounts[op_idx];
        if (entry.mmxCategory)
            ++counts_.mmxByCategory[entry.mmxCategory];
        counts_.functionCalls += entry.costClass == profile::kCostCall;
        controlCount_ += (flags_[i] & kFlagControl) != 0;
        const uint32_t site = site_[i];
        counts_.staticInstructions += seen[site] == 0;
        seen[site] = 1;
    }
    for (size_t c = 1; c < counts_.mmxByCategory.size(); ++c)
        counts_.mmxInstructions += counts_.mmxByCategory[c];
}

bool
MaterializedTrace::build(const TraceReader &reader)
{
    *this = MaterializedTrace();
    if (!reader.valid())
        return false;

    benchmark_ = reader.benchmark();
    version_ = reader.version();
    configHash_ = reader.configHash();

    const size_t n = static_cast<size_t>(reader.instrCount());
    op_.alloc(n);
    flags_.alloc(n);
    size_.alloc(n);
    src0_.alloc(n);
    src1_.alloc(n);
    dst_.alloc(n);
    site_.alloc(n);
    addr_.alloc(n);
    fnId_.alloc(n);

    fnNames_.emplace_back(profile::rootFunctionName());
    fnCounts_.emplace_back();

    BuildSink sink(*this, n);
    // A body whose event count disagrees with the header is corrupt.
    if (!reader.replayTo(sink) || sink.overflow || sink.idx != n) {
        *this = MaterializedTrace();
        return false;
    }
    sink.flushRun();
    segments_.adopt(std::move(sink.segs));

    // Everything derivable from the filled buffers happens in this
    // finalize scan, keeping the per-event sink above to plain stores.
    finalizeFromBuffers();

    // Re-intern the trace's site metadata into a dense table. Walk the
    // ids in ascending order (not unordered_map order) so the string
    // table — and therefore the serialized v2 image — comes out
    // byte-identical to a direct MaterializeSink capture of the same
    // event stream, which interns metadata the same way.
    if (!reader.sites().empty()) {
        siteMeta_.resize(siteTableSize_);
        std::vector<uint32_t> ids;
        ids.reserve(reader.sites().size());
        for (const auto &[id, site] : reader.sites())
            ids.push_back(id);
        std::sort(ids.begin(), ids.end());
        std::unordered_map<std::string, int32_t> stringIds;
        auto intern = [&](const std::string &s) {
            auto [it, inserted] =
                stringIds.try_emplace(s, static_cast<int32_t>(0));
            if (inserted) {
                it->second = static_cast<int32_t>(strings_.size());
                strings_.push_back(s);
            }
            return it->second;
        };
        for (uint32_t id : ids) {
            const TraceReader::Site &site = reader.sites().at(id);
            if (id >= siteMeta_.size())
                siteMeta_.resize(static_cast<size_t>(id) + 1);
            SiteMeta &meta = siteMeta_[id];
            meta.line = site.line;
            meta.column = site.column;
            meta.file = intern(site.file);
            meta.function = intern(site.function);
        }
    }

    valid_ = true;
    return true;
}

size_t
MaterializedTrace::byteSize() const
{
    size_t bytes = op_.size()
                       * (sizeof(uint16_t) + 4 * sizeof(uint8_t)
                          + 2 * sizeof(uint32_t) + sizeof(uint64_t))
                   + segments_.size() * sizeof(Segment)
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
                    buf[i] = eventAt(pos + i);
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

std::vector<uint8_t>
MaterializedTrace::serializeV1() const
{
    TraceWriter writer(benchmark_, version_, configHash_);
    replayTo(writer);
    // Rebuild the site-metadata rows from the re-interned tables; rows
    // the original capture never recorded stay at file/function == -1
    // and are skipped, so the section matches a live capture's.
    std::vector<TraceWriter::SiteRow> rows;
    for (uint32_t id = 0; id < siteMeta_.size(); ++id) {
        const SiteMeta &m = siteMeta_[id];
        if (m.file < 0 && m.function < 0)
            continue;
        rows.push_back(
            {id, m.line, m.column,
             m.file >= 0 ? strings_[static_cast<size_t>(m.file)].c_str()
                         : "",
             m.function >= 0
                 ? strings_[static_cast<size_t>(m.function)].c_str()
                 : ""});
    }
    writer.finish(std::span<const TraceWriter::SiteRow>(rows));
    return writer.serialize();
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
        bool write;
    };
    mem::Cache first(l1);
    const uint32_t shift = first.lineShift();
    std::vector<Miss> misses;
    const uint8_t *flags = flags_.data();
    const uint64_t *addr = addr_.data();
    const uint8_t *size = size_.data();
    const size_t n = op_.size();
    size_t j = 0;
    for (size_t i = 0; i < n; ++i) {
        const uint8_t f = flags[i];
        if (!(f & kFlagMemMask))
            continue;
        const uint64_t a = addr[i];
        const bool w = static_cast<MemMode>(f & kFlagMemMask) == MemMode::Store;
        const uint64_t line = a >> shift;
        const uint64_t last = (a + (size[i] ? size[i] - 1 : 0)) >> shift;
        const uint32_t event = static_cast<uint32_t>(j++);
        if (!first.access(a, w))
            misses.push_back({a, event, w});
        if (last != line && !first.access(last << shift, w))
            misses.push_back({last << shift, event, w});
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
            const uint8_t c = second.access(m.addr, m.write) ? 1 : 2;
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
    const uint8_t *flags = flags_.data();
    const uint32_t *site = site_.data();
    const size_t n = op_.size();
    size_t branch = 0;
    for (size_t i = 0; i < n; ++i) {
        const uint8_t f = flags[i];
        if (f & kFlagControl) {
            if (btb.predict(site[i], (f & kFlagTaken) != 0))
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
    // Start from the config-independent template; this loop only runs
    // the timing model and attributes its cycles. Model is a final
    // class, so every consume call below devirtualizes and inlines.
    profile::ProfileResult r = counts_;
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

    const uint8_t *flags = flags_.data();
    const uint32_t *fnId = fnId_.data();
    size_t memIdx = 0;
    size_t branch = 0;

    const size_t n = op_.size();
    for (size_t i = 0; i < n; ++i) {
        const uint8_t f = flags[i];
        uint64_t cost;
        if constexpr (Memoized) {
            // consumeResolved() reads only the op, the memory mode and
            // the register tags, so the address, size and site columns
            // are never loaded.
            InstrEvent e;
            e.op = static_cast<isa::Op>(op_[i]);
            e.mem = static_cast<MemMode>(f & kFlagMemMask);
            e.src0 = src0_[i];
            e.src1 = src1_[i];
            e.dst = dst_[i];
            // Both outcomes were recorded once for these geometries.
            uint32_t penalty = 0;
            if (f & kFlagMemMask)
                penalty = penaltyOf[cls[memIdx++]];
            bool mispredict = false;
            if (f & kFlagControl) {
                mispredict = (bits[branch >> 6] >> (branch & 63)) & 1;
                ++branch;
            }
            cost = timer.consumeResolved(e, penalty, mispredict);
        } else {
            cost = timer.consume(eventAt(i));
        }
        fnCycles[fnId[i]] += cost;
        // Branchless attribution from the pre-decoded flag bits.
        callRet += cost & -static_cast<uint64_t>((f & kFlagCallRet) != 0);
        overhead += cost & -static_cast<uint64_t>((f & kFlagOverhead) != 0);
    }

    r.cycles = timer.cycles();
    r.callRetCycles = callRet;
    r.callOverheadCycles = overhead;
    r.timer = timer.stats();
    if constexpr (Memoized) {
        r.l1 = cache->l1;
        r.l2 = cache->l2;
        r.btb = btb->stats;
    } else {
        r.l1 = timer.memory().l1().stats();
        r.l2 = timer.memory().l2().stats();
        r.btb = timer.btb().stats();
    }
    for (size_t id = 0; id < fnCounts_.size(); ++id) {
        const profile::FunctionStats &st = fnCounts_[id];
        if (st.calls || st.instructions) {
            profile::FunctionStats full = st;
            full.cycles = fnCycles[id];
            r.functions.emplace(fnNames_[id], full);
        }
    }
    return r;
}

profile::ProfileResult
MaterializedTrace::replayProfile(const sim::TimerConfig &config) const
{
    return runKernel(sim::MachineConfig{sim::ModelKind::P5, config},
                     nullptr, nullptr);
}

profile::ProfileResult
MaterializedTrace::replayProfile(const sim::MachineConfig &machine) const
{
    return runKernel(machine, nullptr, nullptr);
}

std::vector<profile::ProfileResult>
MaterializedTrace::replaySweep(const std::vector<sim::TimerConfig> &configs,
                               int threads) const
{
    std::vector<sim::MachineConfig> machines;
    machines.reserve(configs.size());
    for (const sim::TimerConfig &config : configs)
        machines.push_back({sim::ModelKind::P5, config});
    return replaySweep(machines, threads);
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
    std::vector<uint8_t> reused(cacheBase + btbBase, 0);
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
        } else {
            reused[c] = 1;
        }
        const Memos::BtbKey bk = Memos::btbKey(tc);
        size_t b = memoIndex(memos.btb_, bk);
        if (b == btbBase) {
            b += memoIndex(pass.newBtb, bk);
            if (b == btbBase + pass.newBtb.size())
                pass.newBtb.push_back({bk, {}});
        } else {
            reused[cacheBase + b] = 1;
        }
        cacheOf[i] = c;
        btbOf[i] = b;
        memos.hits_ += c < cacheBase && b < btbBase;
    }
    pass.reused = static_cast<size_t>(
        std::count(reused.begin(), reused.end(), uint8_t{1}));

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

MaterializedTrace
materialize(const TraceReader &reader)
{
    MaterializedTrace mat;
    if (!mat.build(reader))
        mmxdsp_fatal("corrupt trace body for %s.%s",
                     reader.benchmark().c_str(),
                     reader.version().c_str());
    return mat;
}

} // namespace mmxdsp::trace
