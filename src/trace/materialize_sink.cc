#include "materialize_sink.hh"

#include <algorithm>
#include <cstring>

#include "runtime/cpu.hh"
#include "support/logging.hh"
#include "trace/format_v2.hh"

namespace mmxdsp::trace {

using isa::InstrEvent;

namespace {

/** A static entry's 8 bytes as one integer: its interning key. */
uint64_t
keyOf(const StaticInstr &s)
{
    uint64_t key;
    std::memcpy(&key, &s, sizeof(key));
    return key;
}

} // namespace

MaterializeSink::MaterializeSink(std::string benchmark, std::string version,
                                 uint64_t config_hash)
    : benchmark_(std::move(benchmark)), version_(std::move(version)),
      configHash_(config_hash)
{
    // Index 0 is the measured root. It is deliberately not interned
    // into fnIds_: an explicit enter of the same name gets its own id.
    fnNames_.emplace_back(profile::rootFunctionName());
    fnCounts_.emplace_back();
}

void
MaterializeSink::onInstr(const InstrEvent &e)
{
    if (stage_.empty())
        stage_.resize(kBlockEvents);
    stage_[nstage_++] = e;
    if (nstage_ == kBlockEvents)
        flushStage();
}

void
MaterializeSink::flushStage()
{
    if (nstage_) {
        const size_t n = nstage_;
        nstage_ = 0; // before appendBlock: keeps reentry impossible
        appendBlock(std::span<const InstrEvent>(stage_.data(), n));
    }
}

void
MaterializeSink::onInstrBatch(std::span<const InstrEvent> events)
{
    flushStage();
    appendBlock(events);
}

void
MaterializeSink::appendBlock(std::span<const InstrEvent> events)
{
    // Producer batches are at most kBlockEvents today (the runtime's
    // emit buffer), but chunking here keeps any larger span correct.
    while (events.size() > kBlockEvents) {
        appendChunk(events.first(kBlockEvents));
        events = events.subspan(kBlockEvents);
    }
    if (!events.empty())
        appendChunk(events);
}

void
MaterializeSink::appendChunk(std::span<const InstrEvent> events)
{
    const size_t m = events.size();
    Block &b = block_;
    b.mem = 0;
    for (size_t i = 0; i < m; ++i) {
        const InstrEvent &e = events[i];
        // The static entry: a site almost always repeats its last
        // tuple, so one compare against the site's last entry settles
        // nearly every event.
        const StaticInstr st{e.site, static_cast<uint16_t>(e.op),
                             static_cast<uint8_t>(e.mem), e.size};
        const uint64_t key = keyOf(st);
        uint32_t sid = e.site < lastSid_.size() ? lastSid_[e.site] : kNoSid;
        if (sid == kNoSid || keyOf(statics_[sid]) != key)
            sid = internStatic(st, key);
        ++sidCounts_[sid];

        uint8_t ev = e.taken ? 1 : 0;
        if (e.mem != isa::MemMode::None) {
            const uint32_t hi = static_cast<uint32_t>(e.addr >> 32);
            if (hi != regionHi_) {
                region_ = internRegion(hi);
                regionHi_ = hi;
            }
            ev |= static_cast<uint8_t>(region_ << 1);
            b.addr[b.mem++] = static_cast<uint32_t>(e.addr);
        }
        b.ops[i] = {static_cast<uint16_t>(sid), e.src0, e.src1, e.dst, ev};
    }
    // The owning function is constant within a block: markers always
    // flush the emit buffer first (runtime::Cpu) / close the run
    // (replayTo, flushStage), so a block never straddles an enter/leave.
    fnCounts_[current_].instructions += m;

    // Fold the running section checksums over the block while it is
    // still L1-resident — by the time finish() or serializeV2() runs,
    // these bytes would be cold.
    opsSum_.update(b.ops, m * sizeof(PackedOp));
    addrSum_.update(b.addr, b.mem * sizeof(uint32_t));

    // Aggressive (x8) growth with a 1M-entry floor: a multi-million-
    // event capture pays at most one small realloc copy instead of the
    // default doubling's full-buffer copy cascade, and the
    // over-reserved tail is never touched, so it costs address space,
    // not resident pages.
    const auto grow = [](auto &v, size_t add) {
        if (v.size() + add > v.capacity())
            v.reserve(std::max({v.capacity() * 8, size_t{1} << 20,
                                v.size() + add}));
    };
    grow(ops_, m);
    grow(addrLo_, b.mem);
    ops_.insert(ops_.end(), b.ops, b.ops + m);
    addrLo_.insert(addrLo_.end(), b.addr, b.addr + b.mem);
    run_ += static_cast<uint32_t>(m);
}

uint32_t
MaterializeSink::internStatic(const StaticInstr &st, uint64_t key)
{
    const auto [it, inserted] = staticIds_.try_emplace(
        key, static_cast<uint32_t>(statics_.size()));
    if (inserted) {
        if (statics_.size() == kMaxStaticInstrs)
            mmxdsp_panic("capture of %s.%s executed more than %zu distinct "
                         "(site, op, memory mode, size) tuples; the trace "
                         "image's 16-bit static index cannot hold them",
                         benchmark_.c_str(), version_.c_str(),
                         kMaxStaticInstrs);
        statics_.push_back(st);
        sidCounts_.push_back(0);
    }
    if (st.site >= lastSid_.size())
        lastSid_.resize(std::max<size_t>(st.site + 1, lastSid_.size() * 2),
                        kNoSid);
    lastSid_[st.site] = it->second;
    return it->second;
}

uint32_t
MaterializeSink::internRegion(uint32_t hi)
{
    const auto it = std::find(regions_.begin(), regions_.end(), hi);
    if (it != regions_.end())
        return static_cast<uint32_t>(it - regions_.begin());
    if (regions_.size() == kMaxAddrRegions)
        mmxdsp_panic("capture of %s.%s touched more than %zu distinct "
                     "address regions (high 32-bit halves); the trace "
                     "image's 7-bit region index cannot hold them",
                     benchmark_.c_str(), version_.c_str(), kMaxAddrRegions);
    regions_.push_back(hi);
    return static_cast<uint32_t>(regions_.size() - 1);
}

void
MaterializeSink::onEnterFunction(const char *name)
{
    flushStage();
    flushRun();
    auto [it, inserted] =
        fnIds_.try_emplace(name ? name : "", static_cast<uint32_t>(0));
    if (inserted) {
        it->second = static_cast<uint32_t>(fnNames_.size());
        fnNames_.push_back(it->first);
        fnCounts_.emplace_back();
    }
    const uint32_t id = it->second;
    stack_.push_back(id);
    current_ = id;
    ++fnCounts_[id].calls;
    segs_.push_back({MaterializedTrace::Segment::Enter, id});
}

void
MaterializeSink::onLeaveFunction()
{
    flushStage();
    flushRun();
    if (!stack_.empty())
        stack_.pop_back();
    current_ = stack_.empty() ? 0 : stack_.back();
    segs_.push_back({MaterializedTrace::Segment::Leave, 0});
}

void
MaterializeSink::flushRun()
{
    if (run_) {
        segs_.push_back({MaterializedTrace::Segment::Run, run_});
        run_ = 0;
    }
}

MaterializedTrace
MaterializeSink::finish(const runtime::Cpu *cpu)
{
    if (finished_)
        mmxdsp_fatal("MaterializeSink::finish called twice");
    finished_ = true;
    flushStage();
    flushRun();

    MaterializedTrace t;
    t.benchmark_ = std::move(benchmark_);
    t.version_ = std::move(version_);
    t.configHash_ = configHash_;
    t.ops_.adopt(std::move(ops_));
    t.addrLo_.adopt(std::move(addrLo_));
    t.statics_.adopt(std::move(statics_));
    t.regions_.adopt(std::move(regions_));
    t.segments_.adopt(std::move(segs_));
    t.fnNames_ = std::move(fnNames_);
    t.fnCounts_ = std::move(fnCounts_);
    t.derive();

    // The config-independent tallies depend only on the static entry,
    // so they fold from the per-entry event counts: O(entries).
    const auto &table = profile::opReplayTable();
    profile::ProfileResult counts{};
    uint64_t control = 0;
    uint32_t maxSite = 0;
    for (size_t sid = 0; sid < t.statics_.size(); ++sid) {
        const StaticInstr &s = t.statics_[sid];
        const uint64_t count = sidCounts_[sid];
        const profile::OpReplayEntry &entry = table[s.op];
        counts.uops += count * entry.uopsByMem[s.mem];
        counts.memoryReferences += s.mem ? count : 0;
        counts.opCounts[s.op] += count;
        if (entry.mmxCategory)
            counts.mmxByCategory[entry.mmxCategory] += count;
        if (entry.costClass == profile::kCostCall)
            counts.functionCalls += count;
        if (t.facts_[sid].flags & kOpControl)
            control += count;
        maxSite = std::max(maxSite, s.site);
    }
    const size_t n = t.ops_.size();
    t.siteTableSize_ = n ? maxSite + 1 : 0;
    std::vector<uint8_t> seenSites(t.siteTableSize_, 0);
    for (const StaticInstr &s : t.statics_)
        seenSites[s.site] = 1;
    counts.staticInstructions = static_cast<uint64_t>(
        std::count(seenSites.begin(), seenSites.end(), uint8_t{1}));
    counts.dynamicInstructions = n;
    for (size_t c = 1; c < counts.mmxByCategory.size(); ++c)
        counts.mmxInstructions += counts.mmxByCategory[c];
    t.counts_ = counts;
    t.controlCount_ = control;

    // Site metadata for every site the stream touched, interned in
    // ascending id order with the file name before the function name,
    // so the Meta section serializes byte-identically for the same
    // stream.
    if (cpu && n) {
        t.siteMeta_.resize(t.siteTableSize_);
        std::unordered_map<std::string, int32_t> stringIds;
        auto intern = [&](const char *s) {
            auto [it, inserted] = stringIds.try_emplace(
                s ? s : "", static_cast<int32_t>(0));
            if (inserted) {
                it->second = static_cast<int32_t>(t.strings_.size());
                t.strings_.push_back(it->first);
            }
            return it->second;
        };
        for (uint32_t id = 0; id < t.siteTableSize_; ++id) {
            if (!seenSites[id])
                continue;
            const runtime::SiteInfo &info = cpu->siteInfo(id);
            MaterializedTrace::SiteMeta &meta = t.siteMeta_[id];
            meta.line = info.line;
            meta.column = info.column;
            meta.file = intern(info.file);
            meta.function = intern(info.function);
        }
    }

    // Seal the section checksums: the record and address sections
    // carry their capture-time running state forward; the small tables
    // only settle here, so hash them now.
    const auto hash = [](const auto &buf) {
        return fnv1aWords(reinterpret_cast<const uint8_t *>(buf.data()),
                          buf.size() * sizeof(buf[0]));
    };
    const auto slot = [&](V2SectionId id) -> uint64_t & {
        return t.sectionChecksums_[static_cast<size_t>(id)];
    };
    slot(V2SectionId::Ops) = opsSum_.digest();
    slot(V2SectionId::Addr) = addrSum_.digest();
    slot(V2SectionId::Statics) = hash(t.statics_);
    slot(V2SectionId::Regions) = hash(t.regions_);
    slot(V2SectionId::Segments) = hash(t.segments_);

    t.valid_ = true;
    return t;
}

} // namespace mmxdsp::trace
