#include "materialize_sink.hh"

#include <algorithm>
#include <cstring>

#include "runtime/cpu.hh"
#include "support/logging.hh"
#include "trace/format.hh"
#include "trace/format_v2.hh"

namespace mmxdsp::trace {

using isa::InstrEvent;

namespace {

constexpr size_t
idx(V2SectionId id)
{
    return static_cast<size_t>(id);
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
    opBits_ = MaterializedTrace::opFlagBits();
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
    for (size_t i = 0; i < m; ++i) {
        const InstrEvent &e = events[i];
        b.op[i] = static_cast<uint16_t>(e.op);
        b.flags[i] = static_cast<uint8_t>(
            (static_cast<uint8_t>(e.mem) & MaterializedTrace::kFlagMemMask)
            | (e.taken ? MaterializedTrace::kFlagTaken : 0)
            | opBits_[static_cast<size_t>(e.op)]);
        b.size[i] = e.size;
        b.src0[i] = e.src0;
        b.src1[i] = e.src1;
        b.dst[i] = e.dst;
        b.site[i] = e.site;
        b.addr[i] = e.addr;
    }
    // The owning function is constant within a block: markers always
    // flush the emit buffer first (runtime::Cpu) / close the run
    // (replayTo, flushStage), so a block never straddles an enter/leave.
    std::fill_n(b.fnId, m, current_);
    fnCounts_[current_].instructions += m;

    // Fold the config-independent tallies over the hot block now
    // instead of over gigabytes of cold buffers at finish().
    const auto &table = profile::opReplayTable();
    for (size_t i = 0; i < m; ++i) {
        const size_t op_idx = b.op[i];
        const size_t mem_idx = b.flags[i] & MaterializedTrace::kFlagMemMask;
        const profile::OpReplayEntry &entry = table[op_idx];
        counts_.uops += entry.uopsByMem[mem_idx];
        counts_.memoryReferences += mem_idx != 0;
        ++counts_.opCounts[op_idx];
        if (entry.mmxCategory)
            ++counts_.mmxByCategory[entry.mmxCategory];
        counts_.functionCalls += entry.costClass == profile::kCostCall;
        controlCount_ +=
            (b.flags[i] & MaterializedTrace::kFlagControl) != 0;
        const uint32_t site = b.site[i];
        maxSite_ = std::max(maxSite_, site);
        if (site >= seenSites_.size())
            seenSites_.resize(
                std::max<size_t>(site + 1, seenSites_.size() * 2), 0);
        counts_.staticInstructions += seenSites_[site] == 0;
        seenSites_[site] = 1;
    }

    // Fold the running section checksums over the block while it is
    // still L1-resident — by the time finish() or serializeV2() runs,
    // these bytes would be gigabytes cold.
    const auto fold = [&](V2SectionId id, const auto *data) {
        cksum_[idx(id)].update(data, m * sizeof(*data));
    };
    fold(V2SectionId::Op, b.op);
    fold(V2SectionId::Flags, b.flags);
    fold(V2SectionId::MemSize, b.size);
    fold(V2SectionId::Src0, b.src0);
    fold(V2SectionId::Src1, b.src1);
    fold(V2SectionId::Dst, b.dst);
    fold(V2SectionId::Site, b.site);
    fold(V2SectionId::Addr, b.addr);
    fold(V2SectionId::FnId, b.fnId);

    if (op_.size() + m > op_.capacity())
        growTo(op_.size() + m);
    op_.insert(op_.end(), b.op, b.op + m);
    flags_.insert(flags_.end(), b.flags, b.flags + m);
    size_.insert(size_.end(), b.size, b.size + m);
    src0_.insert(src0_.end(), b.src0, b.src0 + m);
    src1_.insert(src1_.end(), b.src1, b.src1 + m);
    dst_.insert(dst_.end(), b.dst, b.dst + m);
    site_.insert(site_.end(), b.site, b.site + m);
    addr_.insert(addr_.end(), b.addr, b.addr + m);
    fnId_.insert(fnId_.end(), b.fnId, b.fnId + m);
    run_ += static_cast<uint32_t>(m);
}

void
MaterializeSink::growTo(size_t need)
{
    // Aggressive (×8) growth with a 1M-event floor: a multi-million-
    // event capture pays at most one small realloc copy instead of the
    // default doubling's full-buffer copy cascade, and the
    // over-reserved tail is never touched, so it costs address space,
    // not resident pages.
    size_t cap = std::max<size_t>(op_.capacity() * 8, size_t(1) << 20);
    cap = std::max(cap, need);
    op_.reserve(cap);
    flags_.reserve(cap);
    size_.reserve(cap);
    src0_.reserve(cap);
    src1_.reserve(cap);
    dst_.reserve(cap);
    site_.reserve(cap);
    addr_.reserve(cap);
    fnId_.reserve(cap);
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
    t.op_.adopt(std::move(op_));
    t.flags_.adopt(std::move(flags_));
    t.size_.adopt(std::move(size_));
    t.src0_.adopt(std::move(src0_));
    t.src1_.adopt(std::move(src1_));
    t.dst_.adopt(std::move(dst_));
    t.site_.adopt(std::move(site_));
    t.addr_.adopt(std::move(addr_));
    t.fnId_.adopt(std::move(fnId_));
    t.segments_.adopt(std::move(segs_));
    t.fnNames_ = std::move(fnNames_);
    t.fnCounts_ = std::move(fnCounts_);

    // Stamp the tallies accumulated chunk by chunk above.
    const size_t n = t.op_.size();
    t.siteTableSize_ = n ? maxSite_ + 1 : 0;
    counts_.dynamicInstructions = n;
    for (size_t c = 1; c < counts_.mmxByCategory.size(); ++c)
        counts_.mmxInstructions += counts_.mmxByCategory[c];
    t.counts_ = counts_;
    t.controlCount_ = controlCount_;

    // Site metadata for every site the stream touched (the capture-time
    // first-use bitmap), interned in ascending id order with the file
    // name before the function name, so the Meta section serializes
    // byte-identically for the same stream.
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
            if (!seenSites_[id])
                continue;
            const runtime::SiteInfo &info = cpu->siteInfo(id);
            MaterializedTrace::SiteMeta &meta = t.siteMeta_[id];
            meta.line = info.line;
            meta.column = info.column;
            meta.file = intern(info.file);
            meta.function = intern(info.function);
        }
    }

    // Seal the running section checksums: the segment stream only
    // settles at finish(), so hash it here; the event sections carry
    // their capture-time running state forward.
    for (size_t i = 0; i < cksum_.size(); ++i)
        t.sectionChecksums_[i] = cksum_[i].digest();
    t.sectionChecksums_[idx(V2SectionId::Segments)] = fnv1aWords(
        reinterpret_cast<const uint8_t *>(t.segments_.data()),
        t.segments_.size() * sizeof(MaterializedTrace::Segment));

    t.valid_ = true;
    return t;
}

} // namespace mmxdsp::trace
