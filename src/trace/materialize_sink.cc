#include "materialize_sink.hh"

#include <algorithm>
#include <cstring>

#include "runtime/cpu.hh"
#include "support/logging.hh"

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
    lastSid_.fill(kNoSid);
}

void
MaterializeSink::onInstrBatch(std::span<const InstrEvent> events)
{
    // Aggressive (x8) growth with a 1M-entry floor: a multi-million-
    // event capture pays at most one small realloc copy instead of the
    // default doubling's full-buffer copy cascade, and the
    // over-reserved tail is never touched, so it costs address space,
    // not resident pages. Reserving the whole span up front (the
    // address column by its bound) keeps the loop's appends from ever
    // reallocating.
    const auto grow = [](auto &v, size_t add) {
        if (v.size() + add > v.capacity())
            v.reserve(std::max({v.capacity() * 8, size_t{1} << 20,
                                v.size() + add}));
    };
    grow(ops_, events.size());
    grow(addrLo_, events.size());

    for (const InstrEvent &e : events) {
        // The static entry: a site almost always repeats its last
        // tuple, so one compare against the site's last entry settles
        // nearly every event.
        const StaticInstr st{e.site, static_cast<uint16_t>(e.op),
                             static_cast<uint8_t>(e.mem), e.size};
        const uint64_t key = keyOf(st);
        uint32_t &sid = lastSid_[e.site % kSiteSlots];
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
            addrLo_.push_back(static_cast<uint32_t>(e.addr));
        }
        ops_.push_back(
            {static_cast<uint16_t>(sid), e.src0, e.src1, e.dst, ev});
    }
    run_ += static_cast<uint32_t>(events.size());
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
    flushRun();
    auto [it, inserted] =
        fnIds_.try_emplace(name ? name : "", static_cast<uint32_t>(0));
    if (inserted) {
        it->second = static_cast<uint32_t>(fnNames_.size());
        fnNames_.push_back(it->first);
    }
    segs_.push_back({MaterializedTrace::Segment::Enter, it->second});
}

void
MaterializeSink::onLeaveFunction()
{
    flushRun();
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
    t.derive(sidCounts_);

    // Site metadata for every site the stream touched, interned in
    // ascending id order with the file name before the function name,
    // so the Meta section serializes byte-identically for the same
    // stream. Site ids come from the live runtime, so they are dense.
    if (cpu && !t.ops_.empty()) {
        const std::vector<uint32_t> sites = t.executedSites(sidCounts_);
        t.siteMeta_.resize(size_t{sites.back()} + 1);
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
        for (const uint32_t id : sites) {
            const runtime::SiteInfo &info = cpu->siteInfo(id);
            MaterializedTrace::SiteMeta &meta = t.siteMeta_[id];
            meta.line = info.line;
            meta.column = info.column;
            meta.file = intern(info.file);
            meta.function = intern(info.function);
        }
    }

    t.valid_ = true;
    return t;
}

} // namespace mmxdsp::trace
