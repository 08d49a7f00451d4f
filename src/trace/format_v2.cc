/**
 * @file
 * Trace image serialization and the zero-copy mmap load path (see
 * format_v2.hh for the layout). serializeV2()/adoptV2() are members of
 * MaterializedTrace because the format *is* that class's table
 * layout; they live here to keep materialize.cc focused on the replay
 * kernels.
 */

#include "format_v2.hh"

#include <cstring>

#include "isa/op.hh"
#include "support/io.hh"
#include "support/logging.hh"
#include "trace/format.hh"
#include "trace/materialize.hh"

#ifdef _WIN32
// No mmap on Windows builds; MmapFile falls back to a buffered read.
#else
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace mmxdsp::trace {

bool
isV2Image(const uint8_t *data, size_t size)
{
    return size >= 4 && std::memcmp(data, kMagicV2, 4) == 0;
}

// ------------------------------------------------------------- fnv1aWords

uint64_t
fnv1aWords(const uint8_t *data, size_t size, uint64_t seed)
{
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t hash = seed;
    size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        uint64_t word;
        std::memcpy(&word, data + i, 8);
        hash = (hash ^ word) * kPrime;
    }
    if (i < size) {
        uint64_t word = 0;
        std::memcpy(&word, data + i, size - i);
        hash = (hash ^ word) * kPrime;
    }
    return hash;
}

void
Fnv1aStream::update(const void *data, size_t size)
{
    constexpr uint64_t kPrime = 0x100000001b3ull;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    if (npending) {
        // Top up the partial word from the previous update first.
        while (npending < 8 && size) {
            pending |= static_cast<uint64_t>(*p++) << (8 * npending);
            ++npending;
            --size;
        }
        if (npending < 8)
            return;
        hash = (hash ^ pending) * kPrime;
        pending = 0;
        npending = 0;
    }
    size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        uint64_t word;
        std::memcpy(&word, p + i, 8);
        hash = (hash ^ word) * kPrime;
    }
    for (; i < size; ++i) {
        pending |= static_cast<uint64_t>(p[i]) << (8 * npending);
        ++npending;
    }
}

// ---------------------------------------------------------------- MmapFile

MmapFile::~MmapFile()
{
#ifndef _WIN32
    if (mapped_ && data_)
        ::munmap(const_cast<uint8_t *>(data_), size_);
#endif
}

bool
MmapFile::open(const std::string &path)
{
#ifndef _WIN32
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        struct stat st;
        if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
            const size_t size = static_cast<size_t>(st.st_size);
            if (size == 0) {
                ::close(fd);
                data_ = nullptr;
                size_ = 0;
                return true;
            }
            void *p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
            ::close(fd);
            if (p != MAP_FAILED) {
                data_ = static_cast<const uint8_t *>(p);
                size_ = size;
                mapped_ = true;
                return true;
            }
        } else {
            ::close(fd);
            return false;
        }
    } else {
        return false;
    }
#endif
    // mmap unavailable or failed: fall back to an owned buffer so the
    // caller still gets a usable image (just not zero-copy).
    if (!mmxdsp::readFile(path, fallback_))
        return false;
    data_ = fallback_.data();
    size_ = fallback_.size();
    return true;
}

// ------------------------------------------------------------- serialize

namespace {

size_t
alignUp(size_t v, size_t align)
{
    return (v + align - 1) & ~(align - 1);
}

struct SectionDesc
{
    V2SectionId id;
    const uint8_t *bytes;
    size_t length;
};

} // namespace

/** The image of one trace, laid out but not assembled. */
struct MaterializedTrace::V2Layout
{
    V2Header header{};
    std::vector<V2Section> table;
    std::vector<uint8_t> meta;
    std::vector<const uint8_t *> bytes; ///< section data, table order
    size_t size = 0;                    ///< image bytes in total
};

MaterializedTrace::V2Layout
MaterializedTrace::layoutV2() const
{
    V2Layout layout;
    // The Meta section: every small table, varint-encoded. Decoded once
    // at load time; everything O(instrCount) ships as raw arrays below.
    std::vector<uint8_t> &meta = layout.meta;
    putString(meta, benchmark_);
    putString(meta, version_);
    putVarint(meta, siteTableSize_);
    putVarint(meta, fnNames_.size());
    for (size_t i = 0; i < fnNames_.size(); ++i) {
        putString(meta, fnNames_[i]);
        putVarint(meta, fnCounts_[i].calls);
        putVarint(meta, fnCounts_[i].instructions);
    }
    putVarint(meta, counts_.dynamicInstructions);
    putVarint(meta, counts_.staticInstructions);
    putVarint(meta, counts_.uops);
    putVarint(meta, counts_.memoryReferences);
    putVarint(meta, counts_.functionCalls);
    putVarint(meta, counts_.mmxInstructions);
    for (uint64_t v : counts_.mmxByCategory)
        putVarint(meta, v);
    putVarint(meta, isa::kNumOps);
    for (uint64_t v : counts_.opCounts)
        putVarint(meta, v);
    putVarint(meta, strings_.size());
    for (const std::string &s : strings_)
        putString(meta, s);
    putVarint(meta, siteMeta_.size());
    for (const SiteMeta &m : siteMeta_) {
        putVarint(meta, m.line);
        putVarint(meta, m.column);
        putVarint(meta, static_cast<uint64_t>(m.file + 1));
        putVarint(meta, static_cast<uint64_t>(m.function + 1));
    }

    const auto raw = [](const auto &buf) {
        return reinterpret_cast<const uint8_t *>(buf.data());
    };
    const auto bytes = [](const auto &buf) {
        return buf.size() * sizeof(buf[0]);
    };
    const SectionDesc sections[] = {
        {V2SectionId::Meta, meta.data(), meta.size()},
        {V2SectionId::Statics, raw(statics_), bytes(statics_)},
        {V2SectionId::Regions, raw(regions_), bytes(regions_)},
        {V2SectionId::Ops, raw(ops_), bytes(ops_)},
        {V2SectionId::Addr, raw(addrLo_), bytes(addrLo_)},
        {V2SectionId::Segments, raw(segments_), bytes(segments_)},
    };
    constexpr size_t kNumSections = sizeof(sections) / sizeof(sections[0]);
    static_assert(kNumSections + 1 == kV2SectionIds);

    // Lay out the section table, then every section 64-byte aligned.
    // The table sections reuse the checksums every trace carries
    // (folded at capture by MaterializeSink, or verified on a load);
    // only the small Meta blob — assembled just above — is hashed
    // here.
    std::vector<V2Section> &table = layout.table;
    table.resize(kNumSections);
    size_t offset = sizeof(V2Header) + kNumSections * sizeof(V2Section);
    for (size_t i = 0; i < kNumSections; ++i) {
        offset = alignUp(offset, kV2Align);
        table[i].id = static_cast<uint32_t>(sections[i].id);
        table[i].reserved = 0;
        table[i].offset = offset;
        table[i].length = sections[i].length;
        table[i].checksum =
            sections[i].id != V2SectionId::Meta
                ? sectionChecksums_[static_cast<size_t>(sections[i].id)]
                : fnv1aWords(sections[i].bytes, sections[i].length);
        offset += sections[i].length;
        layout.bytes.push_back(sections[i].bytes);
    }
    layout.size = offset;

    V2Header &header = layout.header;
    std::memcpy(header.magic, kMagicV2, 4);
    header.version = kFormatVersionV2;
    header.configHash = configHash_;
    header.instrCount = ops_.size();
    header.segmentCount = segments_.size();
    header.controlCount = controlCount_;
    header.sectionCount = kNumSections;
    header.tableChecksum =
        fnv1aWords(reinterpret_cast<const uint8_t *>(table.data()),
                   table.size() * sizeof(V2Section));

    return layout;
}

std::vector<uint8_t>
MaterializedTrace::serializeV2() const
{
    const V2Layout layout = layoutV2();
    std::vector<uint8_t> image(layout.size, 0);
    std::memcpy(image.data(), &layout.header, sizeof(V2Header));
    std::memcpy(image.data() + sizeof(V2Header), layout.table.data(),
                layout.table.size() * sizeof(V2Section));
    for (size_t i = 0; i < layout.table.size(); ++i)
        if (layout.table[i].length)
            std::memcpy(image.data() + layout.table[i].offset,
                        layout.bytes[i], layout.table[i].length);
    return image;
}

bool
MaterializedTrace::writeV2File(const std::string &path) const
{
    const V2Layout layout = layoutV2();
    return writeFileAtomic(path, [&](std::FILE *f) {
        static constexpr uint8_t kZeros[kV2Align] = {};
        size_t at = sizeof(V2Header) + layout.table.size() * sizeof(V2Section);
        bool ok = std::fwrite(&layout.header, sizeof(V2Header), 1, f) == 1
                  && std::fwrite(layout.table.data(),
                                 layout.table.size() * sizeof(V2Section), 1,
                                 f) == 1;
        for (size_t i = 0; ok && i < layout.table.size(); ++i) {
            const V2Section &sec = layout.table[i];
            ok = std::fwrite(kZeros, 1, sec.offset - at, f) == sec.offset - at
                 && (!sec.length
                     || std::fwrite(layout.bytes[i], 1, sec.length, f)
                            == sec.length);
            at = sec.offset + sec.length;
        }
        return ok;
    });
}

// ------------------------------------------------------------------ load

bool
MaterializedTrace::adoptV2(const uint8_t *data, size_t size,
                           std::shared_ptr<const void> holder)
{
    *this = MaterializedTrace();
    if (!data || size < sizeof(V2Header))
        return false;

    V2Header header;
    std::memcpy(&header, data, sizeof(header));
    if (std::memcmp(header.magic, kMagicV2, 4) != 0
        || header.version != kFormatVersionV2)
        return false;

    const size_t tableBytes =
        static_cast<size_t>(header.sectionCount) * sizeof(V2Section);
    if (header.sectionCount > 64
        || sizeof(V2Header) + tableBytes > size)
        return false;
    if (fnv1aWords(data + sizeof(V2Header), tableBytes)
        != header.tableChecksum)
        return false;

    // Locate every known section exactly once, bounds- and
    // checksum-checked. The checksum pass is the only O(file) work a
    // load does besides the bounds scan below — linear, no decode.
    const uint8_t *found[kV2SectionIds] = {};
    size_t lengths[kV2SectionIds] = {};
    std::vector<V2Section> table(header.sectionCount);
    std::memcpy(table.data(), data + sizeof(V2Header), tableBytes);
    for (const V2Section &sec : table) {
        if (sec.id == 0 || sec.id >= kV2SectionIds)
            return false;
        if (found[sec.id])
            return false; // duplicate section
        if (sec.offset % kV2Align != 0 || sec.offset > size
            || sec.length > size - sec.offset)
            return false;
        if (fnv1aWords(data + sec.offset, static_cast<size_t>(sec.length))
            != sec.checksum)
            return false;
        found[sec.id] = data + sec.offset;
        lengths[sec.id] = static_cast<size_t>(sec.length);
        // Each checksum was just verified against the bytes, so carry
        // it forward: a re-serialize of this trace can then skip
        // re-hashing the big sections.
        sectionChecksums_[sec.id] = sec.checksum;
    }
    for (uint32_t id = 1; id < kV2SectionIds; ++id)
        if (!found[id])
            return false;

    const auto sec = [&](V2SectionId id) {
        return found[static_cast<uint32_t>(id)];
    };
    const auto len = [&](V2SectionId id) {
        return lengths[static_cast<uint32_t>(id)];
    };

    // Cross-section size invariants against the header counts.
    const size_t n = static_cast<size_t>(header.instrCount);
    const size_t nseg = static_cast<size_t>(header.segmentCount);
    const size_t nstatic = len(V2SectionId::Statics) / sizeof(StaticInstr);
    const size_t nregion = len(V2SectionId::Regions) / sizeof(uint32_t);
    const size_t naddr = len(V2SectionId::Addr) / sizeof(uint32_t);
    if (len(V2SectionId::Statics) % sizeof(StaticInstr) != 0
        || nstatic > kMaxStaticInstrs
        || len(V2SectionId::Regions) % sizeof(uint32_t) != 0
        || nregion > kMaxAddrRegions
        || len(V2SectionId::Addr) % sizeof(uint32_t) != 0
        || n > len(V2SectionId::Ops)
        || len(V2SectionId::Ops) != n * sizeof(PackedOp)
        || nseg > len(V2SectionId::Segments)
        || len(V2SectionId::Segments) != nseg * sizeof(Segment))
        return false;

    // Decode the small tables.
    {
        ByteReader r(sec(V2SectionId::Meta), len(V2SectionId::Meta));
        benchmark_ = r.getString();
        version_ = r.getString();
        siteTableSize_ = static_cast<uint32_t>(r.getVarint());
        const uint64_t nfn = r.getVarint();
        if (!r.ok() || nfn == 0 || nfn > len(V2SectionId::Meta))
            return false;
        fnNames_.reserve(static_cast<size_t>(nfn));
        fnCounts_.reserve(static_cast<size_t>(nfn));
        for (uint64_t i = 0; i < nfn; ++i) {
            fnNames_.push_back(r.getString());
            profile::FunctionStats st;
            st.calls = r.getVarint();
            st.instructions = r.getVarint();
            fnCounts_.push_back(st);
        }
        counts_.dynamicInstructions = r.getVarint();
        counts_.staticInstructions = r.getVarint();
        counts_.uops = r.getVarint();
        counts_.memoryReferences = r.getVarint();
        counts_.functionCalls = r.getVarint();
        counts_.mmxInstructions = r.getVarint();
        for (uint64_t &v : counts_.mmxByCategory)
            v = r.getVarint();
        if (r.getVarint() != isa::kNumOps)
            return false; // op table shape changed: stale image
        for (uint64_t &v : counts_.opCounts)
            v = r.getVarint();
        const uint64_t nstrings = r.getVarint();
        if (!r.ok() || nstrings > len(V2SectionId::Meta))
            return false;
        strings_.reserve(static_cast<size_t>(nstrings));
        for (uint64_t i = 0; i < nstrings; ++i)
            strings_.push_back(r.getString());
        const uint64_t nsites = r.getVarint();
        if (!r.ok() || nsites > len(V2SectionId::Meta))
            return false;
        siteMeta_.resize(static_cast<size_t>(nsites));
        for (uint64_t i = 0; i < nsites; ++i) {
            SiteMeta &m = siteMeta_[i];
            m.line = static_cast<uint32_t>(r.getVarint());
            m.column = static_cast<uint32_t>(r.getVarint());
            m.file = static_cast<int32_t>(r.getVarint()) - 1;
            m.function = static_cast<int32_t>(r.getVarint()) - 1;
            if (m.file >= static_cast<int32_t>(strings_.size())
                || m.function >= static_cast<int32_t>(strings_.size()))
                return false;
        }
        if (!r.ok() || counts_.dynamicInstructions != n
            || counts_.memoryReferences != naddr)
            return false;
    }

    // Alias the tables straight into the image.
    statics_.view(
        reinterpret_cast<const StaticInstr *>(sec(V2SectionId::Statics)),
        nstatic);
    regions_.view(
        reinterpret_cast<const uint32_t *>(sec(V2SectionId::Regions)),
        nregion);
    ops_.view(reinterpret_cast<const PackedOp *>(sec(V2SectionId::Ops)), n);
    addrLo_.view(reinterpret_cast<const uint32_t *>(sec(V2SectionId::Addr)),
                 naddr);
    segments_.view(
        reinterpret_cast<const Segment *>(sec(V2SectionId::Segments)),
        nseg);

    // Referential integrity: everything a replay kernel indexes with
    // must be in range, and the redundant counts must agree, so a
    // corrupt-but-checksum-valid image can never walk a kernel out of
    // bounds. The static table first (O(entries)), then one linear
    // pass over the records.
    for (const StaticInstr &s : statics_) {
        if (s.op >= isa::kNumOps
            || s.mem > static_cast<uint8_t>(isa::MemMode::Store)
            || s.site >= siteTableSize_)
            return false;
    }
    uint64_t runSum = 0;
    for (const Segment &seg : segments_) {
        if (seg.kind == Segment::Run)
            runSum += seg.value;
        else if (seg.kind == Segment::Enter) {
            if (seg.value >= fnNames_.size())
                return false;
        } else if (seg.kind != Segment::Leave) {
            return false;
        }
    }
    if (runSum != n)
        return false;
    derive();
    uint64_t memory = 0;
    uint64_t control = 0;
    for (const PackedOp &p : ops_) {
        if (p.sid >= nstatic)
            return false;
        const uint8_t f = facts_[p.sid].flags;
        const uint32_t region = p.ev >> 1;
        if (f & kOpMem) {
            if (region >= nregion)
                return false;
            ++memory;
        } else if (region != 0) {
            return false;
        }
        control += (f & kOpControl) != 0;
    }
    if (memory != naddr || control != header.controlCount)
        return false;

    configHash_ = header.configHash;
    controlCount_ = header.controlCount;
    backing_ = std::move(holder);
    valid_ = true;
    return true;
}

bool
MaterializedTrace::loadV2File(const std::string &path)
{
    auto map = std::make_shared<MmapFile>();
    if (!map->open(path))
        return false;
    const uint8_t *data = map->data();
    const size_t size = map->size();
    return adoptV2(data, size, std::move(map));
}

bool
MaterializedTrace::loadV2Image(std::vector<uint8_t> image)
{
    auto holder =
        std::make_shared<std::vector<uint8_t>>(std::move(image));
    const uint8_t *data = holder->data();
    const size_t size = holder->size();
    return adoptV2(data, size, std::move(holder));
}

} // namespace mmxdsp::trace
