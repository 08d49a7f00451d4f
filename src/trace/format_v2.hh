/**
 * @file
 * The trace image — the one on-disk form of a captured trace (header
 * version kFormatVersionV2, currently 5; the names keep the "V2" of
 * the first mmap'd layout).
 *
 * Its layout *is* the trace::MaterializedTrace tables, so a load is an
 * mmap plus a checksum and bounds scan — the per-event records are
 * used in place with zero copies and zero per-event decode work. This
 * is what lets the trace store answer thousands of (trace,
 * machine-config) queries from one capture (compute once, serve many).
 *
 * Layout (all fixed-width fields little-endian):
 *
 *   header        V2Header (56 bytes): magic "MXT2", version, config
 *                 hash, instruction and segment counts, section count,
 *                 word-folded FNV-1a checksum of the section table
 *   section table sectionCount x V2Section {id, offset, length,
 *                 checksum}; offsets are from the start of the file and
 *                 kV2Align-aligned, checksums are word-folded FNV-1a
 *                 (fnv1aWords) over the section bytes
 *   sections      Meta: the varint-encoded small tables (benchmark
 *                 and version names, the op-table size, function
 *                 names, site metadata: file and function strings,
 *                 line and column per site);
 *                 Statics: StaticInstr {u32 site, u16 op, u8 memory
 *                 mode, u8 size} per distinct tuple (at most 65536);
 *                 Regions: u32 high address half per region (at most
 *                 128);
 *                 Ops: PackedOp {u16 sid, u8 src0, u8 src1, u8 dst,
 *                 u8 ev} per event — ev bit 0 is the branch outcome,
 *                 bits 1-7 a memory event's region index;
 *                 Addr: u32 low address half per memory event, in
 *                 memory-event order;
 *                 Segments: {u32 kind, u32 value} per run/enter/leave
 *
 * A memory event's address is (regions[ev >> 1] << 32) | addr[j] for
 * the j-th memory event, so every host address replays exactly. About
 * 8 bytes per event in all: 6 for the record, 4 per memory event.
 *
 * The image stores only what capture observed. Every tally (the
 * ProfileResult template, per-function counts, the control and
 * static-site counts) is derived at load from these tables, like the
 * per-entry timing facts, so an edit to the op or micro-op tables
 * takes effect without invalidating images.
 *
 * Checksums have one owner on each side: the writer
 * (MaterializedTrace::serializeV2() and writeV2File(), through one
 * layout step) hashes every section as it lays the image out, and a
 * load verifies them; capture computes none.
 *
 * mmap() returns page-aligned memory and every section offset is
 * 64-byte aligned, so each array is naturally aligned for its element
 * type. Integrity: a load validates magic, version, the table checksum
 * and every section checksum (a fast linear scan — no decode), then
 * every index a kernel reads through: each static entry's op and
 * memory mode, each record's sid and (memory events) region, the
 * address column's length against the memory events, and the segment
 * stream's enter ids against the function table and its runs against
 * the event count. Any mismatch is a refused load, which the trace
 * store turns into quarantine-and-miss; an image of another version is
 * a plain miss.
 */

#ifndef MMXDSP_TRACE_FORMAT_V2_HH
#define MMXDSP_TRACE_FORMAT_V2_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mmxdsp::trace {

constexpr char kMagicV2[4] = {'M', 'X', 'T', '2'};

/** Bump when the section layout, the Meta encoding, or the checksum
 *  definition changes. v3 switched section checksums from byte-wise to
 *  word-folded FNV-1a (fnv1aWords); v4 replaced the per-field event
 *  columns with the static table, 6-byte records and the memory-only
 *  address column; v5 dropped the stored tallies (derived at load). */
constexpr uint32_t kFormatVersionV2 = 5;

/** Every section offset is aligned to this (covers u64 naturally). */
constexpr size_t kV2Align = 64;

/** Section ids (u32 on disk; unknown ids are a refused load). */
enum class V2SectionId : uint32_t {
    Meta = 1,     ///< varint-encoded small tables (see format_v2.cc)
    Statics = 2,  ///< StaticInstr per static entry
    Regions = 3,  ///< u32 per address region
    Ops = 4,      ///< PackedOp per event
    Addr = 5,     ///< u32 per memory event
    Segments = 6  ///< {u32 kind, u32 value} per segment
};

/** One past the largest V2SectionId. */
constexpr uint32_t kV2SectionIds = 7;

/** Fixed file header. Trivially copyable: read/written as raw bytes. */
struct V2Header
{
    char magic[4];
    uint32_t version;
    uint64_t configHash;
    uint64_t instrCount;
    uint64_t segmentCount;
    uint32_t sectionCount;
    uint32_t reserved;
    uint64_t tableChecksum; ///< fnv1aWords over the section table bytes
    uint64_t reserved2;
};
static_assert(sizeof(V2Header) == 56);

/** One section-table entry. */
struct V2Section
{
    uint32_t id;
    uint32_t reserved;
    uint64_t offset;   ///< from the start of the file, kV2Align-aligned
    uint64_t length;   ///< bytes
    uint64_t checksum; ///< fnv1aWords over the section bytes
};
static_assert(sizeof(V2Section) == 32);

/**
 * Word-folded FNV-1a: the v2 section/table checksum. The buffer is
 * consumed as little-endian 64-bit words, each folded with the classic
 * FNV-1a step (xor, multiply by the 64-bit FNV prime); a trailing
 * partial word is zero-padded to 8 bytes. One multiply per 8 bytes
 * keeps the hash cheap enough that the writer hashes every section
 * when it lays out an image and a load re-hashes every section it
 * maps, and every fold step is a bijection of the running state, so
 * any single-word difference is guaranteed to change the result.
 */
uint64_t fnv1aWords(const uint8_t *data, size_t size,
                    uint64_t seed = 0xcbf29ce484222325ull);

/** True when @p data is a trace image of another format version: a
 *  store entry a format change left behind, not a corrupt one. */
bool isStaleV2Image(const uint8_t *data, size_t size);

/**
 * A read-only memory-mapped file. On platforms (or filesystems) where
 * mmap fails, falls back to reading the file into an owned buffer, so
 * data() is always valid after a successful open().
 */
class MmapFile
{
  public:
    MmapFile() = default;
    ~MmapFile();

    MmapFile(const MmapFile &) = delete;
    MmapFile &operator=(const MmapFile &) = delete;

    /** Map @p path read-only. Any failure returns false. */
    bool open(const std::string &path);

    const uint8_t *data() const { return data_; }
    size_t size() const { return size_; }
    /** True when the bytes come from a real mmap, not the fallback. */
    bool mapped() const { return mapped_; }

  private:
    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
    bool mapped_ = false;
    std::vector<uint8_t> fallback_;
};

} // namespace mmxdsp::trace

#endif // MMXDSP_TRACE_FORMAT_V2_HH
