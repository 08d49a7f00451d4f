/**
 * @file
 * MaterializedTrace — the decode-once fast replay path.
 *
 * TraceReader::replayTo() re-parses the varint/delta body on every
 * replay, which makes an N-configuration sweep pay N full decodes plus
 * one virtual sink call per instruction. A MaterializedTrace parses the
 * trace exactly once into dense structure-of-arrays event buffers and
 * then serves any number of replays straight from memory:
 *
 *  - one contiguous array per event field (op, packed mem/taken flags,
 *    memory address/size, site id, register tags, owning-function id),
 *    so replay walks sequential cache lines instead of a byte-stream
 *    decoder;
 *  - function enter/leave markers collapsed into a segment list with an
 *    interned function-name table, and the trace's site metadata table
 *    re-interned densely for hotspot labelling;
 *  - per-event facts that no timing configuration can change (micro-op
 *    counts, instruction/op/MMX-category/memory-reference totals,
 *    per-function call and instruction counts, the static-site count)
 *    folded into a ProfileResult template at materialize time, so a
 *    per-configuration replay only has to run the timing model and
 *    attribute cycles.
 *
 * replayTo() streams the buffers through sim::TraceSink::onInstrBatch
 * in cache-friendly blocks (any sink, bit-identical event stream);
 * replayProfile() / replaySweep() run the specialized profile kernel
 * whose results are bit-identical to a full VProf replay. One
 * MaterializedTrace is immutable after build() and safely shared by
 * any number of replay threads.
 *
 * Besides build() (the v1 varint decode), a MaterializedTrace can be
 * serialized as trace format v2 (format_v2.hh) — whose on-disk layout
 * is exactly these buffers — and loaded back by mmap: the event arrays
 * then alias the mapped file (zero copy, no per-load decode), which is
 * the storage format of the vprofd trace store.
 */

#ifndef MMXDSP_TRACE_MATERIALIZE_HH
#define MMXDSP_TRACE_MATERIALIZE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "profile/vprof.hh"
#include "sim/pentium_timer.hh"
#include "sim/timing_model.hh"
#include "sim/trace_sink.hh"
#include "trace/reader.hh"

namespace mmxdsp::trace {

/**
 * One cache-geometry outcome memo: the penalty class (0 = L1 hit,
 * 1 = served from L2, 2 = missed both) of every memory event in stream
 * order, plus the final statistics — everything a replay needs to
 * price its memory accesses without touching a tag array. Outcomes
 * depend only on the L1 x L2 geometry and the event stream, so one
 * memo serves every penalty set and every model. Recorded by the sweep
 * driver's memo pre-pass into a MaterializedTrace::Memos, and read by
 * the lanes and the per-machine kernel alike.
 */
struct CacheMemo
{
    std::vector<uint8_t> cls;
    uint64_t l2Served = 0; ///< class-1 count
    uint64_t l2Missed = 0; ///< class-2 count
    mem::CacheStats l1;
    mem::CacheStats l2;
};

/** One BTB-geometry outcome memo: mispredict bit per control event. */
struct BtbMemo
{
    std::vector<uint64_t> bits;
    mem::BtbStats stats;
};

/** The vector ISA of the sweep lane kernel, valued by its widest count
 *  of 64-bit lanes per register. */
enum class LaneIsa : uint8_t { None = 0, Avx2 = 4, Avx512 = 8 };

/** The widest LaneIsa this CPU runs (None: every sweep runs per
 *  machine). */
LaneIsa hostLaneIsa();

/** "avx512" / "avx2" / "none". */
const char *laneIsaName(LaneIsa isa);

/**
 * One structure-of-arrays event buffer: either owns its storage (the
 * build()/adopt() paths) or aliases external read-only memory (the
 * mmap'd format-v2 load path, where the backing mapping outlives the
 * trace via MaterializedTrace::backing_). Read access is identical
 * either way, so the replay kernels never know which they got.
 * Move-only: a view into another buffer's owned storage would dangle.
 */
template <typename T>
class EventBuf
{
  public:
    EventBuf() = default;
    EventBuf(EventBuf &&) noexcept = default;
    EventBuf &operator=(EventBuf &&) noexcept = default;
    EventBuf(const EventBuf &) = delete;
    EventBuf &operator=(const EventBuf &) = delete;

    /** Allocate @p n owned, zero-initialized elements. */
    void alloc(size_t n)
    {
        owned_.assign(n, T{});
        ptr_ = owned_.data();
        size_ = n;
    }

    /** Take ownership of an already-filled vector. */
    void adopt(std::vector<T> &&v)
    {
        owned_ = std::move(v);
        ptr_ = owned_.data();
        size_ = owned_.size();
    }

    /** Alias external memory (caller keeps it alive and immutable). */
    void view(const T *p, size_t n)
    {
        owned_.clear();
        owned_.shrink_to_fit();
        ptr_ = p;
        size_ = n;
    }

    const T *data() const { return ptr_; }
    /** Writable storage; only valid for owned (alloc'd) buffers. */
    T *mutableData() { return owned_.data(); }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T &operator[](size_t i) const { return ptr_[i]; }
    const T *begin() const { return ptr_; }
    const T *end() const { return ptr_ + size_; }

  private:
    std::vector<T> owned_;
    const T *ptr_ = nullptr;
    size_t size_ = 0;
};

class MaterializedTrace
{
  public:
    MaterializedTrace() = default;

    /**
     * Decode @p reader's body exactly once into the dense buffers.
     * Returns false (leaving this trace invalid) when the reader is
     * invalid or its body is corrupt.
     */
    bool build(const TraceReader &reader);

    /**
     * The complete format-v2 image of this trace (header + section
     * table + the SoA buffers; see format_v2.hh). Deterministic: the
     * same trace always serializes byte for byte identically.
     */
    std::vector<uint8_t> serializeV2() const;

    /**
     * Re-encode this trace as a format-v1 (varint) image, byte-identical
     * to what a live TraceWriter capture of the same event stream would
     * have produced — including the site-metadata section, rebuilt from
     * the re-interned tables. Lets a consumer that needs a TraceReader
     * reuse a materialized capture instead of executing the workload
     * again (a second run need not reproduce the address stream).
     */
    std::vector<uint8_t> serializeV1() const;

    /**
     * Load a format-v2 file by mmap. On success the event buffers
     * alias the mapping (zero-copy; only the small Meta tables are
     * decoded) and the mapping is kept alive for this trace's
     * lifetime. Any validation failure — bad magic/version, checksum
     * mismatch, truncation, inconsistent section sizes — returns false
     * and leaves the trace invalid.
     */
    bool loadV2File(const std::string &path);

    /**
     * Same validation and zero-copy aliasing over an in-memory v2
     * image (the buffers view the moved-in vector).
     */
    bool loadV2Image(std::vector<uint8_t> image);

    bool valid() const { return valid_; }
    uint64_t instrCount() const { return op_.size(); }
    const std::string &benchmark() const { return benchmark_; }
    const std::string &version() const { return version_; }
    uint64_t configHash() const { return configHash_; }
    /** One past the largest site id in the event stream (0 if empty). */
    uint32_t siteTableSize() const { return siteTableSize_; }
    /** Interned function names; index 0 is the measured root. */
    const std::vector<std::string> &functionNames() const
    {
        return fnNames_;
    }
    /** Resident size of the materialized buffers in bytes. */
    size_t byteSize() const;

    /**
     * The per-geometry outcome memos of one trace (a CacheMemo per
     * L1 x L2 geometry, a BtbMemo per BTB geometry), recorded by a
     * sweep's memo pre-pass on a geometry's first use and replayed on
     * every later one, so a replay that finds both of its memos walks
     * no tag array at all. A Memos object is bound to the trace that
     * first uses it; its holder (QueryEngine keeps one beside each
     * resident trace) passes it to every sweep of that trace and drops
     * it with the trace. Not thread-safe: one sweep at a time.
     */
    class Memos
    {
      public:
        /** Heap bytes of the recorded memos. */
        size_t byteSize() const;
        /** Replays whose memos were all recorded by an earlier sweep. */
        uint64_t hits() const { return hits_; }
        /** Drop every recorded memo (the trace binding stays). */
        void clear();

      private:
        friend class MaterializedTrace;

        using CacheKey = std::array<uint32_t, 6>; ///< L1, L2 size/line/ways
        using BtbKey = std::array<uint32_t, 2>;   ///< entries, ways
        static CacheKey cacheKey(const sim::TimerConfig &c);
        static BtbKey btbKey(const sim::TimerConfig &c);

        std::vector<std::pair<CacheKey, CacheMemo>> cache_;
        std::vector<std::pair<BtbKey, BtbMemo>> btb_;
        const MaterializedTrace *owner_ = nullptr;
        uint64_t hits_ = 0;
    };

    /**
     * Deliver the identical event stream a TraceReader replay would
     * produce, but via batched dispatch: instruction runs arrive through
     * sink.onInstrBatch() in blocks, enter/leave markers in original
     * order between them.
     */
    bool replayTo(sim::TraceSink &sink) const;

    /**
     * The fast replay kernel: profile this trace under @p config on the
     * default machine (P5) and return metrics bit-identical to replaying
     * through a fresh profile::VProf. Config-independent counts come
     * from the template computed at build time; the per-event loop runs
     * only the timing model and cycle attribution.
     */
    profile::ProfileResult
    replayProfile(const sim::TimerConfig &config = sim::TimerConfig{}) const;

    /** replayProfile() on the machine (P5/P6/P6P) @p machine selects. */
    profile::ProfileResult
    replayProfile(const sim::MachineConfig &machine) const;

    /**
     * Replay under every configuration in @p configs on the P5, fanning
     * out over @p threads workers (0 = auto); all workers share these
     * buffers. The machine overload below with the model fixed to P5.
     */
    std::vector<profile::ProfileResult>
    replaySweep(const std::vector<sim::TimerConfig> &configs,
                int threads = 0) const;

    /**
     * The sweep driver. Each entry picks its own machine and timer
     * parameters; duplicates are computed once and fanned back out.
     * Then, in order:
     *  1. the memo pre-pass records every cache and BTB geometry the
     *     entries use and @p memos lacks (into @p memos, or into
     *     call-local memos without one), one pass per L1 geometry
     *     shared by all of its L2 geometries;
     *  2. entries are grouped by model and front end (every P6/P6P
     *     parameter but the mispredict penalty); a group of more than
     *     max(2, workers) entries runs on the config-parallel lane
     *     kernel (trace/sweep_kernel.cc) of hostLaneIsa();
     *  3. every other entry runs per machine, on the memoized kernel.
     * The lane blocks and the per-machine runs share one worker pool,
     * largest task first. A build pinning
     * MMXDSP_FORCE_SCALAR_SWEEP runs every entry per machine. Results
     * are index-aligned with @p machines and bit-identical to
     * per-machine replayProfile() calls either way.
     */
    std::vector<profile::ProfileResult>
    replaySweep(const std::vector<sim::MachineConfig> &machines,
                int threads = 0, Memos *memos = nullptr) const;

    /**
     * The per-machine sweep: one scalar timing pass per entry. Without
     * @p memos every entry runs the timer's own cache and BTB — the
     * golden reference every other sweep path is checked against.
     * With @p memos it is the sweep driver with no lane kernel: the
     * memo pre-pass, then every entry replays its two memos through
     * the timer's consumeResolved() and walks no tag array.
     */
    std::vector<profile::ProfileResult>
    replaySweepScalar(const std::vector<sim::MachineConfig> &machines,
                      int threads = 0, Memos *memos = nullptr) const;

    /**
     * The sweep driver with every entry on the config-parallel lanes,
     * whatever the width (one pass per block over a hoisted program of
     * config-independent per-event facts, lane-major state, branchless
     * per-lane selects), over call-local memos; only a CPU without a
     * lane ISA runs them per machine. @p isa pins the lane kernel's
     * ISA (tests reach every width the host runs); one wider than
     * hostLaneIsa() is a fatal error. Results are bit-identical to
     * replaySweepScalar(); duplicate entries are tolerated but not
     * deduplicated here (replaySweep() does that).
     */
    std::vector<profile::ProfileResult>
    replaySweepPacked(const std::vector<sim::MachineConfig> &machines,
                      int threads = 0, LaneIsa isa = hostLaneIsa()) const;

    /** "file.cc:123" for a recorded site, or "site#N" when unknown. */
    std::string siteLabel(uint32_t site) const;

  private:
    struct BuildSink;
    /** The direct live-capture sink fills the buffers in place. */
    friend class MaterializeSink;

    /** Reassemble the i-th event from the structure-of-arrays buffers. */
    isa::InstrEvent eventAt(size_t i) const
    {
        isa::InstrEvent e;
        e.op = static_cast<isa::Op>(op_[i]);
        const uint8_t flags = flags_[i];
        e.mem = static_cast<isa::MemMode>(flags & 3);
        e.taken = (flags & 4) != 0;
        e.addr = addr_[i];
        e.size = size_[i];
        e.site = site_[i];
        e.src0 = src0_[i];
        e.src1 = src1_[i];
        e.dst = dst_[i];
        return e;
    }

    bool valid_ = false;
    std::string benchmark_;
    std::string version_;
    uint64_t configHash_ = 0;

    /**
     * Bit layout of flags_: everything the replay kernel branches on,
     * pre-decoded per event so the per-config loop never consults the
     * op tables. Bits 3-5 are derived from the op at build time.
     */
    enum : uint8_t {
        kFlagMemMask = 3,    ///< isa::MemMode
        kFlagTaken = 1 << 2, ///< branch outcome
        kFlagControl = 1 << 3,  ///< op is Jmp/Jcc/Call/Ret
        kFlagCallRet = 1 << 4,  ///< cost attributed to call/ret
        kFlagOverhead = 1 << 5, ///< cost attributed to call overhead
    };

    // -- structure-of-arrays event buffers, all instrCount() long;
    //    owned after build(), mmap-aliased after loadV2File() --
    EventBuf<uint16_t> op_;   ///< isa::Op (also the OpInfo index)
    EventBuf<uint8_t> flags_; ///< see the flag enum above
    EventBuf<uint8_t> size_;  ///< memory operand size
    EventBuf<uint8_t> src0_;
    EventBuf<uint8_t> src1_;
    EventBuf<uint8_t> dst_;
    EventBuf<uint32_t> site_;
    EventBuf<uint64_t> addr_;
    /** Owning function per event (enter/leave pre-resolved; 0 = root). */
    EventBuf<uint32_t> fnId_;

    /**
     * The marker stream for sink-level replay: instruction runs
     * interleaved with enter/leave in original program order. The
     * fixed 8-byte layout doubles as the on-disk format-v2 record.
     */
    struct Segment
    {
        enum Kind : uint32_t { Run, Enter, Leave };
        uint32_t kind;
        uint32_t value; ///< Run: event count; Enter: function id
    };
    static_assert(sizeof(Segment) == 8);
    EventBuf<Segment> segments_;

    /**
     * Keeps the memory the EventBufs alias alive when this trace was
     * loaded from a v2 image (an MmapFile or the image vector itself);
     * null for build()-constructed traces, whose buffers own storage.
     */
    std::shared_ptr<const void> backing_;

    /** Shared v2 image validation + aliasing behind the loadV2 entry
     *  points; @p holder keeps @p data alive. */
    bool adoptV2(const uint8_t *data, size_t size,
                 std::shared_ptr<const void> holder);

    /**
     * Per-op flag bits (control / call-ret / overhead) for flags_,
     * derived once from the op replay table and shared by build()'s
     * sink and the live-capture MaterializeSink, so both producers
     * stamp bit-identical flag bytes.
     */
    static std::array<uint8_t, isa::kNumOps> opFlagBits();

    /**
     * Derive everything the filled event buffers imply: siteTableSize_,
     * per-function instruction counts, the config-independent
     * ProfileResult template and controlCount_. Shared by build() and
     * MaterializeSink::finish(); expects op_..fnId_, segments_,
     * fnNames_/fnCounts_ (calls already tallied) to be populated.
     */
    void finalizeFromBuffers();

    /**
     * Per-section FNV-1a checksums carried alongside the buffers,
     * indexed by V2SectionId (format_v2.hh): filled incrementally by
     * MaterializeSink as capture blocks land, and harvested from the
     * validated table on the v2 load path, so serializeV2() never
     * re-hashes the O(instrCount) event sections. The small Meta
     * section is always hashed at serialize time (it is assembled
     * there); build()-constructed traces leave the cache invalid and
     * serializeV2() hashes everything, which is the golden reference
     * behavior.
     */
    std::array<uint64_t, 12> sectionChecksums_{};
    bool sectionChecksumsValid_ = false;

    std::vector<std::string> fnNames_;
    /** Per-function calls/instructions (config-independent). */
    std::vector<profile::FunctionStats> fnCounts_;

    /**
     * ProfileResult template holding every config-independent metric;
     * cycle-dependent fields stay zero until a replay fills them.
     */
    profile::ProfileResult counts_;

    uint32_t siteTableSize_ = 0;
    uint64_t controlCount_ = 0; ///< number of events with kFlagControl

    /**
     * Record the CacheMemo of every L2 geometry in @p l2s behind the L1
     * geometry @p l1 into the matching @p out slot: one L1 pass over
     * the memory events keeps the lines it misses, then each L2 runs
     * over just those (what reaches the L2, and in what order, depends
     * only on the L1).
     */
    void buildCacheMemos(const mem::CacheConfig &l1,
                          const std::vector<const mem::CacheConfig *> &l2s,
                          const std::vector<CacheMemo *> &out) const;

    /** Record one BTB geometry's memo: the BTB over the control events. */
    BtbMemo buildBtbMemo(uint32_t entries, uint32_t ways) const;

    /** One sweep entry's two memos. */
    struct MemoRefs
    {
        const CacheMemo *cache = nullptr;
        const BtbMemo *btb = nullptr;
    };

    /**
     * The memos of one sweep: what every entry reads, and the recorder
     * tasks that fill the geometries the caller's Memos lacked. The new
     * memos stay here while the sweep runs (so the refs stay valid) and
     * move into the Memos when it is done.
     */
    struct MemoPass
    {
        std::vector<MemoRefs> refs; ///< index-aligned with the machines
        /** One per new L1 geometry (all of its L2 geometries), then one
         *  per new BTB geometry. */
        std::vector<std::function<void()>> recorders;
        size_t reused = 0; ///< memos found already recorded
        std::vector<std::pair<Memos::CacheKey, CacheMemo>> newCache;
        std::vector<std::pair<Memos::BtbKey, BtbMemo>> newBtb;
    };

    /**
     * Resolve every cache and BTB geometry of @p machines against
     * @p memos: recorded ones are reused, each missing one is recorded
     * once by a recorder task of the returned pass. Counts the entries
     * that find both of their memos recorded as hits of @p memos.
     */
    MemoPass planMemos(const std::vector<sim::MachineConfig> &machines,
                       Memos &memos) const;

    /** How runSweep() picks each entry's kernel. */
    enum class SweepRoute {
        Dispatch, ///< replaySweep(): lanes only for wide groups
        Packed,   ///< every entry on lanes
    };

    /**
     * The sweep driver behind replaySweep(), replaySweepPacked() and
     * replaySweepScalar() with memos (trace/sweep_kernel.cc): the memo
     * recorders into @p memos (call-local when null), then each group
     * of entries on the @p isa lane kernel or per machine as @p route
     * says (every entry per machine with LaneIsa::None). Entries are
     * not deduplicated here.
     */
    std::vector<profile::ProfileResult>
    runSweep(const std::vector<sim::MachineConfig> &machines, int threads,
             Memos *memos, SweepRoute route, LaneIsa isa) const;

    /**
     * The per-config replay loop behind replayProfile()/replaySweep(),
     * dispatching once per replay to the kernel instantiated for the
     * selected machine. With memos (both or neither), memory and branch
     * outcomes come from their records and their stats are reported;
     * without, the timer's own cache and BTB run.
     */
    profile::ProfileResult runKernel(const sim::MachineConfig &machine,
                                     const CacheMemo *cache,
                                     const BtbMemo *btb) const;

    /**
     * The kernel body, templated on the concrete (final) model class so
     * the per-event consume calls devirtualize and inline, and on
     * whether the outcomes come from memos.
     */
    template <typename Model, bool Memoized>
    profile::ProfileResult runKernelImpl(const sim::TimerConfig &config,
                                         const CacheMemo *cache,
                                         const BtbMemo *btb) const;

    // -- re-interned site metadata for hotspot labelling --
    struct SiteMeta
    {
        uint32_t line = 0;
        uint32_t column = 0;
        int32_t file = -1; ///< index into strings_, -1 = unknown site
        int32_t function = -1;
    };
    std::vector<SiteMeta> siteMeta_; ///< dense by site id
    std::vector<std::string> strings_;
};

/** Convenience wrapper: materialize @p reader, fatal on corruption. */
MaterializedTrace materialize(const TraceReader &reader);

} // namespace mmxdsp::trace

#endif // MMXDSP_TRACE_MATERIALIZE_HH
