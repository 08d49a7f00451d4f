/**
 * @file
 * MaterializedTrace — the one in-memory form of a captured trace.
 *
 * A trace is the complete observable record of one measured region:
 * the instruction-event stream runtime::Cpu fed to its sim::TraceSink
 * plus the function enter/leave markers, so that replaying it through
 * profile::VProf reproduces every metric of the original execution bit
 * for bit without re-executing benchmark code (the paper's
 * capture-once / analyze-many VTune methodology). A MaterializeSink
 * (materialize_sink.hh) captures it straight into the packed form
 * every replay reads in place:
 *
 *  - a static-instruction table: one (site, op, memory mode, size)
 *    entry per distinct tuple the stream executed (a few hundred per
 *    trace), so the facts a site fixes are stored once, not per event;
 *  - one 6-byte PackedOp per event: the static-table index, the three
 *    register tags, the branch outcome and the address-region index;
 *  - the low 32 address bits of each memory event, in memory-event
 *    order, over a per-trace table of high 32-bit halves (regions), so
 *    every address is rebuilt exactly;
 *  - function enter/leave markers collapsed into a segment list with an
 *    interned function-name table, and the capture's site metadata
 *    interned densely for hotspot labelling;
 *  - per-event facts that no timing configuration can change (micro-op
 *    counts, instruction/op/MMX-category/memory-reference totals,
 *    per-function call and instruction counts, the static-site count)
 *    folded into a ProfileResult template at capture time, so a
 *    per-configuration replay only has to run the timing model and
 *    attribute cycles.
 *
 * replayTo() decodes the records through sim::TraceSink::onInstrBatch
 * in cache-friendly blocks (any sink, bit-identical event stream);
 * replayProfile() / replaySweep() run the specialized profile kernel
 * whose results are bit-identical to a full VProf replay. One
 * MaterializedTrace is immutable once captured or loaded and safely
 * shared by any number of replay threads.
 *
 * Its on-disk form is the trace image (format_v2.hh), whose layout is
 * exactly these tables: serializeV2() writes it, and loadV2File() maps
 * it back so the records alias the mapped file (zero copy, no
 * per-event decode; the per-static-entry timing facts and the
 * function-run list are derived from the small tables). Memory use is
 * about 8 bytes per event. service::TraceStore keeps these images for
 * the bench harness and vprofd alike.
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
#include "trace/format_v2.hh"

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
 *  of 32-bit lanes per register. */
enum class LaneIsa : uint8_t { None = 0, Avx2 = 8, Avx512 = 16 };

/** The widest LaneIsa this CPU runs (None: every sweep runs per
 *  machine). */
LaneIsa hostLaneIsa();

/** "avx512" / "avx2" / "none". */
const char *laneIsaName(LaneIsa isa);

/**
 * What one sweep of the driver did and where its time went
 * (MMXDSP_SWEEP_DEBUG prints it; replaySweep() can return it). Task
 * times are summed over the workers; each wall is one pool's.
 */
struct SweepReport
{
    size_t memosRecorded = 0;
    size_t memosReused = 0;
    /** Machines on lanes, per sim::ModelKind. */
    std::array<size_t, sim::kNumModelKinds> lanes{};
    size_t blocks = 0;
    size_t planes = 0;     ///< outcome planes built for the blocks
    size_t laneServed = 0; ///< real lanes reading those planes
    size_t rebases = 0;    ///< summed over the blocks
    size_t perMachine = 0;
    /** Of the per-machine runs, those the lanes could not take: a lane
     *  bound above the limit, or a front end issuing wider than it
     *  retires. */
    size_t unfit = 0;
    double prepassMs = 0.0, planeMs = 0.0, laneMs = 0.0, perMachineMs = 0.0;
    double prepassWallMs = 0.0, planeWallMs = 0.0, timingWallMs = 0.0;
};

/**
 * One event of a captured trace, as stored in the trace image and read
 * in place by every replay kernel. The static facts of the executed
 * instruction live once per trace in the static table @c sid indexes.
 */
struct PackedOp
{
    uint16_t sid; ///< static-table index (StaticInstr)
    uint8_t src0; ///< register tags (isa::RegTag)
    uint8_t src1;
    uint8_t dst;
    /** Bit 0: branch taken. Bits 1-7: the address region of a memory
     *  event (index into the trace's region table; 0 otherwise). */
    uint8_t ev;
};
static_assert(sizeof(PackedOp) == 6);

/** One static-instruction table entry: what a site fixes per event. */
struct StaticInstr
{
    uint32_t site;
    uint16_t op;  ///< isa::Op
    uint8_t mem;  ///< isa::MemMode
    uint8_t size; ///< memory operand size
};
static_assert(sizeof(StaticInstr) == 8);

/** The most static entries a trace holds (PackedOp::sid is 16 bits). */
constexpr size_t kMaxStaticInstrs = size_t{1} << 16;
/** The most address regions a trace holds (7 bits of PackedOp::ev). */
constexpr size_t kMaxAddrRegions = 128;

/**
 * Bit layout of OpFacts::flags: everything a replay kernel branches on
 * per event. Bits 0-5 are the sim::UopDesc flags (kDesc*) of the
 * entry's (op, memory mode); the low three double as the P5 intra-pair
 * structural-hazard signature: an op conflicts with the open U-pipe op
 * iff (flags & uHaz & 7) != 0.
 */
enum : uint8_t {
    kOpMem = 1 << 0,      ///< references memory (one access per event)
    kOpMmxMul = 1 << 1,   ///< occupies the single MMX multiplier
    kOpMmxShift = 1 << 2, ///< occupies the single MMX shifter
    kOpPairPV = 1 << 3,   ///< may issue in V: (UV|PV) and 1-cycle
    kOpPairUP = 1 << 4,   ///< may open a pair in U: (UV|PU) and 1-cycle
    kOpControl = 1 << 5,  ///< consumes one branch prediction
    kOpCallRet = 1 << 6,  ///< cycles attributed to call/ret
    kOpOverhead = 1 << 7, ///< cycles attributed to call overhead
};

/** The timing facts of one static entry, derived on capture and load. */
struct OpFacts
{
    uint16_t desc; ///< sim::descTable() index (op * 3 + memory mode)
    uint8_t flags; ///< kOp* bits
};

/** A maximal run of consecutive events owned by one function: the unit
 *  of cycle attribution (per-event costs telescope across a run). */
struct FnRun
{
    uint32_t count;
    uint32_t fnId;
};

/**
 * One trace table: either owns its storage (the capture path's
 * adopt()) or aliases external read-only memory (the mmap'd image
 * load path, where the backing mapping outlives the
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
     * The complete image of this trace (header + section table + the
     * trace tables; see format_v2.hh). Deterministic: the
     * same trace always serializes byte for byte identically.
     */
    std::vector<uint8_t> serializeV2() const;

    /**
     * Publish serializeV2()'s bytes at @p path (temp file + rename, see
     * support/io.hh) straight from the buffers, without assembling the
     * image in memory. False on any I/O failure.
     */
    bool writeV2File(const std::string &path) const;

    /**
     * Load an image file by mmap. On success the records and the
     * address column alias the mapping (zero-copy; only the small
     * tables are decoded) and the mapping is kept alive for this
     * trace's lifetime. Any validation failure — bad magic/version,
     * checksum mismatch, truncation, inconsistent section sizes, an
     * index out of its table — returns false and leaves the trace
     * invalid.
     */
    bool loadV2File(const std::string &path);

    /**
     * Same validation and zero-copy aliasing over an in-memory image
     * (the tables view the moved-in vector).
     */
    bool loadV2Image(std::vector<uint8_t> image);

    bool valid() const { return valid_; }
    uint64_t instrCount() const { return ops_.size(); }
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
    /** Resident size of the trace tables in bytes. */
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
     * Deliver the captured event stream to @p sink via batched
     * dispatch: instruction runs arrive through sink.onInstrBatch() in
     * blocks, enter/leave markers in original order between them.
     */
    bool replayTo(sim::TraceSink &sink) const;

    /**
     * The fast replay kernel: profile this trace under @p config on the
     * default machine (P5) and return metrics bit-identical to replaying
     * through a fresh profile::VProf. Config-independent counts come
     * from the template computed at capture time; the per-event loop runs
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
     *     kernel (trace/sweep_kernel.cc) of hostLaneIsa(), over one
     *     bit-per-lane outcome plane per distinct lane tuple, except an
     *     entry whose penalties or front end do not fit 32-bit lanes;
     *  3. every other entry runs per machine, on the memoized kernel.
     * The lane blocks and the per-machine runs share one worker pool,
     * largest task first. Results are index-aligned with @p machines
     * and bit-identical to per-machine replayProfile() calls
     * (replaySweepScalar() is the run-time oracle). @p report, when
     * given, receives what the sweep of the unique entries did.
     */
    std::vector<profile::ProfileResult>
    replaySweep(const std::vector<sim::MachineConfig> &machines,
                int threads = 0, Memos *memos = nullptr,
                SweepReport *report = nullptr) const;

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
     * whatever the width (one pass per block over the trace's records
     * in place, lane-major state, branchless per-lane selects), over
     * call-local memos; only a CPU without a
     * lane ISA runs them per machine. @p isa pins the lane kernel's
     * ISA (tests reach every width the host runs); one wider than
     * hostLaneIsa() is a fatal error. Results are bit-identical to
     * replaySweepScalar(); duplicate entries are tolerated but not
     * deduplicated here (replaySweep() does that). Entries that do not
     * fit 32-bit lanes run per machine. @p report, when given,
     * receives what the sweep did.
     */
    std::vector<profile::ProfileResult>
    replaySweepPacked(const std::vector<sim::MachineConfig> &machines,
                      int threads = 0, LaneIsa isa = hostLaneIsa(),
                      SweepReport *report = nullptr) const;

    /** "file.cc:123" for a recorded site, or "site#N" when unknown. */
    std::string siteLabel(uint32_t site) const;

  private:
    /** The live-capture sink fills the buffers in place. */
    friend class MaterializeSink;

    /**
     * Reassemble one event from its record; @p memIdx walks the
     * address column and advances past a memory event. Decodes the
     * stream in order, the way replayTo() and the memo-less kernel
     * read it.
     */
    isa::InstrEvent decode(const PackedOp &p, size_t &memIdx) const
    {
        const StaticInstr &s = statics_[p.sid];
        isa::InstrEvent e;
        e.op = static_cast<isa::Op>(s.op);
        e.mem = static_cast<isa::MemMode>(s.mem);
        if (s.mem)
            e.addr = uint64_t{regions_[p.ev >> 1]} << 32 | addrLo_[memIdx++];
        e.size = s.size;
        e.site = s.site;
        e.src0 = p.src0;
        e.src1 = p.src1;
        e.dst = p.dst;
        e.taken = (p.ev & 1) != 0;
        return e;
    }

    bool valid_ = false;
    std::string benchmark_;
    std::string version_;
    uint64_t configHash_ = 0;

    // -- the trace tables; owned after capture, mmap-aliased after
    //    loadV2File() --
    EventBuf<PackedOp> ops_;        ///< one record per event
    EventBuf<uint32_t> addrLo_;     ///< low address half per memory event
    EventBuf<StaticInstr> statics_; ///< indexed by PackedOp::sid
    EventBuf<uint32_t> regions_;    ///< high address halves

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
     * loaded from an image (an MmapFile or the image vector itself);
     * null for captured traces, whose tables own storage.
     */
    std::shared_ptr<const void> backing_;

    /** The image laid out: header, section table, Meta bytes and
     *  where each section's data lives (trace/format_v2.cc). */
    struct V2Layout;
    V2Layout layoutV2() const;

    /** Shared image validation + aliasing behind the loadV2 entry
     *  points; @p holder keeps @p data alive. */
    bool adoptV2(const uint8_t *data, size_t size,
                 std::shared_ptr<const void> holder);

    /**
     * Derive what the kernels read besides the records: the OpFacts of
     * every static entry and the function-run list of the segment
     * stream. O(static entries + segments); run on capture and load.
     */
    void derive();

    /**
     * Per-section FNV-1a checksums carried alongside the tables,
     * indexed by V2SectionId (format_v2.hh): the record and address
     * sections are folded incrementally by MaterializeSink as capture
     * blocks land, the small tables hashed at finish(), and all of
     * them harvested from the validated table on the load path, so
     * serializeV2() never re-hashes the O(instrCount) sections. The
     * Meta section is always hashed at serialize time (it is
     * assembled there).
     */
    std::array<uint64_t, kV2SectionIds> sectionChecksums_{};

    std::vector<std::string> fnNames_;
    /** Per-function calls/instructions (config-independent). */
    std::vector<profile::FunctionStats> fnCounts_;

    /**
     * ProfileResult template holding every config-independent metric;
     * cycle-dependent fields stay zero until a replay fills them.
     */
    profile::ProfileResult counts_;

    uint32_t siteTableSize_ = 0;
    uint64_t controlCount_ = 0; ///< number of events with kOpControl

    // -- derived by derive() --
    std::vector<OpFacts> facts_; ///< indexed by PackedOp::sid
    std::vector<FnRun> fnRuns_;  ///< the segment stream's runs, in order

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
     * not deduplicated here. Fills @p report when given.
     */
    std::vector<profile::ProfileResult>
    runSweep(const std::vector<sim::MachineConfig> &machines, int threads,
             Memos *memos, SweepRoute route, LaneIsa isa,
             SweepReport *report = nullptr) const;

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

} // namespace mmxdsp::trace

#endif // MMXDSP_TRACE_MATERIALIZE_HH
