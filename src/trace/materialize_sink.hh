/**
 * @file
 * MaterializeSink — the capture path: runtime::Cpu → MaterializedTrace.
 *
 * It implements TraceSink::onInstrBatch and packs each 512-event
 * capture block straight into the trace tables: each event's (site,
 * op, memory mode, size) tuple is interned into the static table
 * through a per-site last-entry cache, its address's high half into
 * the region table, and what is left — the 6-byte record and a memory
 * event's low address half — is appended while a running FNV-1a state
 * per image section folds over the block. The segment stream and the
 * function table are built incrementally, and the config-independent
 * tallies are counted per static entry and folded at finish(). So
 * capture → on-disk image is one pass over the event stream.
 *
 * An event without a memory operand keeps no address (it replays as
 * 0). A stream with more than kMaxStaticInstrs distinct tuples or
 * kMaxAddrRegions distinct high address halves does not fit the image:
 * capture panics.
 *
 * Contract (test_trace.cc, test_materialize_sink.cc): replaying the
 * finished trace reproduces the profile of the live execution it
 * captured bit for bit, and the image is the same whether the producer
 * delivers events in batches or one at a time.
 */

#ifndef MMXDSP_TRACE_MATERIALIZE_SINK_HH
#define MMXDSP_TRACE_MATERIALIZE_SINK_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/trace_sink.hh"
#include "trace/format_v2.hh"
#include "trace/materialize.hh"

namespace mmxdsp::runtime {
class Cpu;
}

namespace mmxdsp::trace {

class MaterializeSink final : public sim::TraceSink
{
  public:
    /** Key fields stamped into the finished trace. */
    MaterializeSink(std::string benchmark, std::string version,
                    uint64_t config_hash);

    void onInstr(const isa::InstrEvent &e) override;
    void onInstrBatch(std::span<const isa::InstrEvent> events) override;
    void onEnterFunction(const char *name) override;
    void onLeaveFunction() override;

    uint64_t instrCount() const { return ops_.size() + nstage_; }

    /**
     * Seal the capture and return the materialized trace (valid, with
     * the per-section checksums cached for serializeV2). Pass the
     * capturing @p cpu to embed site metadata (file, line, function)
     * for the sites the stream touched; with a null cpu the trace
     * carries no site metadata. Fatal when called twice.
     */
    MaterializedTrace finish(const runtime::Cpu *cpu = nullptr);

    /** Capture-block size: matches the runtime's emit batch. */
    static constexpr size_t kBlockEvents = 512;

  private:
    /** Append a producer batch (chunked to kBlockEvents internally). */
    void appendBlock(std::span<const isa::InstrEvent> events);
    /** Append one ≤kBlockEvents chunk: pack, checksum, insert. */
    void appendChunk(std::span<const isa::InstrEvent> events);
    /** The static-table index of @p st, whose interning key is
     *  @p key; a new tuple gets a new entry. */
    uint32_t internStatic(const StaticInstr &st, uint64_t key);
    /** The region-table index of high address half @p hi. */
    uint32_t internRegion(uint32_t hi);
    /** Flush the per-event staging block (see onInstr). */
    void flushStage();
    /** Close the currently open instruction run in the segment stream. */
    void flushRun();

    std::string benchmark_;
    std::string version_;
    uint64_t configHash_ = 0;
    bool finished_ = false;

    /**
     * Staging for per-event producers (a sink that does not override
     * onInstrBatch forwards one onInstr per event): events accumulate
     * here and flush through appendBlock() in kBlockEvents blocks, so
     * the appends and checksum folds always run over full blocks.
     * Batch producers (runtime::Cpu) bypass it entirely.
     */
    std::vector<isa::InstrEvent> stage_;
    size_t nstage_ = 0;

    /**
     * One capture block packed, L1-resident and reused for every chunk:
     * events are packed and checksummed here while cache-hot, then
     * appended to the big tables with insert() — a single write per
     * byte, instead of resize()'s zero-fill followed by the store.
     */
    struct Block
    {
        PackedOp ops[kBlockEvents];
        uint32_t addr[kBlockEvents]; ///< the first `mem` are filled
        size_t mem = 0;
    };
    Block block_;

    // -- the trace tables, adopted by the trace at finish() --
    std::vector<PackedOp> ops_;
    std::vector<uint32_t> addrLo_;
    std::vector<StaticInstr> statics_;
    std::vector<uint32_t> regions_;
    std::vector<MaterializedTrace::Segment> segs_;

    // -- interning state --
    /** Static-table index by the entry's 8 bytes. */
    std::unordered_map<uint64_t, uint32_t> staticIds_;
    /** Per site id: the entry its last event used (kNoSid: none). */
    std::vector<uint32_t> lastSid_;
    static constexpr uint32_t kNoSid = UINT32_MAX;
    /** Events per static entry: the config-independent tallies depend
     *  only on the entry, so finish() folds them from these. */
    std::vector<uint64_t> sidCounts_;
    /** The last memory event's high address half (~0: none yet) and
     *  its region index. */
    uint64_t regionHi_ = ~uint64_t{0};
    uint32_t region_ = 0;

    // -- function table: index 0 is the measured root --
    std::vector<std::string> fnNames_;
    std::vector<profile::FunctionStats> fnCounts_;
    std::unordered_map<std::string, uint32_t> fnIds_;
    std::vector<uint32_t> stack_;
    uint32_t current_ = 0; ///< owning function id for arriving events
    uint32_t run_ = 0;     ///< length of the open instruction run

    /**
     * Running word-folded FNV-1a state of the record and address
     * sections, advanced over each appended block while its bytes are
     * still cache-hot; chunk-sequential, so after the last block each
     * digest() equals fnv1aWords over the whole section.
     */
    Fnv1aStream opsSum_;
    Fnv1aStream addrSum_;
};

} // namespace mmxdsp::trace

#endif // MMXDSP_TRACE_MATERIALIZE_SINK_HH
