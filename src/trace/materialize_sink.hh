/**
 * @file
 * MaterializeSink — the capture path: runtime::Cpu → MaterializedTrace.
 *
 * It implements TraceSink::onInstrBatch and writes each 512-event
 * capture block straight into the SoA buffers (per-op flag bits
 * pre-decoded, segment stream and function table built incrementally),
 * while folding a running FNV-1a state per image section over every
 * appended block. finish() then hands back a ready MaterializedTrace
 * whose serializeV2() reuses those running checksums, so capture → v3
 * on-disk image is one pass over the event stream.
 *
 * Contract (test_trace.cc, test_materialize_sink.cc): replaying the
 * finished trace reproduces the profile of the live execution it
 * captured bit for bit, and the image is the same whether the producer
 * delivers events in batches or one at a time.
 */

#ifndef MMXDSP_TRACE_MATERIALIZE_SINK_HH
#define MMXDSP_TRACE_MATERIALIZE_SINK_HH

#include <array>
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

    uint64_t instrCount() const { return op_.size() + nstage_; }

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
    /** Append one ≤kBlockEvents chunk: transpose, checksum, insert. */
    void appendChunk(std::span<const isa::InstrEvent> events);
    /** Reserve ≥ @p need events in every SoA buffer (growth ×4). */
    void growTo(size_t need);
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
     * here and flush
     * through appendBlock() in kBlockEvents blocks, so the SoA appends
     * and checksum folds always run over full blocks. Batch producers
     * (runtime::Cpu) bypass it entirely.
     */
    std::vector<isa::InstrEvent> stage_;
    size_t nstage_ = 0;

    /**
     * One capture block transposed to SoA form, L1-resident and reused
     * for every chunk: events are transposed and checksummed here while
     * cache-hot, then appended to the big buffers with insert() — a
     * single write per byte, instead of resize()'s zero-fill followed
     * by the store.
     */
    struct Block
    {
        uint16_t op[kBlockEvents];
        uint8_t flags[kBlockEvents];
        uint8_t size[kBlockEvents];
        uint8_t src0[kBlockEvents];
        uint8_t src1[kBlockEvents];
        uint8_t dst[kBlockEvents];
        uint32_t site[kBlockEvents];
        uint64_t addr[kBlockEvents];
        uint32_t fnId[kBlockEvents];
    };
    Block block_;

    // -- SoA staging buffers, adopted by the trace at finish() --
    std::vector<uint16_t> op_;
    std::vector<uint8_t> flags_;
    std::vector<uint8_t> size_;
    std::vector<uint8_t> src0_;
    std::vector<uint8_t> src1_;
    std::vector<uint8_t> dst_;
    std::vector<uint32_t> site_;
    std::vector<uint64_t> addr_;
    std::vector<uint32_t> fnId_;
    std::vector<MaterializedTrace::Segment> segs_;

    // -- function table: index 0 is the measured root --
    std::vector<std::string> fnNames_;
    std::vector<profile::FunctionStats> fnCounts_;
    std::unordered_map<std::string, uint32_t> fnIds_;
    std::vector<uint32_t> stack_;
    uint32_t current_ = 0; ///< owning function id for arriving events
    uint32_t run_ = 0;     ///< length of the open instruction run

    /** Per-op flag bits (MaterializedTrace::opFlagBits()). */
    std::array<uint8_t, isa::kNumOps> opBits_{};

    /**
     * Config-independent profile tallies, folded per chunk while the
     * block is cache-hot, so finish() can stamp the result template
     * without re-streaming the (by then cold) buffers.
     */
    profile::ProfileResult counts_{};
    uint64_t controlCount_ = 0;
    uint32_t maxSite_ = 0;
    std::vector<uint8_t> seenSites_; ///< first-use bitmap, grown on demand

    /**
     * Running word-folded FNV-1a state per event section, advanced
     * over each appended block while its bytes are still cache-hot;
     * chunk-sequential, so after the last block each digest() equals
     * fnv1aWords over the whole section. Indexed by V2SectionId like
     * MaterializedTrace::sectionChecksums_.
     */
    std::array<Fnv1aStream, 12> cksum_{};
};

} // namespace mmxdsp::trace

#endif // MMXDSP_TRACE_MATERIALIZE_SINK_HH
