/**
 * @file
 * MaterializeSink — the capture path: runtime::Cpu → MaterializedTrace.
 *
 * It only records. TraceSink::onInstrBatch packs each span of events,
 * whatever its length, straight into the trace tables: each event's
 * (site, op, memory mode, size) tuple is interned into the static table
 * through a direct-mapped per-site cache of the last entry a site used,
 * its address's high half into the region table, and what is left —
 * the 6-byte record and a memory event's low address half — is
 * appended. The segment stream and the function table are built
 * incrementally, and each static entry's events are counted; finish()
 * hands those counts to MaterializedTrace::derive(), which folds the
 * tallies exactly as a load does. No checksum is computed here: the
 * image writer hashes every section when it lays the image out.
 *
 * An event without a memory operand keeps no address (it replays as
 * 0). A site id is any u32: nothing is sized or indexed by it beyond
 * the fixed-size cache. A stream with more than kMaxStaticInstrs
 * distinct tuples or kMaxAddrRegions distinct high address halves does
 * not fit the image: capture panics.
 *
 * Contract (test_trace.cc, test_materialize_sink.cc): replaying the
 * finished trace reproduces the profile of the live execution it
 * captured bit for bit, and the image is the same however the producer
 * splits the events into spans.
 */

#ifndef MMXDSP_TRACE_MATERIALIZE_SINK_HH
#define MMXDSP_TRACE_MATERIALIZE_SINK_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/trace_sink.hh"
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

    void onInstrBatch(std::span<const isa::InstrEvent> events) override;
    void onEnterFunction(const char *name) override;
    void onLeaveFunction() override;

    /**
     * Close the capture and return the materialized trace (valid).
     * Pass the capturing @p cpu to embed site metadata (file, line,
     * function) for the sites the stream touched; with a null cpu the
     * trace carries no site metadata. Fatal when called twice.
     */
    MaterializedTrace finish(const runtime::Cpu *cpu = nullptr);

  private:
    /** The static-table index of @p st, whose interning key is
     *  @p key; a new tuple gets a new entry. */
    uint32_t internStatic(const StaticInstr &st, uint64_t key);
    /** The region-table index of high address half @p hi. */
    uint32_t internRegion(uint32_t hi);
    /** Close the currently open instruction run in the segment stream. */
    void flushRun();

    std::string benchmark_;
    std::string version_;
    uint64_t configHash_ = 0;
    bool finished_ = false;

    // -- the trace tables, adopted by the trace at finish() --
    std::vector<PackedOp> ops_;
    std::vector<uint32_t> addrLo_;
    std::vector<StaticInstr> statics_;
    std::vector<uint32_t> regions_;
    std::vector<MaterializedTrace::Segment> segs_;

    // -- interning state --
    /** Static-table index by the entry's 8 bytes. */
    std::unordered_map<uint64_t, uint32_t> staticIds_;
    /**
     * Direct-mapped by site id modulo kSiteSlots: the entry the last
     * event of a site in that slot used (kNoSid: none yet). The entry
     * itself carries its site, so comparing it with the event's tuple
     * checks the tag; a miss falls back to staticIds_.
     */
    static constexpr size_t kSiteSlots = 4096;
    static constexpr uint32_t kNoSid = UINT32_MAX;
    std::array<uint32_t, kSiteSlots> lastSid_;
    /** Events per static entry: the config-independent tallies depend
     *  only on the entry, so derive() folds them from these. */
    std::vector<uint64_t> sidCounts_;
    /** The last memory event's high address half (~0: none yet) and
     *  its region index. */
    uint64_t regionHi_ = ~uint64_t{0};
    uint32_t region_ = 0;

    // -- function table: index 0 is the measured root --
    std::vector<std::string> fnNames_;
    std::unordered_map<std::string, uint32_t> fnIds_;
    uint32_t run_ = 0; ///< length of the open instruction run
};

} // namespace mmxdsp::trace

#endif // MMXDSP_TRACE_MATERIALIZE_SINK_HH
