/**
 * @file
 * vprofd's query engine: (benchmark, version, machine) in, profile out.
 *
 * The engine sits between the TraceStore and callers (the
 * vprofd binary, perfbench, tests) and implements the
 * compute-once/serve-many pipeline:
 *
 *   result cache  — completed profiles keyed by (trace key, machine
 *                   hash); a repeat query is a map lookup, no replay;
 *   trace cache   — resident MaterializedTraces keyed by trace key;
 *                   a v2 store hit mmaps the entry zero-copy, and the
 *                   mapping stays resident (LRU by byte size) for
 *                   subsequent queries against other machines;
 *   memos         — beside each resident trace, its per-geometry
 *                   cache/BTB outcome memos (MaterializedTrace::Memos):
 *                   the first replay on a geometry records them, and a
 *                   later miss that only changes penalties or the model
 *                   replays them and runs the timing pass alone. Their
 *                   bytes count against the trace-cache budget and they
 *                   are dropped with their trace;
 *   batch sweeps  — queryBatch() groups result-cache misses by trace
 *                   and answers each group with one replaySweep()
 *                   call over the trace's memos: per-machine passes
 *                   side by side, and the P5 machines of a wide group
 *                   on the config-parallel lanes (one pass over the
 *                   trace, one lane per distinct machine);
 *   capture       — a trace absent from the store is captured live
 *                   (BenchmarkSuite, the same capture path the bench
 *                   harness uses), published to the store as format
 *                   v2, and then served like any other entry. Capture
 *                   can be disabled for pure-replay daemons.
 *
 * Results are bit-identical to constructing a BenchmarkSuite and
 * profiling the pair directly: the engine only moves where the replay
 * runs, never what it computes.
 */

#ifndef MMXDSP_SERVICE_QUERY_ENGINE_HH
#define MMXDSP_SERVICE_QUERY_ENGINE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/suite.hh"
#include "service/trace_store.hh"
#include "sim/timing_model.hh"

namespace mmxdsp::service {

/**
 * Stable FNV-1a hash of one simulated machine's sim::machineKey(): its
 * model, cache and BTB geometry, memory penalties and resolved
 * mispredict penalty. Machines with equal keys time traces identically,
 * which is what makes this a safe result-cache key; a query that sets
 * its model's own penalty (`mp=4` on the P5) hits the entry of one that
 * leaves it unset.
 */
uint64_t machineHash(const sim::MachineConfig &machine);

/** One request: profile a benchmark pair on a machine. */
struct Query
{
    std::string benchmark;
    std::string version;
    sim::MachineConfig machine;
};

struct QueryResult
{
    Query query;
    bool ok = false;
    std::string error;             ///< set when !ok
    bool from_result_cache = false;///< served without any replay
    bool trace_captured = false;   ///< this query forced a live capture
    profile::ProfileResult profile;
};

struct EngineOptions
{
    StoreOptions store;
    /** Workload parameters every query's trace is captured with. */
    harness::SuiteConfig suite;
    /** Sweep worker threads (0 = auto). */
    int threads = 0;
    /** Capture missing traces live; off = such queries fail. */
    bool allow_capture = true;
    /** Resident-trace cache budget in bytes, memos included (0
     *  disables both). */
    size_t trace_cache_bytes = 512ull << 20;
};

struct EngineStats
{
    uint64_t queries = 0;
    uint64_t result_hits = 0;   ///< served from the result cache
    uint64_t trace_mem_hits = 0;///< trace already resident
    uint64_t store_loads = 0;   ///< trace loaded from the store
    uint64_t captures = 0;      ///< traces captured live
    uint64_t replays = 0;       ///< sweep lanes actually computed
    /** Replays served from recorded cache and BTB memos (no cache or
     *  BTB simulation at all). */
    uint64_t memo_hits = 0;
    uint64_t memo_bytes = 0;    ///< memo bytes resident right now
    uint64_t failures = 0;
};

class QueryEngine
{
  public:
    explicit QueryEngine(EngineOptions opts = EngineOptions{});
    ~QueryEngine();

    /** Answer one query (a batch of one). */
    QueryResult query(const Query &q);

    /**
     * Answer many queries, index-aligned with @p queries. Result-cache
     * misses are grouped by trace and each group is answered by one
     * replaySweep() over that trace and its memos (duplicate machines
     * deduplicated), so every geometry of a batch is recorded at most
     * once and replayed by all of its machines.
     */
    std::vector<QueryResult> queryBatch(const std::vector<Query> &queries);

    /**
     * Parse one query line: "benchmark version [model=p5|p6|p6p] [scale-
     * free key=value parameters: l1=BYTES l1_ways=N l1_line=N l2=BYTES
     * l2_ways=N l2_line=N btb=ENTRIES btb_ways=N mp=CYCLES]", every
     * number in decimal. Unknown pairs and malformed parameters fail
     * with a message in @p error (daemon input is untrusted; a bad line
     * must never hit the harness's fatal path).
     */
    static bool parseQueryLine(const std::string &line, Query *out,
                               std::string *error);

    TraceStore &store() { return store_; }
    const EngineOptions &options() const { return opts_; }
    EngineStats stats() const;

  private:
    struct ResultEntry
    {
        profile::ProfileResult profile;
        std::list<std::string>::iterator lru;
    };
    struct TraceEntry
    {
        std::shared_ptr<const trace::MaterializedTrace> trace;
        std::list<std::string>::iterator lru;
        trace::MaterializedTrace::Memos memos;
        size_t memoBytes = 0; ///< memos.byteSize() as last charged
    };

    std::string traceKey(const std::string &benchmark,
                         const std::string &version) const;

    /**
     * Resident trace for a pair: memory cache, then store (mmap), then
     * live capture + publish. Returns nullptr with @p error set.
     */
    std::shared_ptr<const trace::MaterializedTrace>
    traceFor(const std::string &benchmark, const std::string &version,
             bool *captured, std::string *error);

    void insertResult(const std::string &key,
                      const profile::ProfileResult &profile);
    const profile::ProfileResult *lookupResult(const std::string &key);
    void insertTrace(const std::string &key,
                     std::shared_ptr<const trace::MaterializedTrace> t);
    /** Charge @p entry's memo growth to the budget; to fit, drop
     *  @p entry's memos first, then evict least recently used traces. */
    void chargeMemos(TraceEntry &entry);

    EngineOptions opts_;
    TraceStore store_;
    mutable std::mutex mu_; ///< serializes cache + suite access
    EngineStats stats_;

    std::unordered_map<std::string, ResultEntry> results_;
    std::list<std::string> resultLru_; ///< front = most recent

    std::unordered_map<std::string, TraceEntry> traces_;
    std::list<std::string> traceLru_;
    size_t traceBytes_ = 0;

    /** Lazily created capture harness (never constructed when every
     *  query is served from the store or caches). */
    std::unique_ptr<harness::BenchmarkSuite> suite_;
};

} // namespace mmxdsp::service

#endif // MMXDSP_SERVICE_QUERY_ENGINE_HH
