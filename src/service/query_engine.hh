/**
 * @file
 * The query engine: (benchmark, version, machine) in, profile out. It
 * is the one trace pipeline: vprofd, perfbench and the bench harness
 * (harness::BenchmarkSuite is a thin front over it) all ask it.
 *
 *   result cache  — completed profiles keyed by (pair, workload hash,
 *                   machine hash); a repeat query is a map lookup;
 *   trace cache   — resident MaterializedTraces, LRU by byte size; a
 *                   store hit mmaps the entry zero-copy. The budget
 *                   counts the traces a batch is replaying, but only
 *                   idle traces are evicted. A capture the store could
 *                   not take is pinned: a recapture could shift the
 *                   address stream;
 *   memos         — beside each resident trace, its per-geometry
 *                   cache/BTB outcome memos (MaterializedTrace::Memos),
 *                   recorded by the first replay on a geometry, so a
 *                   later miss that only changes penalties or the model
 *                   runs the timing pass alone. They count against the
 *                   budget and leave with their trace;
 *   scheduler     — queryBatch() groups result-cache misses by trace.
 *                   One trace is one replaySweep() over its memos on
 *                   every worker. Across traces, store loads and
 *                   replays share the worker pool, one trace per
 *                   worker, and a trace asked for one machine runs the
 *                   fused kernel (replayProfile) and records no memos;
 *   capture       — a trace absent from the store is captured live
 *                   (harness::PairRunner), one at a time on the calling
 *                   thread, each replay beside the next capture, and
 *                   published. Capture can be disabled.
 *
 * Every answer is bit-identical to replayProfile() of the pair's trace.
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
     *  disables both; pinned captures stay resident). */
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
     * Answer many queries, index-aligned with @p queries, on
     * options().threads workers. Result-cache misses are grouped by
     * trace, and a group is answered by one replay of its trace (the
     * scheduler above): duplicate machines are computed once, and a
     * geometry is recorded at most once and replayed by all machines.
     */
    std::vector<QueryResult> queryBatch(const std::vector<Query> &queries)
    {
        return queryBatch(queries, opts_.threads);
    }
    /** queryBatch() on @p threads workers (0 = auto). */
    std::vector<QueryResult> queryBatch(const std::vector<Query> &queries,
                                        int threads);

    /**
     * The resident trace of a pair: memory cache, then store (mmap),
     * then live capture + publish. It joins the trace cache like any
     * trace a query loads, but nothing is replayed, so it brings no
     * memos and no results. Returns nullptr with @p error set when the
     * pair is unknown or absent and capture is off.
     */
    std::shared_ptr<const trace::MaterializedTrace>
    trace(const std::string &benchmark, const std::string &version,
          std::string *error = nullptr);

    /**
     * Capture one pair live and publish it to the store. The engine
     * keeps no reference to the trace, so it lives exactly as long as
     * the caller holds it; @p published (when given) says whether the
     * store took it. Fatal on an unknown pair. Like runner(), for one
     * thread and never beside a query.
     */
    std::shared_ptr<const trace::MaterializedTrace>
    capture(const std::string &benchmark, const std::string &version,
            bool *published = nullptr);

    /** The live runtime every capture executes on, built on first use. */
    harness::PairRunner &runner();

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
        int busy = 0;         ///< replays in flight: not evictable
        bool pinned = false;  ///< not in the store: never evicted
    };
    struct Group;

    void insertResult(const std::string &key,
                      const profile::ProfileResult &profile);
    const profile::ProfileResult *lookupResult(const std::string &key);

    /** Hold @p g's trace busy when it is resident (refreshed as most
     *  recent). */
    void hold(Group &g);
    /** Make @p g's trace resident and hold it busy, unless the cache is
     *  off and @p pinned is not set. */
    void admit(Group &g, bool pinned);
    /** Drop @p g's hold: charge its memos to the budget, then, to fit,
     *  drop its memos first and evict idle traces (its own included). */
    void release(Group &g);

    /** Traces the cache let go, released once the cache lock is (an
     *  unmap of a large image takes milliseconds). */
    using Evicted =
        std::vector<std::shared_ptr<const trace::MaterializedTrace>>;
    /** Evict least recently used idle traces into @p evicted until the
     *  cache fits its budget. */
    void evictIdle(Evicted &evicted);

    EngineOptions opts_;
    TraceStore store_;
    mutable std::mutex mu_; ///< serializes queries, trace() and stats()
    std::mutex cacheMu_;    ///< guards what a batch's workers share
    EngineStats stats_;

    std::unordered_map<std::string, ResultEntry> results_;
    std::list<std::string> resultLru_; ///< front = most recent

    std::unordered_map<std::string, TraceEntry> traces_;
    std::list<std::string> traceLru_;
    size_t traceBytes_ = 0;

    std::unique_ptr<harness::PairRunner> runner_; ///< built on first use
};

} // namespace mmxdsp::service

#endif // MMXDSP_SERVICE_QUERY_ENGINE_HH
