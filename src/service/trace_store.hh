/**
 * @file
 * Sharded, content-addressed trace store — the one persistence layer
 * for captured traces, shared by the bench harness
 * (harness::BenchmarkSuite) and vprofd (service::QueryEngine):
 *
 *  - entries are keyed by (benchmark, version, SuiteConfig hash) and
 *    spread over N shard subdirectories ("shard-00" ..) by a stable
 *    hash of the key, so directory scans and evictions touch 1/N of
 *    the corpus and two stores rarely contend on one directory;
 *  - every entry is a trace image (format_v2.hh), so a hit is an mmap
 *    + checksum scan with no decode — the returned MaterializedTrace
 *    aliases the mapping and is shared (read-only) between any number
 *    of replay threads;
 *  - publishes are write-to-unique-temp + rename (support/io.hh), so
 *    readers never see partial files, and any file that fails
 *    validation or carries another key is moved to the shard's
 *    "quarantine/" subdirectory and treated as a miss;
 *  - an optional size budget is enforced by evicting the
 *    least-recently-used entries (hits refresh the file mtime), so a
 *    long-running daemon cannot grow the corpus without bound.
 *
 * Everything is safe under concurrent readers, writers and evictors:
 * POSIX keeps an unlinked file's mapping alive, so a trace served to a
 * query survives its own eviction.
 */

#ifndef MMXDSP_SERVICE_TRACE_STORE_HH
#define MMXDSP_SERVICE_TRACE_STORE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/materialize.hh"

namespace mmxdsp::service {

struct StoreOptions
{
    std::string root = "vprofd_store";
    /** Number of shard subdirectories (clamped to [1, 256]). */
    uint32_t shards = 16;
    /** Total corpus size budget in bytes; 0 = unlimited. */
    uint64_t budget_bytes = 0;
};

/**
 * One shard directory's disk usage, from a directory scan (the same
 * walk enforceBudget uses). `quarantined` counts files parked in the
 * shard's own "quarantine/" subdirectory — quarantineFile() moves a
 * bad entry aside within its parent shard, so the evidence stays
 * attributable to the shard that served it.
 */
struct ShardUsage
{
    uint32_t shard = 0;
    uint64_t entries = 0;     ///< live entries (temp files excluded)
    uint64_t bytes = 0;       ///< bytes across those entries
    uint64_t quarantined = 0; ///< files in this shard's quarantine/
};

struct StoreStats
{
    uint64_t v2_hits = 0;    ///< served straight from an mmap'd image
    /** Always 0: every entry is a v3 image. Kept because the pipeline
     *  benchmark (perfbench/src/layers.cc) still sums it into its hits. */
    uint64_t v1_hits = 0;
    uint64_t misses = 0;     ///< no entry (or only invalid ones)
    uint64_t stores = 0;     ///< successful publishes
    uint64_t quarantined = 0;///< invalid files moved aside
    uint64_t evicted = 0;    ///< entries removed by the budget
};

class TraceStore
{
  public:
    explicit TraceStore(StoreOptions opts = StoreOptions{});

    const StoreOptions &options() const { return opts_; }

    /**
     * The shard an entry lives in: a stable FNV-1a hash of the key,
     * so every process (and every future run) routes one key to the
     * same shard directory.
     */
    uint32_t shardOf(const std::string &benchmark,
                     const std::string &version,
                     uint64_t config_hash) const;

    std::string shardDir(uint32_t shard) const;

    /** On-disk path for a key: "<root>/shard-NN/<bench>.<ver>.<hash>.mxt2". */
    std::string path(const std::string &benchmark,
                     const std::string &version,
                     uint64_t config_hash) const;

    /**
     * Look up a trace. A hit mmaps the file (zero-copy, validated).
     * Invalid or key-mismatched files are quarantined. A miss (or an
     * unloadable entry) returns nullptr. Hits refresh the entry's
     * mtime for LRU eviction.
     */
    std::shared_ptr<const trace::MaterializedTrace>
    load(const std::string &benchmark, const std::string &version,
         uint64_t config_hash);

    /** Publish a materialized trace as an image (atomic rename), then
     *  enforce the size budget. */
    bool store(const std::string &benchmark, const std::string &version,
               uint64_t config_hash, const trace::MaterializedTrace &mat);

    /** Total bytes of live entries across all shards. */
    uint64_t totalBytes() const;

    /** Number of live entries across all shards. */
    uint64_t entryCount() const;

    /**
     * Per-shard usage breakdown, one row per configured shard (empty
     * shards included, so the caller can spot routing skew). Totals
     * across rows equal entryCount()/totalBytes().
     */
    std::vector<ShardUsage> shardUsage() const;

    /**
     * Remove least-recently-used entries until the corpus fits the
     * budget (no-op when budget_bytes == 0). Returns bytes removed.
     * Safe against concurrent loads: a reader that already mmap'd an
     * evicted file keeps a valid mapping.
     */
    uint64_t enforceBudget();

    StoreStats stats() const;

  private:
    struct Entry
    {
        std::string path;
        uint64_t bytes;
        int64_t mtime_ns;
    };

    /** All live entries (shard dirs only; temp files skipped). */
    std::vector<Entry> scan() const;

    void bump(uint64_t StoreStats::*field, uint64_t n = 1);

    StoreOptions opts_;
    mutable std::mutex mu_; ///< guards stats_ only; file ops are lock-free
    StoreStats stats_;
};

} // namespace mmxdsp::service

#endif // MMXDSP_SERVICE_TRACE_STORE_HH
