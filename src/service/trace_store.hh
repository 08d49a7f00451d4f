/**
 * @file
 * Content-addressed trace store — the one persistence layer for
 * captured traces, behind service::QueryEngine (and so behind the
 * bench harness and vprofd alike):
 *
 *  - entries are keyed by (benchmark, version, SuiteConfig hash) and
 *    live side by side in one directory, one file per key
 *    ("<root>/<bench>.<ver>.<hash16>.mxt2");
 *  - every entry is a trace image (format_v2.hh), so a hit is an mmap
 *    + checksum scan with no decode — the returned MaterializedTrace
 *    aliases the mapping and is shared (read-only) between any number
 *    of replay threads;
 *  - publishes are write-to-unique-temp + rename (support/io.hh), so
 *    readers never see partial files, and any file that fails
 *    validation or carries another key is moved to "<root>/quarantine/"
 *    and treated as a miss (an image of another format version is a
 *    plain miss, replaced in place by the next publish of its key);
 *  - an optional size budget is enforced by evicting the
 *    least-recently-used entries (hits refresh the file mtime), so a
 *    long-running daemon cannot grow the corpus without bound. The
 *    budget counts every image under the root, subdirectories
 *    included, so an image the older sharded layout left in
 *    "<root>/shard-NN/" (never served, never refreshed) goes first.
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
    /** Directory of the entries; empty = a store that holds nothing. */
    std::string root = "vprofd_store";
    /** Total corpus size budget in bytes; 0 = unlimited. */
    uint64_t budget_bytes = 0;
};

/** What a store holds on disk, from one walk of its root. */
struct StoreUsage
{
    uint64_t entries = 0;     ///< live images (temp files excluded)
    uint64_t bytes = 0;       ///< bytes across those images
    uint64_t quarantined = 0; ///< files in quarantine/ directories
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

    /** On-disk path for a key: "<root>/<bench>.<ver>.<hash16>.mxt2". */
    std::string path(const std::string &benchmark,
                     const std::string &version,
                     uint64_t config_hash) const;

    /**
     * Look up a trace. A hit mmaps the file (zero-copy, validated).
     * Invalid or key-mismatched files are quarantined; an image of
     * another format version stays put. A miss (or an unloadable
     * entry) returns nullptr. Hits refresh the entry's
     * mtime for LRU eviction.
     */
    std::shared_ptr<const trace::MaterializedTrace>
    load(const std::string &benchmark, const std::string &version,
         uint64_t config_hash);

    /** Publish a materialized trace as an image (atomic rename), then
     *  enforce the size budget. */
    bool store(const std::string &benchmark, const std::string &version,
               uint64_t config_hash, const trace::MaterializedTrace &mat);

    /** Total bytes of live entries. */
    uint64_t totalBytes() const;

    /** Number of live entries. */
    uint64_t entryCount() const;

    /** Live entries, their bytes and the quarantined files, together. */
    StoreUsage usage() const;

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

    /**
     * All live entries: every image under the root, subdirectories
     * included, but none in a quarantine/ directory and no temp file.
     * Counts the quarantined files into @p quarantined when given.
     */
    std::vector<Entry> scan(uint64_t *quarantined = nullptr) const;

    void bump(uint64_t StoreStats::*field, uint64_t n = 1);

    StoreOptions opts_;
    mutable std::mutex mu_; ///< guards stats_ only; file ops are lock-free
    StoreStats stats_;
};

} // namespace mmxdsp::service

#endif // MMXDSP_SERVICE_TRACE_STORE_HH
