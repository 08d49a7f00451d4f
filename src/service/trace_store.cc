#include "trace_store.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "support/io.hh"
#include "support/logging.hh"
#include "trace/format.hh"

namespace fs = std::filesystem;

namespace mmxdsp::service {

namespace {

std::string
keyFileName(const std::string &benchmark, const std::string &version,
            uint64_t config_hash)
{
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(config_hash));
    return benchmark + "." + version + "." + hash + ".mxt2";
}

/** Refresh an entry's mtime so budget eviction sees it as recent. */
void
touchEntry(const std::string &path)
{
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

void
quarantineEntry(const std::string &path, const char *why)
{
    if (quarantineFile(path))
        mmxdsp_warn("trace store: %s %s; quarantined", why, path.c_str());
    else
        mmxdsp_warn("trace store: %s %s; could not quarantine", why,
                    path.c_str());
}

} // namespace

TraceStore::TraceStore(StoreOptions opts) : opts_(std::move(opts))
{
    opts_.shards = std::clamp<uint32_t>(opts_.shards, 1, 256);
}

uint32_t
TraceStore::shardOf(const std::string &benchmark, const std::string &version,
                    uint64_t config_hash) const
{
    uint64_t h = trace::fnv1a(
        reinterpret_cast<const uint8_t *>(benchmark.data()),
        benchmark.size());
    h = trace::fnv1a(reinterpret_cast<const uint8_t *>(version.data()),
                     version.size(), h);
    h = trace::fnv1aMix(h, config_hash);
    return static_cast<uint32_t>(h % opts_.shards);
}

std::string
TraceStore::shardDir(uint32_t shard) const
{
    char name[24];
    std::snprintf(name, sizeof(name), "shard-%02x", shard);
    return opts_.root + "/" + name;
}

std::string
TraceStore::path(const std::string &benchmark, const std::string &version,
                 uint64_t config_hash) const
{
    return shardDir(shardOf(benchmark, version, config_hash)) + "/"
           + keyFileName(benchmark, version, config_hash);
}

std::shared_ptr<const trace::MaterializedTrace>
TraceStore::load(const std::string &benchmark, const std::string &version,
                 uint64_t config_hash)
{
    const std::string p = path(benchmark, version, config_hash);
    auto mat = std::make_shared<trace::MaterializedTrace>();
    if (mat->loadV2File(p)) {
        if (mat->benchmark() == benchmark && mat->version() == version
            && mat->configHash() == config_hash) {
            touchEntry(p);
            bump(&StoreStats::v2_hits);
            return mat;
        }
        quarantineEntry(p, "key-mismatched entry");
        bump(&StoreStats::quarantined);
    } else if (std::error_code ec; fs::exists(p, ec)) {
        quarantineEntry(p, "corrupt entry");
        bump(&StoreStats::quarantined);
    }
    bump(&StoreStats::misses);
    return nullptr;
}

bool
TraceStore::store(const std::string &benchmark, const std::string &version,
                  uint64_t config_hash, const trace::MaterializedTrace &mat)
{
    if (!mat.valid())
        return false;
    const uint32_t shard = shardOf(benchmark, version, config_hash);
    std::error_code ec;
    fs::create_directories(shardDir(shard), ec);
    if (ec) {
        mmxdsp_warn("trace store: cannot create %s: %s",
                    shardDir(shard).c_str(), ec.message().c_str());
        return false;
    }
    const std::string p = path(benchmark, version, config_hash);
    if (!mat.writeV2File(p)) {
        mmxdsp_warn("trace store: cannot write %s", p.c_str());
        return false;
    }
    bump(&StoreStats::stores);
    if (opts_.budget_bytes)
        enforceBudget();
    return true;
}

std::vector<TraceStore::Entry>
TraceStore::scan() const
{
    std::vector<Entry> entries;
    std::error_code ec;
    for (uint32_t shard = 0; shard < opts_.shards; ++shard) {
        fs::directory_iterator it(shardDir(shard), ec);
        if (ec) {
            ec.clear();
            continue;
        }
        for (const fs::directory_entry &de : it) {
            if (!de.is_regular_file(ec))
                continue;
            const std::string name = de.path().filename().string();
            // In-flight atomic publishes are not corpus entries.
            if (name.find(".tmp.") != std::string::npos)
                continue;
            Entry e;
            e.path = de.path().string();
            e.bytes = static_cast<uint64_t>(de.file_size(ec));
            const auto mtime = de.last_write_time(ec);
            e.mtime_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             mtime.time_since_epoch())
                             .count();
            entries.push_back(std::move(e));
        }
    }
    return entries;
}

uint64_t
TraceStore::totalBytes() const
{
    uint64_t total = 0;
    for (const Entry &e : scan())
        total += e.bytes;
    return total;
}

uint64_t
TraceStore::entryCount() const
{
    return static_cast<uint64_t>(scan().size());
}

std::vector<ShardUsage>
TraceStore::shardUsage() const
{
    std::vector<ShardUsage> usage(opts_.shards);
    std::error_code ec;
    for (uint32_t shard = 0; shard < opts_.shards; ++shard) {
        ShardUsage &u = usage[shard];
        u.shard = shard;
        const std::string dir = shardDir(shard);
        for (fs::directory_iterator it(dir, ec);
             !ec && it != fs::directory_iterator(); ++it) {
            const fs::directory_entry &de = *it;
            if (!de.is_regular_file(ec))
                continue;
            const std::string name = de.path().filename().string();
            if (name.find(".tmp.") != std::string::npos)
                continue;
            ++u.entries;
            u.bytes += static_cast<uint64_t>(de.file_size(ec));
        }
        ec.clear();
        // quarantineFile() parks bad entries in the shard's own
        // quarantine/ subdirectory; count them where they fell.
        for (fs::directory_iterator it(dir + "/quarantine", ec);
             !ec && it != fs::directory_iterator(); ++it) {
            if (it->is_regular_file(ec))
                ++u.quarantined;
        }
        ec.clear();
    }
    return usage;
}

uint64_t
TraceStore::enforceBudget()
{
    if (!opts_.budget_bytes)
        return 0;
    std::vector<Entry> entries = scan();
    uint64_t total = 0;
    for (const Entry &e : entries)
        total += e.bytes;
    if (total <= opts_.budget_bytes)
        return 0;
    // Oldest mtime first: hits refresh mtimes, so this is LRU.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime_ns < b.mtime_ns;
              });
    uint64_t removed = 0;
    uint64_t count = 0;
    for (const Entry &e : entries) {
        if (total - removed <= opts_.budget_bytes)
            break;
        if (std::remove(e.path.c_str()) == 0) {
            removed += e.bytes;
            ++count;
        }
    }
    if (count)
        bump(&StoreStats::evicted, count);
    return removed;
}

StoreStats
TraceStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
TraceStore::bump(uint64_t StoreStats::*field, uint64_t n)
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.*field += n;
}

} // namespace mmxdsp::service
