#include "trace_store.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "support/io.hh"
#include "support/logging.hh"
#include "trace/format_v2.hh"

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

/** True when @p path holds a trace image of another format version:
 *  left behind by a format change, so a plain miss that the next
 *  store() of its key renames over, not a corrupt entry. */
bool
isStaleEntry(const std::string &path)
{
    trace::MmapFile file;
    return file.open(path) && trace::isStaleV2Image(file.data(), file.size());
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

TraceStore::TraceStore(StoreOptions opts) : opts_(std::move(opts)) {}

std::string
TraceStore::path(const std::string &benchmark, const std::string &version,
                 uint64_t config_hash) const
{
    return opts_.root + "/" + keyFileName(benchmark, version, config_hash);
}

std::shared_ptr<const trace::MaterializedTrace>
TraceStore::load(const std::string &benchmark, const std::string &version,
                 uint64_t config_hash)
{
    if (opts_.root.empty())
        return nullptr;
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
    } else if (std::error_code ec; fs::exists(p, ec) && !isStaleEntry(p)) {
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
    if (opts_.root.empty() || !mat.valid())
        return false;
    std::error_code ec;
    fs::create_directories(opts_.root, ec);
    if (ec) {
        mmxdsp_warn("trace store: cannot create %s: %s", opts_.root.c_str(),
                    ec.message().c_str());
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
TraceStore::scan(uint64_t *quarantined) const
{
    std::vector<Entry> entries;
    std::error_code ec;
    for (fs::recursive_directory_iterator
             it(opts_.root, fs::directory_options::skip_permission_denied, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        const fs::directory_entry &de = *it;
        std::error_code fe;
        if (!de.is_regular_file(fe))
            continue;
        if (de.path().parent_path().filename() == "quarantine") {
            if (quarantined)
                ++*quarantined;
            continue;
        }
        // Only images are entries: in-flight publishes end in
        // ".tmp.<pid>.<n>", and nothing else is the store's to evict.
        if (de.path().extension() != ".mxt2")
            continue;
        const uintmax_t bytes = de.file_size(fe);
        const auto mtime = de.last_write_time(fe);
        if (fe) // evicted or replaced since the directory was read
            continue;
        Entry e;
        e.path = de.path().string();
        e.bytes = static_cast<uint64_t>(bytes);
        e.mtime_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         mtime.time_since_epoch())
                         .count();
        entries.push_back(std::move(e));
    }
    return entries;
}

uint64_t
TraceStore::totalBytes() const
{
    return usage().bytes;
}

StoreUsage
TraceStore::usage() const
{
    StoreUsage u;
    const std::vector<Entry> entries = scan(&u.quarantined);
    u.entries = entries.size();
    for (const Entry &e : entries)
        u.bytes += e.bytes;
    return u;
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
