#include "query_engine.hh"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "mem/btb.hh"
#include "support/logging.hh"
#include "trace/format.hh"

namespace mmxdsp::service {

uint64_t
machineHash(const sim::MachineConfig &machine)
{
    using trace::fnv1aMix;
    const sim::TimerConfig &t = machine.timer;
    uint64_t h = 0x9e3779b97f4a7c15ull;
    h = fnv1aMix(h, static_cast<uint64_t>(machine.model));
    h = fnv1aMix(h, t.l1.size_bytes);
    h = fnv1aMix(h, t.l1.line_bytes);
    h = fnv1aMix(h, t.l1.ways);
    h = fnv1aMix(h, t.l2.size_bytes);
    h = fnv1aMix(h, t.l2.line_bytes);
    h = fnv1aMix(h, t.l2.ways);
    h = fnv1aMix(h, t.penalties.l1_miss);
    h = fnv1aMix(h, t.penalties.l2_hit);
    h = fnv1aMix(h, t.penalties.l2_miss);
    h = fnv1aMix(h, t.btb_entries);
    h = fnv1aMix(h, t.btb_ways);
    h = fnv1aMix(h, t.mispredict_penalty);
    h = fnv1aMix(h, t.p6.decode_width);
    h = fnv1aMix(h, t.p6.complex_uops);
    h = fnv1aMix(h, t.p6.issue_width);
    h = fnv1aMix(h, t.p6.retire_width);
    h = fnv1aMix(h, t.p6.mispredict_penalty);
    h = fnv1aMix(h, t.p6p.decode_width);
    h = fnv1aMix(h, t.p6p.complex_uops);
    h = fnv1aMix(h, t.p6p.issue_width);
    h = fnv1aMix(h, t.p6p.retire_width);
    h = fnv1aMix(h, t.p6p.window);
    h = fnv1aMix(h, t.p6p.mispredict_penalty);
    return h;
}

namespace {

std::string
resultKey(const std::string &benchmark, const std::string &version,
          uint64_t config_hash, const sim::MachineConfig &machine)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), ":%016llx:%016llx",
                  static_cast<unsigned long long>(config_hash),
                  static_cast<unsigned long long>(machineHash(machine)));
    return benchmark + "." + version + buf;
}

bool
knownPair(const std::string &benchmark, const std::string &version)
{
    for (const auto &[b, v] : harness::BenchmarkSuite::allRuns())
        if (b == benchmark && v == version)
            return true;
    return false;
}

/** Why @p machine's cache or BTB geometry cannot be built; empty when
 *  it can (the rule lives in mem::CacheConfig::valid / Btb::valid). */
std::string
geometryError(const sim::MachineConfig &machine)
{
    const sim::TimerConfig &t = machine.timer;
    for (const mem::CacheConfig *c : {&t.l1, &t.l2})
        if (!c->valid())
            return std::string("invalid ") + (c == &t.l1 ? "L1" : "L2")
                   + " geometry " + c->describe()
                   + " (size and line must be powers of two, size / "
                     "(line * ways) a power of two, at most "
                   + std::to_string(mem::CacheConfig::kMaxLines)
                   + " lines and "
                   + std::to_string(mem::CacheConfig::kMaxWays) + " ways)";
    if (!mem::Btb::valid(t.btb_entries, t.btb_ways))
        return "invalid BTB geometry " + std::to_string(t.btb_entries)
               + " entries / " + std::to_string(t.btb_ways)
               + " ways (want a power-of-two set count, at most "
               + std::to_string(mem::Btb::kMaxEntries) + " entries and "
               + std::to_string(mem::Btb::kMaxWays) + " ways)";
    return {};
}

} // namespace

QueryEngine::QueryEngine(EngineOptions opts)
    : opts_(std::move(opts)), store_(opts_.store)
{
}

QueryEngine::~QueryEngine() = default;

std::string
QueryEngine::traceKey(const std::string &benchmark,
                      const std::string &version) const
{
    return benchmark + "." + version;
}

const profile::ProfileResult *
QueryEngine::lookupResult(const std::string &key)
{
    auto it = results_.find(key);
    if (it == results_.end())
        return nullptr;
    resultLru_.splice(resultLru_.begin(), resultLru_, it->second.lru);
    return &it->second.profile;
}

void
QueryEngine::insertResult(const std::string &key,
                          const profile::ProfileResult &profile)
{
    if (!opts_.result_cache_entries)
        return;
    auto it = results_.find(key);
    if (it != results_.end()) {
        it->second.profile = profile;
        resultLru_.splice(resultLru_.begin(), resultLru_, it->second.lru);
        return;
    }
    resultLru_.push_front(key);
    results_.emplace(key, ResultEntry{profile, resultLru_.begin()});
    while (results_.size() > opts_.result_cache_entries) {
        results_.erase(resultLru_.back());
        resultLru_.pop_back();
    }
}

void
QueryEngine::insertTrace(const std::string &key,
                         std::shared_ptr<const trace::MaterializedTrace> t)
{
    if (!opts_.trace_cache_bytes)
        return;
    const size_t bytes = t->byteSize();
    auto it = traces_.find(key);
    if (it != traces_.end()) {
        traceLru_.splice(traceLru_.begin(), traceLru_, it->second.lru);
        return;
    }
    traceLru_.push_front(key);
    TraceEntry &entry = traces_[key];
    entry.trace = std::move(t);
    entry.lru = traceLru_.begin();
    traceBytes_ += bytes;
    chargeMemos(entry);
}

void
QueryEngine::chargeMemos(TraceEntry &entry)
{
    const size_t bytes = entry.memos.byteSize();
    traceBytes_ = traceBytes_ - entry.memoBytes + bytes;
    stats_.memo_bytes = stats_.memo_bytes - entry.memoBytes + bytes;
    entry.memoBytes = bytes;
    // Over budget, this trace's own memos go before any other trace:
    // a memo costs one pass over a resident trace to record again, an
    // evicted trace a store reload.
    if (traceBytes_ > opts_.trace_cache_bytes && entry.memoBytes) {
        traceBytes_ -= entry.memoBytes;
        stats_.memo_bytes -= entry.memoBytes;
        entry.memos.clear();
        entry.memoBytes = 0;
    }
    while (traceBytes_ > opts_.trace_cache_bytes && traces_.size() > 1) {
        auto victim = traces_.find(traceLru_.back());
        traceBytes_ -= victim->second.trace->byteSize()
                       + victim->second.memoBytes;
        stats_.memo_bytes -= victim->second.memoBytes;
        traces_.erase(victim);
        traceLru_.pop_back();
    }
}

std::shared_ptr<const trace::MaterializedTrace>
QueryEngine::traceFor(const std::string &benchmark,
                      const std::string &version, bool *captured,
                      std::string *error)
{
    *captured = false;
    const std::string key = traceKey(benchmark, version);
    auto it = traces_.find(key);
    if (it != traces_.end()) {
        ++stats_.trace_mem_hits;
        traceLru_.splice(traceLru_.begin(), traceLru_, it->second.lru);
        return it->second.trace;
    }

    const uint64_t config_hash = opts_.suite.hash();
    if (auto mat = store_.load(benchmark, version, config_hash)) {
        ++stats_.store_loads;
        insertTrace(key, mat);
        return mat;
    }

    if (!opts_.allow_capture) {
        *error = "trace not in store and capture is disabled";
        return nullptr;
    }

    // Capture live through the bench harness (with its tracing off, so
    // the engine's store is the one persistence layer here), then
    // publish so every later process takes the mmap path.
    if (!suite_)
        suite_ = std::make_unique<harness::BenchmarkSuite>(
            opts_.suite, harness::TraceOptions{false, ""});
    auto mat = suite_->materializedFor(benchmark, version);
    if (!mat || !mat->valid()) {
        *error = "live capture failed";
        return nullptr;
    }
    ++stats_.captures;
    *captured = true;
    store_.store(benchmark, version, config_hash, *mat);
    insertTrace(key, mat);
    return mat;
}

QueryResult
QueryEngine::query(const Query &q)
{
    return queryBatch({q}).front();
}

std::vector<QueryResult>
QueryEngine::queryBatch(const std::vector<Query> &queries)
{
    std::lock_guard<std::mutex> lock(mu_);

    std::vector<QueryResult> out(queries.size());
    const uint64_t config_hash = opts_.suite.hash();

    // Per-trace groups of result-cache misses: query index + the
    // machine it wants, answered below by one sweep per group.
    struct Group
    {
        std::vector<size_t> indices;
        std::vector<sim::MachineConfig> machines;
    };
    std::map<std::string, Group> groups;

    for (size_t i = 0; i < queries.size(); ++i) {
        const Query &q = queries[i];
        out[i].query = q;
        ++stats_.queries;
        if (!knownPair(q.benchmark, q.version))
            out[i].error =
                "unknown benchmark pair " + q.benchmark + "." + q.version;
        else
            out[i].error = geometryError(q.machine);
        if (!out[i].error.empty()) {
            ++stats_.failures;
            continue;
        }
        const std::string rkey =
            resultKey(q.benchmark, q.version, config_hash, q.machine);
        if (const profile::ProfileResult *hit = lookupResult(rkey)) {
            out[i].ok = true;
            out[i].from_result_cache = true;
            out[i].profile = *hit;
            ++stats_.result_hits;
            continue;
        }
        Group &g = groups[traceKey(q.benchmark, q.version)];
        g.indices.push_back(i);
        g.machines.push_back(q.machine);
    }

    for (auto &[key, group] : groups) {
        const Query &first = queries[group.indices.front()];
        bool captured = false;
        std::string error;
        auto mat = traceFor(first.benchmark, first.version, &captured,
                            &error);
        if (!mat) {
            for (size_t idx : group.indices) {
                out[idx].error = error;
                ++stats_.failures;
            }
            continue;
        }
        // One sweep for the whole group over the trace's memos:
        // replaySweep dedups identical machines, records each missing
        // geometry once and replays it for every machine using it.
        auto entry = traces_.find(key);
        trace::MaterializedTrace::Memos *memos =
            entry != traces_.end() ? &entry->second.memos : nullptr;
        const uint64_t memoHits = memos ? memos->hits() : 0;
        std::vector<profile::ProfileResult> profiles =
            mat->replaySweep(group.machines, opts_.threads, memos);
        stats_.replays += group.machines.size();
        if (memos) {
            stats_.memo_hits += memos->hits() - memoHits;
            chargeMemos(entry->second);
        }
        for (size_t j = 0; j < group.indices.size(); ++j) {
            const size_t idx = group.indices[j];
            out[idx].ok = true;
            out[idx].trace_captured = captured && j == 0;
            out[idx].profile = profiles[j];
            insertResult(resultKey(queries[idx].benchmark,
                                   queries[idx].version, config_hash,
                                   queries[idx].machine),
                         profiles[j]);
        }
    }
    return out;
}

bool
QueryEngine::parseQueryLine(const std::string &line, Query *out,
                            std::string *error)
{
    std::istringstream in(line);
    std::string benchmark, version;
    if (!(in >> benchmark >> version)) {
        *error = "expected: <benchmark> <version> [key=value ...]";
        return false;
    }
    if (!knownPair(benchmark, version)) {
        *error = "unknown benchmark pair " + benchmark + "." + version;
        return false;
    }
    Query q;
    q.benchmark = benchmark;
    q.version = version;

    std::string tok;
    while (in >> tok) {
        const size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size()) {
            *error = "malformed parameter '" + tok + "' (want key=value)";
            return false;
        }
        const std::string key = tok.substr(0, eq);
        const std::string value = tok.substr(eq + 1);
        if (key == "model") {
            sim::ModelKind kind;
            if (!sim::parseModelName(value.c_str(), &kind)) {
                *error = "unknown model '" + value + "' (want p5|p6|p6p)";
                return false;
            }
            q.machine.model = kind;
            continue;
        }
        char *end = nullptr;
        errno = 0;
        const unsigned long long n = std::strtoull(value.c_str(), &end, 0);
        if (end == value.c_str() || *end != '\0' || value[0] == '-') {
            *error = "parameter '" + key + "' wants a number, got '"
                     + value + "'";
            return false;
        }
        if (errno == ERANGE || n > UINT32_MAX) {
            *error = "parameter '" + key + "' is out of range: " + value;
            return false;
        }
        const uint32_t v = static_cast<uint32_t>(n);
        sim::TimerConfig &t = q.machine.timer;
        if (key == "l1")
            t.l1.size_bytes = v;
        else if (key == "l1_ways")
            t.l1.ways = v;
        else if (key == "l1_line")
            t.l1.line_bytes = v;
        else if (key == "l2")
            t.l2.size_bytes = v;
        else if (key == "l2_ways")
            t.l2.ways = v;
        else if (key == "l2_line")
            t.l2.line_bytes = v;
        else if (key == "btb")
            t.btb_entries = v;
        else if (key == "btb_ways")
            t.btb_ways = v;
        else if (key == "mp") {
            t.mispredict_penalty = v;
            t.p6.mispredict_penalty = v;
            t.p6p.mispredict_penalty = v;
        } else {
            *error = "unknown parameter '" + key + "'";
            return false;
        }
        if (v == 0) {
            *error = "parameter '" + key + "' must be positive";
            return false;
        }
    }
    if (std::string why = geometryError(q.machine); !why.empty()) {
        *error = std::move(why);
        return false;
    }
    *out = std::move(q);
    return true;
}

EngineStats
QueryEngine::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace mmxdsp::service
