#include "query_engine.hh"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <sstream>

#include "mem/btb.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "trace/format.hh"

namespace mmxdsp::service {

uint64_t
machineHash(const sim::MachineConfig &machine)
{
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (uint32_t v : sim::machineKey(machine))
        h = trace::fnv1aMix(h, v);
    return h;
}

namespace {

/** Completed-profile cache capacity (entries). */
constexpr size_t kResultCacheEntries = 4096;

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

std::string
traceKey(const std::string &benchmark, const std::string &version)
{
    return benchmark + "." + version;
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

/** The misses of one batch on one trace, answered by one replay. */
struct QueryEngine::Group
{
    std::string benchmark;
    std::string version;
    std::vector<size_t> indices{}; ///< the queries it answers
    std::vector<sim::MachineConfig> machines{};
    std::shared_ptr<const trace::MaterializedTrace> mat{};
    TraceEntry *entry = nullptr; ///< its resident entry, held busy
    bool loaded = false;         ///< from the store in this batch
    bool captured = false;       ///< captured in this batch
    std::vector<profile::ProfileResult> profiles{};
    uint64_t memoHits = 0;       ///< replays the memos served
};

QueryEngine::QueryEngine(EngineOptions opts)
    : opts_(std::move(opts)), store_(opts_.store)
{
}

QueryEngine::~QueryEngine() = default;

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
    auto it = results_.find(key);
    if (it != results_.end()) {
        it->second.profile = profile;
        resultLru_.splice(resultLru_.begin(), resultLru_, it->second.lru);
        return;
    }
    resultLru_.push_front(key);
    results_.emplace(key, ResultEntry{profile, resultLru_.begin()});
    while (results_.size() > kResultCacheEntries) {
        results_.erase(resultLru_.back());
        resultLru_.pop_back();
    }
}

void
QueryEngine::hold(Group &g)
{
    auto it = traces_.find(traceKey(g.benchmark, g.version));
    if (it == traces_.end())
        return;
    ++stats_.trace_mem_hits;
    traceLru_.splice(traceLru_.begin(), traceLru_, it->second.lru);
    ++it->second.busy;
    g.entry = &it->second;
    g.mat = it->second.trace;
}

void
QueryEngine::admit(Group &g, bool pinned)
{
    if (!opts_.trace_cache_bytes && !pinned)
        return;
    Evicted evicted;
    std::lock_guard<std::mutex> lock(cacheMu_); // unlocks before evicted
    traceLru_.push_front(traceKey(g.benchmark, g.version));
    TraceEntry &entry = traces_[traceLru_.front()];
    entry.trace = g.mat;
    entry.lru = traceLru_.begin();
    entry.busy = 1;
    entry.pinned = pinned;
    traceBytes_ += g.mat->byteSize();
    g.entry = &entry;
    evictIdle(evicted);
}

void
QueryEngine::evictIdle(Evicted &evicted)
{
    for (auto it = traceLru_.end();
         traceBytes_ > opts_.trace_cache_bytes && it != traceLru_.begin();) {
        auto victim = traces_.find(*--it);
        if (victim->second.busy || victim->second.pinned)
            continue;
        traceBytes_ -= victim->second.trace->byteSize()
                       + victim->second.memoBytes;
        stats_.memo_bytes -= victim->second.memoBytes;
        evicted.push_back(std::move(victim->second.trace));
        traces_.erase(victim);
        it = traceLru_.erase(it);
    }
}

void
QueryEngine::release(Group &g)
{
    g.mat.reset(); // an evicted trace unmaps once its replay is done
    Evicted evicted;
    std::lock_guard<std::mutex> lock(cacheMu_); // unlocks before evicted
    stats_.replays += g.profiles.size();
    stats_.memo_hits += g.memoHits;
    if (!g.entry)
        return;
    TraceEntry &entry = *g.entry;
    g.entry = nullptr;
    --entry.busy;

    // Charge the memos the replay recorded. Over budget, the trace's
    // own memos go before any other trace: a memo costs one pass over a
    // resident trace to record again, an evicted trace a store reload.
    const size_t bytes = entry.memos.byteSize();
    traceBytes_ = traceBytes_ - entry.memoBytes + bytes;
    stats_.memo_bytes = stats_.memo_bytes - entry.memoBytes + bytes;
    entry.memoBytes = bytes;
    if (traceBytes_ > opts_.trace_cache_bytes && bytes) {
        traceBytes_ -= bytes;
        stats_.memo_bytes -= bytes;
        entry.memos.clear();
        entry.memoBytes = 0;
    }
    evictIdle(evicted);
}

harness::PairRunner &
QueryEngine::runner()
{
    if (!runner_)
        runner_ = std::make_unique<harness::PairRunner>(opts_.suite);
    return *runner_;
}

std::shared_ptr<const trace::MaterializedTrace>
QueryEngine::capture(const std::string &benchmark, const std::string &version,
                     bool *published)
{
    auto mat = runner().capture(benchmark, version);
    const bool stored =
        store_.store(benchmark, version, opts_.suite.hash(), *mat);
    if (published)
        *published = stored;
    ++stats_.captures;
    return mat;
}

std::shared_ptr<const trace::MaterializedTrace>
QueryEngine::trace(const std::string &benchmark, const std::string &version,
                   std::string *error)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!harness::PairRunner::known(benchmark, version)) {
        if (error)
            *error = "unknown benchmark pair " + traceKey(benchmark, version);
        return nullptr;
    }
    Group g{benchmark, version};
    hold(g);
    if (!g.mat
        && (g.mat = store_.load(benchmark, version, opts_.suite.hash()))) {
        ++stats_.store_loads;
        admit(g, false);
    } else if (!g.mat && opts_.allow_capture) {
        bool published = false;
        g.mat = capture(benchmark, version, &published);
        admit(g, !published);
    } else if (!g.mat && error) {
        *error = "trace not in store and capture is disabled";
    }
    auto mat = g.mat;
    release(g);
    return mat;
}

QueryResult
QueryEngine::query(const Query &q)
{
    return queryBatch({q}).front();
}

std::vector<QueryResult>
QueryEngine::queryBatch(const std::vector<Query> &queries, int threads)
{
    std::lock_guard<std::mutex> lock(mu_);

    std::vector<QueryResult> out(queries.size());
    const uint64_t config_hash = opts_.suite.hash();

    // Result-cache misses, grouped by trace in first-query order.
    std::vector<Group> groups;
    std::unordered_map<std::string, size_t> groupOf;
    for (size_t i = 0; i < queries.size(); ++i) {
        const Query &q = queries[i];
        out[i].query = q;
        ++stats_.queries;
        if (!harness::PairRunner::known(q.benchmark, q.version))
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
        const auto [at, fresh] = groupOf.emplace(
            traceKey(q.benchmark, q.version), groups.size());
        if (fresh)
            groups.push_back({q.benchmark, q.version});
        groups[at->second].indices.push_back(i);
        groups[at->second].machines.push_back(q.machine);
    }

    // A batch of one trace gives it every worker; across traces, each
    // worker loads and replays one trace at a time, and a trace asked
    // for one machine runs the fused kernel: recording its memos would
    // cost a second pass.
    const bool spread = groups.size() > 1;
    const auto replay = [&](Group &g) {
        trace::MaterializedTrace::Memos *memos =
            g.entry ? &g.entry->memos : nullptr;
        const uint64_t memoHits = memos ? memos->hits() : 0;
        if (spread && g.machines.size() == 1)
            g.profiles = {g.mat->replayProfile(g.machines.front())};
        else
            g.profiles =
                g.mat->replaySweep(g.machines, spread ? 1 : threads, memos);
        g.memoHits = memos ? memos->hits() - memoHits : 0;
        release(g);
    };
    for (Group &g : groups)
        hold(g);
    parallelFor(groups.size(), spread ? threads : 1, [&](size_t k) {
        Group &g = groups[k];
        if (!g.mat) {
            g.mat = store_.load(g.benchmark, g.version, config_hash);
            if (!g.mat)
                return;
            g.loaded = true;
            admit(g, false);
        }
        replay(g);
    });

    // Captures, one at a time on this thread (the runtime is
    // single-threaded); across traces, each replay runs beside the next
    // capture.
    std::future<void> replaying; // destroyed before groups: waits
    for (Group &g : groups) {
        if (!g.profiles.empty() || !opts_.allow_capture)
            continue;
        bool published = false;
        g.mat = capture(g.benchmark, g.version, &published);
        g.captured = true;
        admit(g, !published);
        if (replaying.valid())
            replaying.get();
        if (spread && resolveThreads(threads) > 1)
            replaying = std::async(std::launch::async, replay, std::ref(g));
        else
            replay(g);
    }
    if (replaying.valid())
        replaying.get();

    for (const Group &g : groups) {
        stats_.store_loads += g.loaded;
        for (size_t j = 0; j < g.indices.size(); ++j) {
            const size_t idx = g.indices[j];
            if (g.profiles.empty()) {
                out[idx].error = "trace not in store and capture is disabled";
                ++stats_.failures;
                continue;
            }
            out[idx].ok = true;
            out[idx].trace_captured = g.captured && j == 0;
            out[idx].profile = g.profiles[j];
            insertResult(resultKey(queries[idx].benchmark,
                                   queries[idx].version, config_hash,
                                   queries[idx].machine),
                         g.profiles[j]);
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
    if (!harness::PairRunner::known(benchmark, version)) {
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
        const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
        // Decimal digits only (strtoull would also take a sign).
        if (value[0] < '0' || value[0] > '9' || *end != '\0') {
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
        else if (key == "mp")
            t.mispredict_penalty = v;
        else {
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
