#include "serve.hh"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

namespace mmxdsp::service {

namespace {

/** Minimal JSON string escape (keys here are benchmark names, but the
 *  error strings can hold arbitrary file paths). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

std::string
resultToJson(const QueryResult &r)
{
    std::ostringstream out;
    out << "{\"benchmark\":\"" << jsonEscape(r.query.benchmark)
        << "\",\"version\":\"" << jsonEscape(r.query.version)
        << "\",\"model\":\"" << sim::modelName(r.query.machine.model)
        << "\",\"ok\":" << (r.ok ? "true" : "false");
    if (!r.ok) {
        out << ",\"error\":\"" << jsonEscape(r.error) << "\"}";
        return out.str();
    }
    const profile::ProfileResult &p = r.profile;
    out << ",\"cached\":" << (r.from_result_cache ? "true" : "false")
        << ",\"captured\":" << (r.trace_captured ? "true" : "false")
        << ",\"cycles\":" << p.cycles
        << ",\"instructions\":" << p.dynamicInstructions
        << ",\"uops\":" << p.uops
        << ",\"memory_references\":" << p.memoryReferences
        << ",\"mmx_instructions\":" << p.mmxInstructions
        << ",\"function_calls\":" << p.functionCalls
        << ",\"ipc\":" << p.instructionsPerCycle() << "}";
    return out.str();
}

std::string
statsToJson(QueryEngine &engine)
{
    const EngineStats es = engine.stats();
    const StoreStats ss = engine.store().stats();
    const std::vector<ShardUsage> shards = engine.store().shardUsage();
    uint64_t entries = 0, bytes = 0, parked = 0;
    for (const ShardUsage &u : shards) {
        entries += u.entries;
        bytes += u.bytes;
        parked += u.quarantined;
    }
    std::ostringstream out;
    out << "{\"queries\":" << es.queries
        << ",\"result_hits\":" << es.result_hits
        << ",\"trace_mem_hits\":" << es.trace_mem_hits
        << ",\"store_loads\":" << es.store_loads
        << ",\"captures\":" << es.captures
        << ",\"replays\":" << es.replays
        << ",\"memo_hits\":" << es.memo_hits
        << ",\"memo_bytes\":" << es.memo_bytes
        << ",\"failures\":" << es.failures
        << ",\"store\":{\"entries\":" << entries << ",\"bytes\":" << bytes
        << ",\"quarantine_entries\":" << parked
        << ",\"v2_hits\":" << ss.v2_hits << ",\"misses\":" << ss.misses
        << ",\"stores\":" << ss.stores
        << ",\"quarantined\":" << ss.quarantined
        << ",\"evicted\":" << ss.evicted << ",\"shards\":[";
    for (size_t i = 0; i < shards.size(); ++i) {
        const ShardUsage &u = shards[i];
        out << (i ? "," : "") << "{\"shard\":" << u.shard
            << ",\"entries\":" << u.entries << ",\"bytes\":" << u.bytes
            << ",\"quarantine_entries\":" << u.quarantined << "}";
    }
    out << "]}}";
    return out.str();
}

void
serveSession(QueryEngine &engine, std::istream &in, std::ostream &out)
{
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line == "quit" || line == "exit")
            break;
        if (line == "stats") {
            out << statsToJson(engine) << std::endl;
            continue;
        }
        Query q;
        std::string error;
        if (QueryEngine::parseQueryLine(line, &q, &error))
            out << resultToJson(engine.query(q)) << std::endl;
        else
            out << "{\"ok\":false,\"error\":\"" << jsonEscape(error)
                << "\"}" << std::endl;
    }
}

} // namespace mmxdsp::service
