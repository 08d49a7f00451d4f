#include "serve.hh"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

namespace mmxdsp::service {

namespace {

/**
 * Length of the well-formed UTF-8 sequence at @p s[i], or 0 when the
 * bytes there are not one (RFC 3629: no overlong forms, surrogates or
 * code points past U+10FFFF).
 */
size_t
utf8Length(const std::string &s, size_t i)
{
    const auto at = [&](size_t k) -> unsigned {
        return k < s.size() ? static_cast<unsigned char>(s[k]) : 0;
    };
    const unsigned c = at(i);
    if (c < 0x80)
        return 1;
    size_t n;
    unsigned lo = 0x80, hi = 0xbf; // range of the second byte
    if (c >= 0xc2 && c <= 0xdf) {
        n = 2;
    } else if (c >= 0xe0 && c <= 0xef) {
        n = 3;
        lo = c == 0xe0 ? 0xa0 : lo;
        hi = c == 0xed ? 0x9f : hi;
    } else if (c >= 0xf0 && c <= 0xf4) {
        n = 4;
        lo = c == 0xf0 ? 0x90 : lo;
        hi = c == 0xf4 ? 0x8f : hi;
    } else {
        return 0;
    }
    for (size_t k = 1; k < n; ++k) {
        const unsigned b = at(i + k);
        if (b < (k == 1 ? lo : 0x80) || b > (k == 1 ? hi : 0xbf))
            return 0;
    }
    return n;
}

/** JSON string escape (keys here are benchmark names, but the error
 *  strings can hold arbitrary file paths and query bytes). Every byte
 *  that is not part of well-formed UTF-8 becomes U+FFFD, so a reply is
 *  valid JSON whatever the input line held. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size();) {
        const char c = s[i];
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
            ++i;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            ++i;
        } else if (const size_t n = utf8Length(s, i)) {
            out.append(s, i, n);
            i += n;
        } else {
            out += "\\ufffd";
            ++i;
        }
    }
    return out;
}

/** The reply to a line that does not parse. */
std::string
errorToJson(const std::string &error)
{
    return "{\"ok\":false,\"error\":\"" + jsonEscape(error) + "\"}";
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
    const StoreUsage usage = engine.store().usage();
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
        << ",\"store\":{\"entries\":" << usage.entries
        << ",\"bytes\":" << usage.bytes
        << ",\"quarantine_entries\":" << usage.quarantined
        << ",\"v2_hits\":" << ss.v2_hits << ",\"misses\":" << ss.misses
        << ",\"stores\":" << ss.stores
        << ",\"quarantined\":" << ss.quarantined
        << ",\"evicted\":" << ss.evicted << "}}";
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
            out << errorToJson(error) << std::endl;
    }
}

size_t
serveBatch(QueryEngine &engine, std::istream &in, std::ostream &out)
{
    std::vector<std::string> replies; ///< one per query line, in order
    std::vector<Query> queries;
    std::vector<size_t> slot; ///< queries[k] answers replies[slot[k]]
    size_t failed = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        Query q;
        std::string error;
        if (QueryEngine::parseQueryLine(line, &q, &error)) {
            queries.push_back(std::move(q));
            slot.push_back(replies.size());
            replies.emplace_back();
        } else {
            replies.push_back(errorToJson(error));
            ++failed;
        }
    }
    const std::vector<QueryResult> results = engine.queryBatch(queries);
    for (size_t k = 0; k < results.size(); ++k) {
        replies[slot[k]] = resultToJson(results[k]);
        failed += !results[k].ok;
    }
    out << "[\n";
    for (size_t i = 0; i < replies.size(); ++i)
        out << "  " << replies[i] << (i + 1 < replies.size() ? ",\n" : "\n");
    out << "]\n";
    return failed;
}

} // namespace mmxdsp::service
