/**
 * @file
 * vprofd — the trace-corpus daemon / CLI front end of the query
 * engine.
 *
 * Modes (exactly one):
 *
 *   --batch=FILE     answer every query line in FILE, write a JSON
 *                    array of results to --out (default stdout)
 *   --serve          persistent pipe mode: read query lines from
 *                    stdin, write one JSON object per line to stdout
 *                    ("stats" prints engine/store counters, "quit"
 *                    exits)
 *   --convert=FILE   convert a v1 ".mxt" trace to format v2 at --out
 *   --stats          print store contents and exit
 *
 * Query line grammar (also used by tests and service_load):
 *
 *   <benchmark> <version> [model=p5|p6|p6p] [l1=BYTES] [l1_ways=N]
 *   [l1_line=N] [l2=BYTES] [l2_ways=N] [l2_line=N] [btb=ENTRIES]
 *   [btb_ways=N] [mp=CYCLES]
 *
 * Store/engine knobs: --store=DIR --shards=N --budget-mb=N --scale=N
 * --threads=N --no-capture.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "service/query_engine.hh"
#include "support/io.hh"
#include "trace/format_v2.hh"

using namespace mmxdsp;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--store=DIR] [--shards=N] [--budget-mb=N] [--scale=N]\n"
        "          [--threads=N] [--no-capture]\n"
        "          --batch=FILE [--out=FILE] | --serve |\n"
        "          --convert=FILE --out=FILE | --stats\n"
        "\n"
        "query line: <benchmark> <version> [model=p5|p6|p6p] [l1=BYTES]\n"
        "            [l1_ways=N] [l1_line=N] [l2=BYTES] [l2_ways=N]\n"
        "            [l2_line=N] [btb=ENTRIES] [btb_ways=N] [mp=CYCLES]\n",
        argv0);
}

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

std::string
resultToJson(const service::QueryResult &r)
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
statsToJson(const service::QueryEngine &engine, service::TraceStore &store)
{
    const service::EngineStats es = engine.stats();
    const service::StoreStats ss = store.stats();
    const std::vector<service::ShardUsage> shards = store.shardUsage();
    uint64_t entries = 0, bytes = 0, parked = 0;
    for (const service::ShardUsage &u : shards) {
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
        << ",\"v2_hits\":" << ss.v2_hits << ",\"v1_hits\":" << ss.v1_hits
        << ",\"misses\":" << ss.misses << ",\"stores\":" << ss.stores
        << ",\"upgraded\":" << ss.upgraded
        << ",\"quarantined\":" << ss.quarantined
        << ",\"evicted\":" << ss.evicted << ",\"shards\":[";
    for (size_t i = 0; i < shards.size(); ++i) {
        const service::ShardUsage &u = shards[i];
        out << (i ? "," : "") << "{\"shard\":" << u.shard
            << ",\"entries\":" << u.entries << ",\"bytes\":" << u.bytes
            << ",\"quarantine_entries\":" << u.quarantined << "}";
    }
    out << "]}}";
    return out.str();
}

bool
flagValue(const char *arg, const char *name, const char **value)
{
    const size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        *value = arg + n + 1;
        return true;
    }
    return false;
}

int
runConvert(const std::string &in_path, const std::string &out_path)
{
    std::vector<uint8_t> in;
    if (!readFile(in_path, in)) {
        std::fprintf(stderr, "vprofd: cannot read %s\n", in_path.c_str());
        return 1;
    }
    if (trace::isV2Image(in.data(), in.size())) {
        std::fprintf(stderr, "vprofd: %s is already format v2\n",
                     in_path.c_str());
        return 1;
    }
    std::vector<uint8_t> v2;
    if (!trace::convertV1ImageToV2(in, v2)) {
        std::fprintf(stderr, "vprofd: %s is not a valid v1 trace\n",
                     in_path.c_str());
        return 1;
    }
    if (!writeFileAtomic(out_path, v2)) {
        std::fprintf(stderr, "vprofd: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("%s: %zu bytes v1 -> %zu bytes v2 (%s)\n",
                out_path.c_str(), in.size(), v2.size(),
                in.size() ? "ok" : "empty");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    service::EngineOptions opts;
    std::string batch_path, convert_path, out_path;
    bool serve = false, show_stats = false;
    int scale = 1;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (flagValue(arg, "--store", &value))
            opts.store.root = value;
        else if (flagValue(arg, "--shards", &value))
            opts.store.shards = static_cast<uint32_t>(std::atoi(value));
        else if (flagValue(arg, "--budget-mb", &value))
            opts.store.budget_bytes =
                static_cast<uint64_t>(std::atoll(value)) << 20;
        else if (flagValue(arg, "--scale", &value))
            scale = std::atoi(value);
        else if (flagValue(arg, "--threads", &value))
            opts.threads = std::atoi(value);
        else if (std::strcmp(arg, "--no-capture") == 0)
            opts.allow_capture = false;
        else if (flagValue(arg, "--batch", &value))
            batch_path = value;
        else if (flagValue(arg, "--convert", &value))
            convert_path = value;
        else if (flagValue(arg, "--out", &value))
            out_path = value;
        else if (std::strcmp(arg, "--serve") == 0)
            serve = true;
        else if (std::strcmp(arg, "--stats") == 0)
            show_stats = true;
        else {
            usage(argv[0]);
            return 2;
        }
    }
    if (scale > 1)
        opts.suite.scaleDown(scale);

    const int modes = (!batch_path.empty()) + (!convert_path.empty())
                      + serve + show_stats;
    if (modes != 1) {
        usage(argv[0]);
        return 2;
    }

    if (!convert_path.empty()) {
        if (out_path.empty()) {
            usage(argv[0]);
            return 2;
        }
        return runConvert(convert_path, out_path);
    }

    service::QueryEngine engine(opts);

    if (show_stats) {
        std::printf("%s\n", statsToJson(engine, engine.store()).c_str());
        return 0;
    }

    if (!batch_path.empty()) {
        std::ifstream in(batch_path);
        if (!in) {
            std::fprintf(stderr, "vprofd: cannot read %s\n",
                         batch_path.c_str());
            return 1;
        }
        std::vector<service::Query> queries;
        std::vector<service::QueryResult> bad; // failed-parse lines
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            service::Query q;
            std::string error;
            if (service::QueryEngine::parseQueryLine(line, &q, &error)) {
                queries.push_back(std::move(q));
            } else {
                service::QueryResult r;
                r.error = error;
                bad.push_back(std::move(r));
            }
        }
        std::vector<service::QueryResult> results =
            engine.queryBatch(queries);
        for (auto &r : bad)
            results.push_back(std::move(r));

        std::ostringstream json;
        json << "[\n";
        for (size_t i = 0; i < results.size(); ++i)
            json << "  " << resultToJson(results[i])
                 << (i + 1 < results.size() ? ",\n" : "\n");
        json << "]\n";
        if (out_path.empty()) {
            std::fputs(json.str().c_str(), stdout);
        } else {
            std::ofstream out(out_path);
            if (!out) {
                std::fprintf(stderr, "vprofd: cannot write %s\n",
                             out_path.c_str());
                return 1;
            }
            out << json.str();
        }
        const size_t failed =
            static_cast<size_t>(std::count_if(results.begin(),
                                              results.end(),
                                              [](const auto &r) {
                                                  return !r.ok;
                                              }));
        return failed ? 1 : 0;
    }

    // --serve: line-oriented pipe mode.
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line == "quit" || line == "exit")
            break;
        if (line == "stats") {
            std::printf("%s\n",
                        statsToJson(engine, engine.store()).c_str());
            std::fflush(stdout);
            continue;
        }
        service::Query q;
        std::string error;
        if (!service::QueryEngine::parseQueryLine(line, &q, &error)) {
            std::printf("{\"ok\":false,\"error\":\"%s\"}\n",
                        jsonEscape(error).c_str());
            std::fflush(stdout);
            continue;
        }
        std::printf("%s\n", resultToJson(engine.query(q)).c_str());
        std::fflush(stdout);
    }
    return 0;
}
