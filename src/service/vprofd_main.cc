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
#include "service/serve.hh"

using namespace mmxdsp;
using service::resultToJson;
using service::serveSession;
using service::statsToJson;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--store=DIR] [--shards=N] [--budget-mb=N] [--scale=N]\n"
        "          [--threads=N] [--no-capture]\n"
        "          --batch=FILE [--out=FILE] | --serve | --stats\n"
        "\n"
        "query line: <benchmark> <version> [model=p5|p6|p6p] [l1=BYTES]\n"
        "            [l1_ways=N] [l1_line=N] [l2=BYTES] [l2_ways=N]\n"
        "            [l2_line=N] [btb=ENTRIES] [btb_ways=N] [mp=CYCLES]\n",
        argv0);
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

} // namespace

int
main(int argc, char **argv)
{
    service::EngineOptions opts;
    std::string batch_path, out_path;
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

    const int modes = (!batch_path.empty()) + serve + show_stats;
    if (modes != 1) {
        usage(argv[0]);
        return 2;
    }

    service::QueryEngine engine(opts);

    if (show_stats) {
        std::printf("%s\n", statsToJson(engine).c_str());
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

    serveSession(engine, std::cin, std::cout);
    return 0;
}
