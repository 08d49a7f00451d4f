/**
 * @file
 * vprofd — the trace-corpus daemon / CLI front end of the query
 * engine.
 *
 * Modes (exactly one):
 *
 *   --batch=FILE     answer every query line in FILE, write a JSON
 *                    array of replies in line order to --out (default
 *                    stdout)
 *   --serve          persistent pipe mode: read query lines from
 *                    stdin, write one JSON object per line to stdout
 *                    ("stats" prints engine/store counters, "quit"
 *                    exits)
 *   --stats          print store contents and exit
 *
 * Query line grammar (also used by tests and perfbench):
 *
 *   <benchmark> <version> [model=p5|p6|p6p] [l1=BYTES] [l1_ways=N]
 *   [l1_line=N] [l2=BYTES] [l2_ways=N] [l2_line=N] [btb=ENTRIES]
 *   [btb_ways=N] [mp=CYCLES]
 *
 * Store/engine knobs: --store=DIR --budget-mb=N --scale=N --threads=N
 * --no-capture, each N a decimal integer in [0, 1<<20] (anything else
 * prints the usage and exits 2). The store keeps one image per captured
 * pair in DIR (see service/trace_store.hh).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness/cli.hh"
#include "service/query_engine.hh"
#include "service/serve.hh"

using namespace mmxdsp;
using service::serveBatch;
using service::serveSession;
using service::statsToJson;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--store=DIR] [--budget-mb=N] [--scale=N] [--threads=N]\n"
        "          [--no-capture]\n"
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
    int scale = 1, budget_mb = 0;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (flagValue(arg, "--store", &value))
            opts.store.root = value;
        else if (harness::parseIntFlag(arg, "--budget-mb", &budget_mb)
                 || harness::parseIntFlag(arg, "--scale", &scale)
                 || harness::parseIntFlag(arg, "--threads", &opts.threads))
            continue;
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
    opts.store.budget_bytes = static_cast<uint64_t>(budget_mb) << 20;
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
        std::ostringstream json;
        const size_t failed = serveBatch(engine, in, json);
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
        return failed ? 1 : 0;
    }

    serveSession(engine, std::cin, std::cout);
    return 0;
}
