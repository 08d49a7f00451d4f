/**
 * @file
 * vprofd's wire format and its --serve session loop, kept out of the
 * executable so tests can drive a session through string streams.
 */

#ifndef MMXDSP_SERVICE_SERVE_HH
#define MMXDSP_SERVICE_SERVE_HH

#include <iosfwd>
#include <string>

#include "service/query_engine.hh"

namespace mmxdsp::service {

/** One query result as a JSON object (the --batch and --serve reply). */
std::string resultToJson(const QueryResult &r);

/** Engine and store counters as a JSON object ("stats", --stats). */
std::string statsToJson(QueryEngine &engine);

/**
 * The --serve session: read query lines from @p in and write one JSON
 * reply line per query to @p out, flushed per line. Blank lines and
 * '#' comments are skipped, "stats" replies with statsToJson(), and
 * "quit"/"exit" or the end of @p in ends the session. A line that does
 * not parse — bad syntax, an unknown pair, a geometry no cache or BTB
 * can take — gets an {"ok":false,"error":...} reply and the session
 * goes on.
 */
void serveSession(QueryEngine &engine, std::istream &in, std::ostream &out);

} // namespace mmxdsp::service

#endif // MMXDSP_SERVICE_SERVE_HH
