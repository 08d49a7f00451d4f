/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one timed call into a layer of the program: name, start,
 * end, the span that was open when it began (its parent) and a request
 * id shared by every span of one request. Spans stay in memory while
 * the benchmark runs and are written out once at the end, so recording
 * costs two clock reads and a vector append. A disabled tracer records
 * nothing; the same call sites serve the untraced run.
 */

#ifndef PIPEBENCH_TRACER_HH
#define PIPEBENCH_TRACER_HH

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; ///< seconds on the steady clock
        double end = 0.0;
        int64_t parent = -1; ///< index into spans(), -1 = top level
        uint64_t request = 0;
    };

    /** Per-name aggregate over a range of spans. */
    struct Totals
    {
        uint64_t count = 0;
        double total_s = 0.0;
        double self_s = 0.0;
        std::vector<double> self_samples; ///< one per span, seconds
    };

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /**
     * Open a span (a no-op returning -1 when disabled). A zero
     * @p request inherits the enclosing span's request id.
     */
    int64_t begin(std::string name, uint64_t request = 0);
    void end(int64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Span duration minus the time its direct children cover. */
    std::vector<double> selfTimes() const;

    /** Aggregates by span name over spans()[first..]. */
    std::map<std::string, Totals> totalsByName(size_t first = 0) const;

    /** Write every span (with its self time) as JSON; false on I/O error. */
    bool write(const std::filesystem::path &path,
               const std::string &run_json) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int64_t> open_; ///< stack of open span indices
};

/** Scoped span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, std::string name, uint64_t request = 0)
        : tracer_(tracer), id_(tracer.begin(std::move(name), request))
    {
    }
    ~SpanScope() { tracer_.end(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    int64_t id_;
};

} // namespace pipebench

#endif // PIPEBENCH_TRACER_HH
