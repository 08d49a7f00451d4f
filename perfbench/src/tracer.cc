#include "tracer.hh"

#include <cstdio>

#include "common.hh"

namespace pipebench {

int64_t
Tracer::begin(std::string name, uint64_t request)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request != 0 || span.parent < 0
                       ? request
                       : spans_[static_cast<size_t>(span.parent)].request;
    span.start = now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int64_t>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int64_t id)
{
    if (id < 0)
        return;
    spans_[static_cast<size_t>(id)].end = now();
    open_.pop_back(); // SpanScope closes spans innermost first
}

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.end - s.start;
    return self;
}

std::map<std::string, Tracer::Totals>
Tracer::totalsByName(size_t first) const
{
    const std::vector<double> self = selfTimes();
    std::map<std::string, Totals> out;
    for (size_t i = first; i < spans_.size(); ++i) {
        Totals &t = out[spans_[i].name];
        ++t.count;
        t.total_s += spans_[i].end - spans_[i].start;
        t.self_s += self[i];
        t.self_samples.push_back(self[i]);
    }
    return out;
}

bool
Tracer::write(const std::filesystem::path &path,
              const std::string &run_json) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::vector<double> self = selfTimes();
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "{\"run\": %s,\n\"spans\": [\n", run_json.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                     "\"end_us\": %.3f, \"self_us\": %.3f, \"parent\": %lld, "
                     "\"request\": %llu}%s\n",
                     i, s.name.c_str(), (s.start - t0) * 1e6,
                     (s.end - t0) * 1e6, self[i] * 1e6,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace pipebench
