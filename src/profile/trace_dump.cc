#include "trace_dump.hh"

#include <cstdio>

namespace mmxdsp::profile {

using isa::InstrEvent;
using isa::MemMode;
using isa::RegClass;
using isa::RegTag;

namespace {

/** Render a register tag as eax-style / st(i) / mm(i) shorthand. */
std::string
regName(RegTag tag)
{
    if (!isa::tagValid(tag))
        return "";
    static const char *kInt[] = {"eax", "ebx", "ecx", "edx", "esi", "edi",
                                 "r6?", "r7?"};
    uint8_t cls = tag >> 5;
    uint8_t idx = tag & 0x1f;
    char buf[16];
    switch (static_cast<RegClass>(cls)) {
      case RegClass::Int:
        return idx < 6 ? kInt[idx] : "r?";
      case RegClass::Fp:
        std::snprintf(buf, sizeof(buf), "st%u", idx);
        return buf;
      case RegClass::Mmx:
        std::snprintf(buf, sizeof(buf), "mm%u", idx);
        return buf;
    }
    return "?";
}

} // namespace

TraceDump::TraceDump(size_t max_lines)
    : maxLines_(max_lines)
{
}

std::string
TraceDump::format(const InstrEvent &event, int depth)
{
    std::string line(static_cast<size_t>(depth) * 2, ' ');
    char head[32];
    std::snprintf(head, sizeof(head), "%-10s", isa::opName(event.op));
    line += head;

    bool first = true;
    auto add = [&](const std::string &operand) {
        if (operand.empty())
            return;
        line += first ? " " : ", ";
        line += operand;
        first = false;
    };
    add(regName(event.dst));
    if (event.src0 != event.dst)
        add(regName(event.src0));
    add(regName(event.src1));

    if (event.mem != MemMode::None) {
        char membuf[48];
        std::snprintf(membuf, sizeof(membuf), "%s[0x%llx] ; %uB %s",
                      first ? " " : ", ",
                      static_cast<unsigned long long>(event.addr),
                      event.size,
                      event.mem == MemMode::Load ? "load" : "store");
        line += membuf;
    }
    if (isa::isControl(event.op))
        line += event.taken ? "  ; taken" : "  ; not taken";
    return line;
}

void
TraceDump::onInstrBatch(std::span<const InstrEvent> events)
{
    for (const InstrEvent &event : events) {
        ++total_;
        if (lines_.size() < maxLines_)
            lines_.push_back(format(event, depth_));
    }
}

void
TraceDump::onEnterFunction(const char *name)
{
    if (lines_.size() < maxLines_) {
        std::string line(static_cast<size_t>(depth_) * 2, ' ');
        line += "; --> ";
        line += name;
        lines_.push_back(std::move(line));
    }
    ++depth_;
}

void
TraceDump::onLeaveFunction()
{
    if (depth_ > 0)
        --depth_;
}

void
TraceDump::clear()
{
    lines_.clear();
    total_ = 0;
    depth_ = 0;
}

void
TraceDump::print() const
{
    for (const auto &line : lines_)
        std::fputs((line + "\n").c_str(), stdout);
    if (total_ > lines_.size()) {
        std::printf("... %llu further events not retained\n",
                    static_cast<unsigned long long>(total_
                                                    - lines_.size()));
    }
}

} // namespace mmxdsp::profile
