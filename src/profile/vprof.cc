#include "vprof.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "runtime/cpu.hh"
#include "sim/uop.hh"
#include "support/table.hh"

namespace mmxdsp::profile {

using isa::InstrEvent;
using isa::MemMode;
using isa::Op;

namespace {

const char *kRootName = "<measured-root>";

} // namespace

double
ProfileResult::pctMemoryReferences() const
{
    return dynamicInstructions
               ? static_cast<double>(memoryReferences)
                     / static_cast<double>(dynamicInstructions)
               : 0.0;
}

double
ProfileResult::pctMmx() const
{
    return dynamicInstructions
               ? static_cast<double>(mmxInstructions)
                     / static_cast<double>(dynamicInstructions)
               : 0.0;
}

double
ProfileResult::pctMmxOfCategory(isa::MmxCategory cat) const
{
    return dynamicInstructions
               ? static_cast<double>(
                     mmxByCategory[static_cast<size_t>(cat)])
                     / static_cast<double>(dynamicInstructions)
               : 0.0;
}

double
ProfileResult::pctCallRetCycles() const
{
    return cycles ? static_cast<double>(callRetCycles)
                        / static_cast<double>(cycles)
                  : 0.0;
}

double
ProfileResult::instructionsPerCycle() const
{
    return cycles ? static_cast<double>(dynamicInstructions)
                        / static_cast<double>(cycles)
                  : 0.0;
}

const char *
rootFunctionName()
{
    return kRootName;
}

VProf::VProf(const sim::TimerConfig &config)
    : VProf(sim::MachineConfig{sim::ModelKind::P5, config})
{
}

VProf::VProf(const sim::MachineConfig &machine)
    : timer_(sim::makeTimingModel(machine))
{
    fnNames_.emplace_back(kRootName);
    fnStats_.emplace_back();
}

void
VProf::onInstrBatch(std::span<const InstrEvent> events)
{
    for (const InstrEvent &event : events) {
        const size_t op_idx = static_cast<size_t>(event.op);
        const sim::UopDesc &desc = sim::uopDesc(event);
        const uint64_t cost = timer_->consume(event);

        ++dynamicInstructions_;
        uops_ += desc.uops;
        memoryReferences_ += event.mem != MemMode::None;

        ++opCounts_[op_idx];
        opCycles_[op_idx] += cost;

        if (const isa::MmxCategory cat = isa::opInfo(event.op).mmx;
            cat != isa::MmxCategory::None)
            ++mmxByCategory_[static_cast<size_t>(cat)];

        SiteStats &site = siteStats_[event.site];
        ++site.instructions;
        site.cycles += cost;

        FunctionStats &fstats = fnStats_[currentFn_];
        ++fstats.instructions;
        fstats.cycles += cost;

        if (desc.flags & sim::kDescCallRet)
            callRetCycles_ += cost;
        if (desc.flags & sim::kDescOverhead)
            callOverheadCycles_ += cost;
    }
}

uint32_t
VProf::internFunction(const char *name)
{
    auto [it, inserted] = fnIds_.try_emplace(name ? name : "",
                                             static_cast<uint32_t>(0));
    if (inserted) {
        it->second = static_cast<uint32_t>(fnNames_.size());
        fnNames_.push_back(it->first);
        fnStats_.emplace_back();
    }
    return it->second;
}

void
VProf::onEnterFunction(const char *name)
{
    const uint32_t id = internFunction(name);
    fnStack_.push_back(id);
    currentFn_ = id;
    ++fnStats_[id].calls;
}

void
VProf::onLeaveFunction()
{
    if (!fnStack_.empty())
        fnStack_.pop_back();
    currentFn_ = fnStack_.empty() ? 0 : fnStack_.back();
}

ProfileResult
VProf::result() const
{
    ProfileResult r;
    r.dynamicInstructions = dynamicInstructions_;
    r.staticInstructions = siteStats_.size();
    r.uops = uops_;
    r.cycles = timer_->cycles();
    r.memoryReferences = memoryReferences_;
    for (size_t c = 1; c < mmxByCategory_.size(); ++c)
        r.mmxInstructions += mmxByCategory_[c];
    r.mmxByCategory = mmxByCategory_;
    r.functionCalls = opCounts_[static_cast<size_t>(Op::Call)];
    r.callRetCycles = callRetCycles_;
    r.callOverheadCycles = callOverheadCycles_;
    r.opCounts = opCounts_;
    for (size_t id = 0; id < fnStats_.size(); ++id) {
        const FunctionStats &st = fnStats_[id];
        if (st.calls || st.instructions)
            r.functions.emplace(fnNames_[id], st);
    }
    r.timer = timer_->stats();
    r.l1 = timer_->memory().l1().stats();
    r.l2 = timer_->memory().l2().stats();
    r.btb = timer_->btb().stats();
    return r;
}

void
VProf::printReport(const runtime::Cpu &cpu, size_t top_sites) const
{
    printReport(
        [&cpu](uint32_t id) {
            const runtime::SiteInfo &info = cpu.siteInfo(id);
            const char *file = info.file;
            if (const char *slash = strrchr(file, '/'))
                file = slash + 1;
            char buf[256];
            std::snprintf(buf, sizeof(buf), "%s:%u", file, info.line);
            return std::string(buf);
        },
        top_sites);
}

void
VProf::printReport(const SiteLabeler &label, size_t top_sites) const
{
    ProfileResult r = result();

    std::printf("=== VProf report ===\n");
    std::printf("cycles               %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("dynamic instructions %llu  (IPC %.2f)\n",
                static_cast<unsigned long long>(r.dynamicInstructions),
                r.instructionsPerCycle());
    std::printf("static instructions  %llu\n",
                static_cast<unsigned long long>(r.staticInstructions));
    std::printf("dynamic micro-ops    %llu\n",
                static_cast<unsigned long long>(r.uops));
    std::printf("memory references    %llu  (%.2f%%)\n",
                static_cast<unsigned long long>(r.memoryReferences),
                100.0 * r.pctMemoryReferences());
    std::printf("MMX instructions     %llu  (%.2f%%)\n",
                static_cast<unsigned long long>(r.mmxInstructions),
                100.0 * r.pctMmx());
    std::printf("function calls       %llu  (call/ret %.2f%% of cycles)\n",
                static_cast<unsigned long long>(r.functionCalls),
                100.0 * r.pctCallRetCycles());
    std::printf("L1D miss rate        %.3f%%   L2 miss rate %.3f%%\n",
                100.0 * r.l1.missRate(), 100.0 * r.l2.missRate());
    std::printf("branch mispredicts   %llu of %llu (%.2f%%)\n",
                static_cast<unsigned long long>(r.btb.mispredicts),
                static_cast<unsigned long long>(r.btb.branches),
                100.0 * r.btb.mispredictRate());

    // Instruction mix, most frequent first.
    std::vector<size_t> order;
    for (size_t i = 0; i < isa::kNumOps; ++i) {
        if (opCounts_[i])
            order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return opCounts_[a] > opCounts_[b];
    });
    Table mix({"op", "count", "% dyn", "cycles"});
    for (size_t i : order) {
        mix.addRow({isa::opName(static_cast<Op>(i)),
                    Table::fmtCount(static_cast<int64_t>(opCounts_[i])),
                    Table::fmtPercent(static_cast<double>(opCounts_[i])
                                      / static_cast<double>(
                                            r.dynamicInstructions)),
                    Table::fmtCount(static_cast<int64_t>(opCycles_[i]))});
    }
    std::printf("\n-- instruction mix --\n");
    mix.print();

    if (!r.functions.empty()) {
        Table fns({"function", "calls", "instructions", "cycles",
                   "% cycles"});
        for (const auto &[name, st] : r.functions) {
            fns.addRow({name, Table::fmtCount(static_cast<int64_t>(st.calls)),
                        Table::fmtCount(
                            static_cast<int64_t>(st.instructions)),
                        Table::fmtCount(static_cast<int64_t>(st.cycles)),
                        Table::fmtPercent(
                            r.cycles ? static_cast<double>(st.cycles)
                                           / static_cast<double>(r.cycles)
                                     : 0.0)});
        }
        std::printf("\n-- function breakdown --\n");
        fns.print();
    }

    // Hottest static sites; ties go to the lower id.
    std::vector<std::pair<uint32_t, SiteStats>> hot(siteStats_.begin(),
                                                    siteStats_.end());
    std::sort(hot.begin(), hot.end(), [](const auto &a, const auto &b) {
        return a.second.cycles != b.second.cycles
                   ? a.second.cycles > b.second.cycles
                   : a.first < b.first;
    });
    if (hot.size() > top_sites)
        hot.resize(top_sites);
    Table sites({"site", "instructions", "cycles"});
    for (const auto &[id, st] : hot) {
        sites.addRow({label(id),
                      Table::fmtCount(static_cast<int64_t>(st.instructions)),
                      Table::fmtCount(static_cast<int64_t>(st.cycles))});
    }
    std::printf("\n-- hottest static sites --\n");
    sites.print();
}

} // namespace mmxdsp::profile
