#include "timing_model.hh"

#include <cstring>

#include "sim/p6_timer.hh"
#include "sim/pentium_timer.hh"
#include "support/logging.hh"

namespace mmxdsp::sim {

const char *
modelName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::P5:
        return "p5";
      case ModelKind::P6:
        return "p6";
      case ModelKind::P6P:
        return "p6p";
    }
    return "?";
}

bool
parseModelName(const char *name, ModelKind *out)
{
    if (std::strcmp(name, "p5") == 0) {
        *out = ModelKind::P5;
        return true;
    }
    if (std::strcmp(name, "p6") == 0) {
        *out = ModelKind::P6;
        return true;
    }
    if (std::strcmp(name, "p6p") == 0) {
        *out = ModelKind::P6P;
        return true;
    }
    return false;
}

MachineKey
machineKey(const MachineConfig &machine)
{
    const TimerConfig &t = machine.timer;
    return {static_cast<uint32_t>(machine.model),
            t.l1.size_bytes,
            t.l1.line_bytes,
            t.l1.ways,
            t.l2.size_bytes,
            t.l2.line_bytes,
            t.l2.ways,
            t.penalties.l1_miss,
            t.penalties.l2_hit,
            t.penalties.l2_miss,
            t.btb_entries,
            t.btb_ways,
            mispredictPenalty(machine.model, t)};
}

std::unique_ptr<TimingModel>
makeTimingModel(const MachineConfig &machine)
{
    switch (machine.model) {
      case ModelKind::P5:
        return std::make_unique<PentiumTimer>(machine.timer);
      case ModelKind::P6:
        return std::make_unique<P6Timer>(machine.timer);
      case ModelKind::P6P:
        return std::make_unique<P6PTimer>(machine.timer);
    }
    mmxdsp_panic("unknown ModelKind %d",
                 static_cast<int>(machine.model));
}

} // namespace mmxdsp::sim
