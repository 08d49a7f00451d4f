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
