#include "g722_app.hh"

#include <cmath>

#include "workloads/signal_data.hh"

namespace mmxdsp::apps::g722 {

using runtime::CallGuard;

void
G722Benchmark::setup(int samples, uint64_t seed)
{
    samples &= ~1;
    speech_ = workloads::makeSpeech(samples, seed);
    decodedC_.clear();
    decodedMmx_.clear();
}

namespace {

void
runCodec(Cpu &cpu, G722Codec::Mode mode, const std::vector<int16_t> &input,
         std::vector<int16_t> &decoded)
{
    G722Codec codec(mode);
    decoded.assign(input.size(), 0);
    const char *enc_name = mode == G722Codec::Mode::Mmx
                               ? "g722_encode_mmx"
                               : "g722_encode_c";
    const char *dec_name = mode == G722Codec::Mode::Mmx
                               ? "g722_decode_mmx"
                               : "g722_decode_c";
    for (size_t n = 0; n + 1 < input.size(); n += 2) {
        uint8_t byte;
        {
            CallGuard call(cpu, enc_name, 3, 2);
            byte = codec.encodePair(cpu, &input[n]);
        }
        {
            CallGuard call(cpu, dec_name, 3, 2);
            codec.decodePair(cpu, byte, &decoded[n]);
        }
    }
}

} // namespace

void
G722Benchmark::runC(Cpu &cpu)
{
    runCodec(cpu, G722Codec::Mode::ScalarC, speech_, decodedC_);
}

void
G722Benchmark::runMmx(Cpu &cpu)
{
    runCodec(cpu, G722Codec::Mode::Mmx, speech_, decodedMmx_);
}

double
G722Benchmark::snrOf(const std::vector<int16_t> &decoded) const
{
    const int delay = G722Codec::kDelay;
    double sig = 0.0;
    double err = 0.0;
    for (size_t n = 0; n + static_cast<size_t>(delay) < decoded.size();
         ++n) {
        double s = speech_[n];
        double d = decoded[n + static_cast<size_t>(delay)];
        sig += s * s;
        double e = s - d;
        err += e * e;
    }
    if (err <= 0.0)
        return 99.0;
    return 10.0 * std::log10(sig / err);
}

double
G722Benchmark::snrC() const
{
    return snrOf(decodedC_);
}

double
G722Benchmark::snrMmx() const
{
    return snrOf(decodedMmx_);
}

} // namespace mmxdsp::apps::g722
