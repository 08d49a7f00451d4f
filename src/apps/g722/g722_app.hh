/**
 * @file
 * The g722 application benchmark: encode and decode a ~6 kB synthetic
 * speech file through the two-band subband ADPCM codec, one sample
 * pair at a time (paper, Table 1). The MMX version routes its small
 * dot products through the NSP library — many calls on tiny vectors,
 * the paper's textbook case of MMX overhead exceeding MMX benefit.
 */

#ifndef MMXDSP_APPS_G722_G722_APP_HH
#define MMXDSP_APPS_G722_G722_APP_HH

#include <cstdint>
#include <vector>

#include "apps/g722/g722_codec.hh"
#include "runtime/cpu.hh"

namespace mmxdsp::apps::g722 {

class G722Benchmark
{
  public:
    /** Synthesize @p samples of 16 kHz speech (rounded to a pair). */
    void setup(int samples, uint64_t seed);

    void runC(Cpu &cpu);
    void runMmx(Cpu &cpu);

    const std::vector<int16_t> &input() const { return speech_; }

    /** Reconstruction SNR (dB) with the codec delay compensated. */
    double snrC() const;
    double snrMmx() const;

  private:
    double snrOf(const std::vector<int16_t> &decoded) const;

    std::vector<int16_t> speech_;
    std::vector<int16_t> decodedC_, decodedMmx_;
};

} // namespace mmxdsp::apps::g722

#endif // MMXDSP_APPS_G722_G722_APP_HH
