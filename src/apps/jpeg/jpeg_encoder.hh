/**
 * @file
 * The jpeg application benchmark: a baseline sequential JPEG encoder
 * (4:4:4, standard Huffman tables) producing real JFIF bytes, in two
 * instrumented versions:
 *
 *  - runC:   IJG-style compiled C — table-driven color conversion, the
 *            integer "islow" fast DCT (12 multiplies per 1-D pass),
 *            division-based quantization, shared Huffman entropy coder.
 *  - runMmx: the paper's library-composed MMX version — MMX color
 *            conversion over interleaved RGB (with scalar gathers), the
 *            2-D DCT assembled from *16 calls* to the library's 1-D DCT
 *            with scalar transposition glue, reciprocal-multiply MMX
 *            quantization, and the same Huffman coder.
 *
 * The paper found the C version 1.92x faster overall even though the
 * MMX core kernels alone sped up ~1.6x; the mechanisms (call overhead,
 * emms per library call, data reformatting, non-sequential pixel
 * access) are all present here.
 */

#ifndef MMXDSP_APPS_JPEG_JPEG_ENCODER_HH
#define MMXDSP_APPS_JPEG_JPEG_ENCODER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "apps/jpeg/huffman.hh"
#include "apps/jpeg/jpeg_tables.hh"
#include "runtime/cpu.hh"
#include "workloads/image_data.hh"

namespace mmxdsp::apps::jpeg {

using runtime::Cpu;
using runtime::R32;

class JpegBenchmark
{
  public:
    /** Width and height are rounded down to multiples of 8. */
    void setup(const workloads::Image &image, int quality);

    void runC(Cpu &cpu);
    void runMmx(Cpu &cpu);

    const std::vector<uint8_t> &jpegC() const { return jpegC_; }
    const std::vector<uint8_t> &jpegMmx() const { return jpegMmx_; }
    int width() const { return width_; }
    int height() const { return height_; }

  private:
    // ---- shared pipeline pieces ----
    void writeHeaders(std::vector<uint8_t> &out) const;
    void encodeBlockHuff(Cpu &cpu, BitWriter &writer,
                         const int16_t coefs[64], int &last_dc,
                         const HuffTable &dc, const HuffTable &ac);

    // ---- C pipeline ----
    void colorConvertC(Cpu &cpu);
    void fdctQuantBlockC(Cpu &cpu, const uint8_t *plane, int bx, int by,
                         const uint16_t *qtab, int16_t coefs[64]);

    // ---- MMX pipeline ----
    void colorConvertMmx(Cpu &cpu);
    void dctBlockMmx(Cpu &cpu, const uint8_t *plane, int bx, int by,
                     int16_t coefs[64]);
    void quantBlockMmx(Cpu &cpu, const int16_t dct[64],
                       const int16_t *recip, const int16_t *half,
                       const int16_t *qw, int16_t coefs[64]);

    int width_ = 0;
    int height_ = 0;
    workloads::Image image_;
    std::array<uint16_t, 64> qLuma_{};
    std::array<uint16_t, 64> qChroma_{};
    /** Q15 reciprocals of the quant tables for the MMX path. */
    alignas(8) std::array<int16_t, 64> recipLuma_{};
    alignas(8) std::array<int16_t, 64> recipChroma_{};
    /** Half-step tables (q/2) for round-to-nearest MMX quantization. */
    alignas(8) std::array<int16_t, 64> halfLuma_{};
    alignas(8) std::array<int16_t, 64> halfChroma_{};
    /** 16-bit copies of the quant tables for the MMX correction step. */
    alignas(8) std::array<int16_t, 64> qwLuma_{};
    alignas(8) std::array<int16_t, 64> qwChroma_{};

    HuffTable dcLuma_, dcChroma_, acLuma_, acChroma_;

    /** IJG-style Q16 color tables (r/g/b contribution per component). */
    std::array<int32_t, 256> tabYr_{}, tabYg_{}, tabYb_{};
    std::array<int32_t, 256> tabCbR_{}, tabCbG_{}, tabCbB_{};
    std::array<int32_t, 256> tabCrR_{}, tabCrG_{}, tabCrB_{};

    /** Planar YCbCr working storage, IJG-style unsigned samples. */
    std::vector<uint8_t> planeY_, planeCb_, planeCr_;

    std::vector<uint8_t> jpegC_;
    std::vector<uint8_t> jpegMmx_;
};

} // namespace mmxdsp::apps::jpeg

#endif // MMXDSP_APPS_JPEG_JPEG_ENCODER_HH
