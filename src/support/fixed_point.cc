#include "fixed_point.hh"

#include <cmath>

namespace mmxdsp {

int16_t
toQ(double v, int frac_bits)
{
    double scaled = v * static_cast<double>(1 << frac_bits);
    double rounded = std::nearbyint(scaled);
    if (rounded > 32767.0)
        return 32767;
    if (rounded < -32768.0)
        return -32768;
    return static_cast<int16_t>(rounded);
}

double
fromQ(int16_t v, int frac_bits)
{
    return static_cast<double>(v) / static_cast<double>(1 << frac_bits);
}

int
chooseFracBits(const std::vector<double> &v)
{
    double max_abs = 0.0;
    for (double x : v)
        max_abs = std::max(max_abs, std::fabs(x));
    int bits = 15;
    while (bits > 0 && max_abs * (1 << bits) > 32767.0)
        --bits;
    return bits;
}

} // namespace mmxdsp
