#include "signal_math.hh"

#include <cmath>
#include <numbers>

#include "logging.hh"

namespace mmxdsp {

namespace {

constexpr double kPi = std::numbers::pi;

} // namespace

std::vector<double>
referenceFir(const std::vector<double> &coeffs, const std::vector<double> &x)
{
    std::vector<double> y(x.size(), 0.0);
    for (size_t n = 0; n < x.size(); ++n) {
        double acc = 0.0;
        for (size_t k = 0; k < coeffs.size() && k <= n; ++k)
            acc += coeffs[k] * x[n - k];
        y[n] = acc;
    }
    return y;
}

std::vector<double>
referenceIir(const std::vector<double> &b, const std::vector<double> &a,
             const std::vector<double> &x)
{
    if (a.empty() || a[0] != 1.0)
        mmxdsp_panic("referenceIir expects a[0] == 1");
    std::vector<double> y(x.size(), 0.0);
    for (size_t n = 0; n < x.size(); ++n) {
        double acc = 0.0;
        for (size_t q = 0; q < b.size() && q <= n; ++q)
            acc += b[q] * x[n - q];
        for (size_t p = 1; p < a.size() && p <= n; ++p)
            acc -= a[p] * y[n - p];
        y[n] = acc;
    }
    return y;
}

void
referenceFft(std::vector<std::complex<double>> &data, bool inverse)
{
    const size_t n = data.size();
    if (n == 0 || (n & (n - 1)) != 0)
        mmxdsp_panic("FFT size %zu is not a power of two", n);

    // Bit-reversal permutation.
    for (size_t i = 1, j = 0; i < n; ++i) {
        size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }

    for (size_t len = 2; len <= n; len <<= 1) {
        double angle = 2.0 * kPi / static_cast<double>(len)
                       * (inverse ? 1.0 : -1.0);
        std::complex<double> wlen(std::cos(angle), std::sin(angle));
        for (size_t i = 0; i < n; i += len) {
            std::complex<double> w(1.0, 0.0);
            for (size_t k = 0; k < len / 2; ++k) {
                std::complex<double> u = data[i + k];
                std::complex<double> v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }

    if (inverse) {
        for (auto &v : data)
            v /= static_cast<double>(n);
    }
}

void
referenceDct8x8(const double in[64], double out[64])
{
    for (int u = 0; u < 8; ++u) {
        for (int v = 0; v < 8; ++v) {
            double acc = 0.0;
            for (int y = 0; y < 8; ++y) {
                for (int x = 0; x < 8; ++x) {
                    acc += in[y * 8 + x]
                           * std::cos((2 * x + 1) * v * kPi / 16.0)
                           * std::cos((2 * y + 1) * u * kPi / 16.0);
                }
            }
            double cu = (u == 0) ? std::sqrt(0.5) : 1.0;
            double cv = (v == 0) ? std::sqrt(0.5) : 1.0;
            out[u * 8 + v] = 0.25 * cu * cv * acc;
        }
    }
}

void
referenceIdct8x8(const double in[64], double out[64])
{
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            double acc = 0.0;
            for (int u = 0; u < 8; ++u) {
                for (int v = 0; v < 8; ++v) {
                    double cu = (u == 0) ? std::sqrt(0.5) : 1.0;
                    double cv = (v == 0) ? std::sqrt(0.5) : 1.0;
                    acc += cu * cv * in[u * 8 + v]
                           * std::cos((2 * x + 1) * v * kPi / 16.0)
                           * std::cos((2 * y + 1) * u * kPi / 16.0);
                }
            }
            out[y * 8 + x] = 0.25 * acc;
        }
    }
}

double
psnrDb(double mse)
{
    if (mse <= 0.0)
        return 99.0;
    return 10.0 * std::log10(255.0 * 255.0 / mse);
}

std::vector<Biquad>
designButterworthBandpass(int order, double lo_norm, double hi_norm)
{
    if (order <= 0 || order % 2 != 0)
        mmxdsp_fatal("bandpass prototype order must be positive and even");
    if (!(0.0 < lo_norm && lo_norm < hi_norm && hi_norm < 0.5))
        mmxdsp_fatal("band edges must satisfy 0 < lo < hi < 0.5");

    using cplx = std::complex<double>;

    // Bilinear-transform prewarping with T = 1 (fs = 1).
    const double w1 = 2.0 * std::tan(kPi * lo_norm);
    const double w2 = 2.0 * std::tan(kPi * hi_norm);
    const double w0 = std::sqrt(w1 * w2);
    const double bw = w2 - w1;

    // Analog Butterworth low-pass prototype poles (left half-plane).
    std::vector<cplx> proto(order);
    for (int k = 0; k < order; ++k) {
        double theta = kPi * (2.0 * k + order + 1.0) / (2.0 * order);
        proto[k] = cplx(std::cos(theta), std::sin(theta));
    }

    // Low-pass -> band-pass: each prototype pole yields two analog poles.
    std::vector<cplx> analog_poles;
    analog_poles.reserve(2 * static_cast<size_t>(order));
    for (const cplx &p : proto) {
        cplx pb = p * bw * 0.5;
        cplx disc = std::sqrt(pb * pb - w0 * w0);
        analog_poles.push_back(pb + disc);
        analog_poles.push_back(pb - disc);
    }

    // Bilinear transform to the z-plane: z = (2 + s) / (2 - s).
    std::vector<cplx> zpoles;
    zpoles.reserve(analog_poles.size());
    for (const cplx &s : analog_poles)
        zpoles.push_back((2.0 + s) / (2.0 - s));

    // Group into conjugate pairs: keep poles with im >= 0, pair with
    // conjugates. Wide bands can produce real poles; pair those together.
    std::vector<cplx> upper;
    std::vector<double> real_poles;
    for (const cplx &p : zpoles) {
        if (std::abs(p.imag()) < 1e-12)
            real_poles.push_back(p.real());
        else if (p.imag() > 0.0)
            upper.push_back(p);
    }

    std::vector<Biquad> sections;
    for (const cplx &p : upper) {
        Biquad s{};
        // Numerator (z-1)(z+1) = z^2 - 1: band-pass zeros at DC/Nyquist.
        s.b0 = 1.0;
        s.b1 = 0.0;
        s.b2 = -1.0;
        s.a1 = -2.0 * p.real();
        s.a2 = std::norm(p);
        sections.push_back(s);
    }
    for (size_t i = 0; i + 1 < real_poles.size(); i += 2) {
        Biquad s{};
        s.b0 = 1.0;
        s.b1 = 0.0;
        s.b2 = -1.0;
        s.a1 = -(real_poles[i] + real_poles[i + 1]);
        s.a2 = real_poles[i] * real_poles[i + 1];
        sections.push_back(s);
    }
    if (sections.size() != static_cast<size_t>(order))
        mmxdsp_panic("bandpass design produced %zu sections, expected %d",
                     sections.size(), order);

    // Normalize overall gain to 1 at the geometric center frequency.
    const double fc = std::atan(w0 / 2.0) / kPi; // unwarped digital center
    const cplx z = std::exp(cplx(0.0, 2.0 * kPi * fc));
    const cplx zinv = 1.0 / z;
    cplx h(1.0, 0.0);
    for (const Biquad &s : sections) {
        cplx num = s.b0 + s.b1 * zinv + s.b2 * zinv * zinv;
        cplx den = 1.0 + s.a1 * zinv + s.a2 * zinv * zinv;
        h *= num / den;
    }
    double per_section = std::pow(std::abs(h),
                                  -1.0 / static_cast<double>(sections.size()));
    for (Biquad &s : sections) {
        s.b0 *= per_section;
        s.b1 *= per_section;
        s.b2 *= per_section;
    }
    return sections;
}

std::vector<double>
runBiquadCascade(const std::vector<Biquad> &sections,
                 const std::vector<double> &x)
{
    std::vector<double> y = x;
    for (const Biquad &s : sections) {
        double d1 = 0.0;
        double d2 = 0.0;
        for (double &v : y) {
            double in = v;
            double out = s.b0 * in + d1;
            d1 = s.b1 * in - s.a1 * out + d2;
            d2 = s.b2 * in - s.a2 * out;
            v = out;
        }
    }
    return y;
}

std::vector<double>
designLowpassFir(int taps, double cutoff_norm)
{
    if (taps <= 0)
        mmxdsp_fatal("FIR tap count must be positive");
    std::vector<double> h(static_cast<size_t>(taps));
    const double m = (taps - 1) / 2.0;
    for (int n = 0; n < taps; ++n) {
        double t = n - m;
        double sinc = (std::abs(t) < 1e-12)
                          ? 2.0 * cutoff_norm
                          : std::sin(2.0 * kPi * cutoff_norm * t) / (kPi * t);
        double window = 0.54 - 0.46 * std::cos(2.0 * kPi * n / (taps - 1));
        h[static_cast<size_t>(n)] = sinc * window;
    }
    // Unity DC gain.
    double sum = 0.0;
    for (double v : h)
        sum += v;
    for (double &v : h)
        v /= sum;
    return h;
}

} // namespace mmxdsp
