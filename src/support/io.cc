#include "io.hh"

#include <atomic>
#include <cstdio>
#include <filesystem>

#ifdef _WIN32
#include <process.h>
#define mmxdsp_getpid _getpid
#else
#include <unistd.h>
#define mmxdsp_getpid getpid
#endif

namespace mmxdsp {

bool
readFile(const std::string &path, std::vector<uint8_t> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    if (size < 0) {
        std::fclose(f);
        return false;
    }
    std::fseek(f, 0, SEEK_SET);
    out.resize(static_cast<size_t>(size));
    const size_t got = size ? std::fread(out.data(), 1, out.size(), f) : 0;
    std::fclose(f);
    return got == out.size();
}

bool
writeFileAtomic(const std::string &path, const std::vector<uint8_t> &data)
{
    return writeFileAtomic(path, [&](std::FILE *f) {
        return data.empty()
               || std::fwrite(data.data(), 1, data.size(), f) == data.size();
    });
}

bool
writeFileAtomic(const std::string &path,
                const std::function<bool(std::FILE *)> &write)
{
    static std::atomic<uint64_t> counter{0};
    char suffix[64];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%d.%llu",
                  static_cast<int>(mmxdsp_getpid()),
                  static_cast<unsigned long long>(
                      counter.fetch_add(1, std::memory_order_relaxed)));
    const std::string tmp = path + suffix;
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    const bool wrote = write(f);
    const bool ok = std::fclose(f) == 0 && wrote;
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
quarantineFile(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? std::string(".") : path.substr(0, slash);
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::string qdir = dir + "/quarantine";
    std::error_code ec;
    std::filesystem::create_directories(qdir, ec);
    if (ec)
        return false;
    std::string dest = qdir + "/" + base;
    for (int attempt = 1; attempt <= 32; ++attempt) {
        if (!std::filesystem::exists(dest, ec)
            && std::rename(path.c_str(), dest.c_str()) == 0)
            return true;
        char suffix[32];
        std::snprintf(suffix, sizeof(suffix), ".%d", attempt);
        dest = qdir + "/" + base + suffix;
    }
    return false;
}

} // namespace mmxdsp
