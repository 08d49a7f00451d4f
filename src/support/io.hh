/**
 * @file
 * Small file-I/O helpers used by the trace store.
 *
 * writeFileAtomic() is the store's publish primitive: the bytes land in a uniquely named temp file in the target
 * directory and are rename()d into place, so a concurrent reader sees
 * either the old file, the new file, or no file — never a partial
 * write. The temp name mixes the pid and a process-wide counter, so two
 * processes (or threads) publishing the same key cannot scribble over
 * each other's temp file either; last rename wins, and both renamed
 * images are complete.
 */

#ifndef MMXDSP_SUPPORT_IO_HH
#define MMXDSP_SUPPORT_IO_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace mmxdsp {

/** Read a whole file; false on open/short-read failure. */
bool readFile(const std::string &path, std::vector<uint8_t> &out);

/**
 * Write @p data to a unique temp file next to @p path and atomically
 * rename it into place. Returns false on any I/O failure (the temp
 * file is cleaned up).
 */
bool writeFileAtomic(const std::string &path,
                     const std::vector<uint8_t> &data);

/**
 * The same publish, with the content written by @p write into the
 * open temp file (it returns false on failure) — for content too large
 * to assemble in memory first.
 */
bool writeFileAtomic(const std::string &path,
                     const std::function<bool(std::FILE *)> &write);

/**
 * Move @p path into a "quarantine/" subdirectory of its parent
 * directory (created on demand), preserving the file name (a numeric
 * suffix is added when that name is already taken). Used by the trace
 * store to get corrupt files out of the lookup path without
 * destroying the evidence. Returns false when the file cannot be moved.
 */
bool quarantineFile(const std::string &path);

} // namespace mmxdsp

#endif // MMXDSP_SUPPORT_IO_HH
