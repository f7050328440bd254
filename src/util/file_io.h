#ifndef FDX_UTIL_FILE_IO_H_
#define FDX_UTIL_FILE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fdx {

/// Small filesystem helpers for the durability layer. All paths are
/// taken as-is (no tilde or environment expansion).

/// Reads a whole file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Reads exactly `length` bytes starting at `offset`. Fails with
/// kIOError if the file ends early — callers use this for fixed-layout
/// binary files (chunk stores) where a short read means corruption.
Result<std::string> ReadFileSlice(const std::string& path, uint64_t offset,
                                  uint64_t length);

/// Durable write: writes `contents` to a temporary file in the target's
/// directory, fsyncs it, then renames it over `path`. Readers never see
/// a torn file — they observe either the old contents or the new ones.
Status WriteFileAtomic(const std::string& path, const std::string& contents);

/// Creates `path` (and missing parents) as a directory. Succeeds if the
/// directory already exists.
Status EnsureDirectory(const std::string& path);

/// Removes a file; missing files are not an error.
Status RemoveFile(const std::string& path);

/// Removes a directory tree; a missing root is not an error.
Status RemoveDirectoryRecursive(const std::string& path);

/// Names of regular files directly inside `path` (not recursive),
/// sorted for determinism.
Result<std::vector<std::string>> ListDirectory(const std::string& path);

/// Names of the directories directly inside `path`, sorted.
Result<std::vector<std::string>> ListSubdirectories(const std::string& path);

/// Resident set size of this process in bytes (Linux /proc/self/statm);
/// returns 0 when unavailable.
uint64_t CurrentRssBytes();

}  // namespace fdx

#endif  // FDX_UTIL_FILE_IO_H_
