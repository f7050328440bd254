#ifndef FDX_UTIL_FLAGS_H_
#define FDX_UTIL_FLAGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace fdx {

/// Command-line flags of the fdx tools (fdxtool, fdxd, fdxctl, fdxload),
/// read strictly. A flag is `--name=value` or a bare `--name`; any other
/// argument is positional. A numeric value must be the whole string, a
/// finite number, and in range; a one-byte value must be exactly one
/// byte. Anything else is an InvalidArgument that
/// names the flag (`--port=70000: expected an integer in [0, 65535]`),
/// so a typo stops the tool instead of running with 0, a default, or a
/// wrapped-around count.

/// Upper bound for flags that size thread pools or lock stripes: a typo
/// must not make a tool try to start millions of threads.
inline constexpr uint64_t kMaxThreadsFlag = 1024;

/// The whole of `value` as a finite number.
Result<double> ParseNumberFlag(const std::string& name,
                               const std::string& value);

/// The whole of `value` as an integer in [min, max].
Result<uint64_t> ParseCountFlag(const std::string& name,
                                const std::string& value, uint64_t min = 0,
                                uint64_t max = UINT64_MAX);

/// The whole of `value` as a TCP port: an integer in [0, 65535].
Result<uint16_t> ParsePortFlag(const std::string& name,
                               const std::string& value);

/// The whole of `value` as one byte.
Result<char> ParseByteFlag(const std::string& name, const std::string& value);

class Flags {
 public:
  /// Reads argv[first], ..., argv[argc - 1] for the tool named `tool`.
  Flags(std::string tool, int argc, char** argv, int first);

  /// The value of the last --name=..., or nullopt when absent.
  std::optional<std::string> Find(const std::string& name) const;

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    return Find(name).value_or(fallback);
  }

  /// True when the bare flag --name is present.
  bool Has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Numeric flags: `fallback` when absent, else the value read by
  /// ParseNumberFlag / ParseCountFlag / ParsePortFlag. A malformed value
  /// prints `<tool>: <message>` and exits with the usage code 2 that
  /// every tool shares.
  double GetNumber(const std::string& name, double fallback) const;
  uint64_t GetCount(const std::string& name, uint64_t fallback,
                    uint64_t min = 0, uint64_t max = UINT64_MAX) const;
  uint16_t GetPort(const std::string& name, uint16_t fallback) const;
  /// A one-byte flag (a delimiter), read by ParseByteFlag.
  char GetByte(const std::string& name, char fallback) const;

  /// OK when every argument is one of `known`, else an InvalidArgument
  /// naming the first that is not. A known name ending in '=' takes a
  /// value ("port="); any other is a bare flag ("debug-ops").
  /// Positional arguments are never known.
  Status CheckKnown(const std::vector<std::string>& known) const;

 private:
  std::string tool_;
  std::vector<std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace fdx

#endif  // FDX_UTIL_FLAGS_H_
