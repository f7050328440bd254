#include "util/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace fdx {

namespace {

Status BadFlag(const std::string& name, const std::string& value,
               const std::string& expected) {
  return Status::InvalidArgument("--" + name + "=" + value + ": expected " +
                                 expected);
}

/// The value of a flag read by `tool`; a malformed one prints
/// `<tool>: <message>` and exits with the usage code 2.
template <typename T>
T ValueOrExit(const std::string& tool, Result<T> flag) {
  if (!flag.ok()) {
    std::fprintf(stderr, "%s: %s\n", tool.c_str(),
                 flag.status().message().c_str());
    std::exit(2);
  }
  return std::move(flag).value();
}

}  // namespace

Result<double> ParseNumberFlag(const std::string& name,
                               const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(parsed)) {
    return BadFlag(name, value, "a finite number");
  }
  return parsed;
}

Result<uint64_t> ParseCountFlag(const std::string& name,
                                const std::string& value, uint64_t min,
                                uint64_t max) {
  const Result<double> parsed = ParseNumberFlag(name, value);
  // 0x1p64 is the first double above UINT64_MAX; converting anything at
  // or past it (or below zero) to an integer is undefined.
  if (!parsed.ok() || *parsed < 0.0 || *parsed >= 0x1p64 ||
      *parsed != std::floor(*parsed) ||
      static_cast<uint64_t>(*parsed) < min ||
      static_cast<uint64_t>(*parsed) > max) {
    return BadFlag(name, value,
                   "an integer in [" + std::to_string(min) + ", " +
                       std::to_string(max) + "]");
  }
  return static_cast<uint64_t>(*parsed);
}

Result<uint16_t> ParsePortFlag(const std::string& name,
                               const std::string& value) {
  FDX_ASSIGN_OR_RETURN(const uint64_t port,
                       ParseCountFlag(name, value, 0, UINT16_MAX));
  return static_cast<uint16_t>(port);
}

Result<char> ParseByteFlag(const std::string& name,
                           const std::string& value) {
  if (value.size() != 1) return BadFlag(name, value, "a single byte");
  return value[0];
}

Flags::Flags(std::string tool, int argc, char** argv, int first)
    : tool_(std::move(tool)) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      flags_.push_back(arg);
    } else {
      positional_.push_back(arg);
    }
  }
}

std::optional<std::string> Flags::Find(const std::string& name) const {
  const std::string prefix = "--" + name + "=";
  for (auto it = flags_.rbegin(); it != flags_.rend(); ++it) {
    if (it->rfind(prefix, 0) == 0) return it->substr(prefix.size());
  }
  return std::nullopt;
}

bool Flags::Has(const std::string& name) const {
  for (const auto& flag : flags_) {
    if (flag == "--" + name) return true;
  }
  return false;
}

double Flags::GetNumber(const std::string& name, double fallback) const {
  const std::optional<std::string> value = Find(name);
  return value ? ValueOrExit(tool_, ParseNumberFlag(name, *value)) : fallback;
}

uint64_t Flags::GetCount(const std::string& name, uint64_t fallback,
                         uint64_t min, uint64_t max) const {
  const std::optional<std::string> value = Find(name);
  return value ? ValueOrExit(tool_, ParseCountFlag(name, *value, min, max))
               : fallback;
}

uint16_t Flags::GetPort(const std::string& name, uint16_t fallback) const {
  const std::optional<std::string> value = Find(name);
  return value ? ValueOrExit(tool_, ParsePortFlag(name, *value)) : fallback;
}

char Flags::GetByte(const std::string& name, char fallback) const {
  const std::optional<std::string> value = Find(name);
  return value ? ValueOrExit(tool_, ParseByteFlag(name, *value)) : fallback;
}

Status Flags::CheckKnown(const std::vector<std::string>& known) const {
  if (!positional_.empty()) {
    return Status::InvalidArgument("unexpected argument " + positional_[0]);
  }
  for (const std::string& flag : flags_) {
    const bool found = std::any_of(
        known.begin(), known.end(), [&flag](const std::string& name) {
          return !name.empty() && name.back() == '='
                     ? flag.rfind("--" + name, 0) == 0
                     : flag == "--" + name;
        });
    if (!found) return Status::InvalidArgument("unknown flag " + flag);
  }
  return Status::OK();
}

}  // namespace fdx
