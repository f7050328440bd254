// pb_gen — seeded input generator for the CSV->FDs benchmark.
//
// Follows the synthetic process of the FDX paper (§5.1): the attributes
// are split into consecutive groups of 2-4 (an LHS of 1-3 attributes plus
// one RHS). Even groups carry an exact FD  RHS = phi(LHS); odd groups
// carry a rho-correlation (RHS = phi(LHS) with probability rho ~
// U[0, 0.85], otherwise another value). Each group draws a domain size
// v ~ U[64, 216] for its RHS and factors it across the LHS. Finally every
// cell of an FD-participating attribute is flipped to another domain
// value with probability 1%.
//
// The group structure is fixed per width; --seed drives the rows and the
// noise. The generator lives with the benchmark, not in the library, so that a
// library change cannot change the workload; its output is a pure
// function of the flags and is checksummed by run.py on every run.
//
// Usage:
//   pb_gen --out=DIR --seed=N --rows=N --cols=N [--streams=N] [--header=0|1]
//
// Writes DIR/s<i>.csv for each stream (the same FD structure, independent
// rows) and DIR/truth.json: {"columns": k, "fds": [[[lhs...], rhs], ...]}.
// Values are small non-negative integers; column names are A0..A<k-1>.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

/// SplitMix64: tiny, fast, and identical on every platform (the standard
/// library's distributions are not, so none are used here).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform double in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

struct Group {
  std::vector<size_t> lhs;
  size_t rhs = 0;
  bool is_fd = false;
  double rho = 0.0;
  uint64_t salt = 0;
};

uint64_t Mix(const std::vector<uint64_t>& codes, uint64_t salt) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ salt;
  for (uint64_t c : codes) {
    h ^= c + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  return h;
}

long FlagValue(int argc, char** argv, const char* name, long fallback) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return std::strtol(argv[i] + len + 1, nullptr, 10);
    }
  }
  return fallback;
}

std::string FlagString(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return "";
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[24];
  int n = 0;
  do {
    buf[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) out->push_back(buf[--n]);
}

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = FlagString(argc, argv, "--out");
  const long seed = FlagValue(argc, argv, "--seed", -1);
  const long rows = FlagValue(argc, argv, "--rows", 0);
  const long cols = FlagValue(argc, argv, "--cols", 0);
  const long streams = FlagValue(argc, argv, "--streams", 1);
  const bool header = FlagValue(argc, argv, "--header", 1) != 0;
  if (out.empty() || seed < 0 || rows < 2 || cols < 2 || streams < 1) {
    std::fprintf(stderr,
                 "usage: pb_gen --out=DIR --seed=N --rows=N --cols=N "
                 "[--streams=N] [--header=0|1]\n");
    return 2;
  }
  const size_t k = static_cast<size_t>(cols);

  // Structure: groups, domains and planted FDs. It depends on the width
  // only, so that --seed varies the rows while FD quality stays
  // comparable across seeds.
  Rng structure(static_cast<uint64_t>(k) * 0x2545f4914f6cdd1dull + 1);
  std::vector<Group> groups;
  std::vector<uint64_t> domain(k, 2);
  for (size_t next = 0; next < k;) {
    size_t size = 2 + structure.Below(3);
    if (size > k - next) size = k - next;
    if (size < 2) {
      // A trailing single attribute joins the previous group's LHS.
      groups.back().lhs.push_back(next);
      domain[next] = 2 + structure.Below(11);
      break;
    }
    Group g;
    for (size_t i = 0; i + 1 < size; ++i) g.lhs.push_back(next + i);
    g.rhs = next + size - 1;
    g.is_fd = groups.size() % 2 == 0;
    g.rho = structure.Unit() * 0.85;
    g.salt = structure.Next();
    const uint64_t v = 64 + structure.Below(216 - 64 + 1);
    const double per_attr = std::pow(
        static_cast<double>(v), 1.0 / static_cast<double>(g.lhs.size()));
    for (size_t a : g.lhs) {
      domain[a] = std::max<uint64_t>(
          2, static_cast<uint64_t>(std::llround(per_attr)));
    }
    domain[g.rhs] = v;
    groups.push_back(g);
    next += size;
  }
  std::vector<bool> noisy(k, false);
  for (const Group& g : groups) {
    if (!g.is_fd) continue;
    noisy[g.rhs] = true;
    for (size_t a : g.lhs) noisy[a] = true;
  }

  std::string truth = "{\"columns\":" + std::to_string(k) + ",\"fds\":[";
  bool first_fd = true;
  for (const Group& g : groups) {
    if (!g.is_fd) continue;
    truth += first_fd ? "[[" : ",[[";
    first_fd = false;
    for (size_t i = 0; i < g.lhs.size(); ++i) {
      truth += (i ? "," : "") + std::to_string(g.lhs[i]);
    }
    truth += "]," + std::to_string(g.rhs) + "]";
  }
  truth += "]}\n";
  if (!WriteFile(out + "/truth.json", truth)) {
    std::fprintf(stderr, "pb_gen: cannot write %s/truth.json\n", out.c_str());
    return 1;
  }

  std::vector<uint64_t> row(k);
  std::vector<uint64_t> codes;
  for (long s = 0; s < streams; ++s) {
    Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ull +
            static_cast<uint64_t>(s) * 0xd1b54a32d192ed03ull + 7);
    std::string text;
    text.reserve(static_cast<size_t>(rows) * k * 3);
    if (header) {
      for (size_t c = 0; c < k; ++c) {
        if (c) text.push_back(',');
        text += "A" + std::to_string(c);
      }
      text.push_back('\n');
    }
    for (long r = 0; r < rows; ++r) {
      for (const Group& g : groups) {
        codes.clear();
        for (size_t a : g.lhs) {
          row[a] = rng.Below(domain[a]);
          codes.push_back(row[a]);
        }
        const uint64_t v = domain[g.rhs];
        const uint64_t mapped = Mix(codes, g.salt) % v;
        uint64_t y = mapped;
        if (!g.is_fd && !(rng.Unit() < g.rho)) {
          y = rng.Below(v - 1);
          if (y >= mapped) ++y;
        }
        row[g.rhs] = y;
      }
      for (size_t c = 0; c < k; ++c) {
        if (noisy[c] && rng.Unit() < 0.01) {
          uint64_t flipped = rng.Below(domain[c] - 1);
          if (flipped >= row[c]) ++flipped;
          row[c] = flipped;
        }
        if (c) text.push_back(',');
        AppendUint(&text, row[c]);
      }
      text.push_back('\n');
    }
    const std::string path = out + "/s" + std::to_string(s) + ".csv";
    if (!WriteFile(path, text)) {
      std::fprintf(stderr, "pb_gen: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}
