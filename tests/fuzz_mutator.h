#ifndef FDX_TESTS_FUZZ_MUTATOR_H_
#define FDX_TESTS_FUZZ_MUTATOR_H_

// The seeded byte mutator shared by the in-tree fuzz tests (there is no
// libFuzzer or AFL on the build boxes): one to four steps of a bit flip,
// a truncation, a splice with the tail of a seed, or the insertion of a
// format-significant token. A fuzz test supplies its own seeds and
// tokens; the Rng makes every case reproducible from its shard seed.

#include <string>
#include <vector>

#include "util/rng.h"

namespace fdx {
namespace testing_fuzz {

inline std::string Mutate(std::string text,
                          const std::vector<std::string>& seeds,
                          const std::vector<std::string>& tokens, Rng* rng) {
  const size_t steps = 1 + rng->NextUint64(4);
  for (size_t s = 0; s < steps; ++s) {
    const size_t pos = text.empty() ? 0 : rng->NextUint64(text.size() + 1);
    switch (rng->NextUint64(5)) {
      case 0:  // bit flip
        if (!text.empty()) {
          text[rng->NextUint64(text.size())] ^=
              static_cast<char>(1 << rng->NextUint64(8));
        }
        break;
      case 1:  // truncation
        text.resize(pos);
        break;
      case 2: {  // splice with another seed
        const std::string& other = seeds[rng->NextUint64(seeds.size())];
        text = text.substr(0, pos) +
               other.substr(rng->NextUint64(other.size()));
        break;
      }
      default:  // dictionary token
        text.insert(pos, tokens[rng->NextUint64(tokens.size())]);
        break;
    }
  }
  return text;
}

}  // namespace testing_fuzz
}  // namespace fdx

#endif  // FDX_TESTS_FUZZ_MUTATOR_H_
