#include "core/prob_gain.h"

namespace prop {

const char* to_string(GainEngine engine) noexcept {
  switch (engine) {
    case GainEngine::kCached:
      return "cached";
    case GainEngine::kScratch:
      return "scratch";
    case GainEngine::kShadow:
      return "shadow";
  }
  return "?";
}

template class ProbGainCalculator<Partition>;

}  // namespace prop
