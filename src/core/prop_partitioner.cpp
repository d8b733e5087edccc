#include "core/prop_partitioner.h"

#include <string>

#include "fm/fm_partitioner.h"
#include "partition/initial.h"
#include "util/rng.h"

namespace prop {

template class PropRefiner<Partition>;

RefineOutcome prop_refine(Partition& part, const BalanceConstraint& balance,
                          const PropConfig& config) {
  config.model.validate();
  PropRefiner<Partition> refiner(part, {&balance}, config);
  RefineOutcome out;
  out.passes = refiner.refine();
  out.interrupted = refiner.interrupted();
  if (refiner.drift_gave_up()) {
    // Last link of the degradation chain: finish with deterministic FM
    // gains — the exact incremental engine of the family — so the run still
    // converges to a locally-optimal cut.  Telemetry and the runtime
    // context carry over (FM passes append to the same trajectory).
    if (config.context) {
      config.context->degrade(
          "prop.gain-drift", "fm-fallback",
          std::to_string(PropRefiner<Partition>::kMaxEmergencyResyncs) +
              " emergency resyncs did not hold; finishing with "
              "deterministic FM gains");
    }
    FmConfig fm;
    fm.max_passes = config.max_passes;
    fm.telemetry = config.telemetry;
    fm.context = config.context;
    const RefineOutcome fm_out = fm_refine(part, balance, fm);
    out.passes += fm_out.passes;
    out.interrupted = fm_out.interrupted;
  }
  out.cut_cost = part.cut_cost();
  return out;
}

PartitionResult PropPartitioner::run(const Hypergraph& g,
                                     const BalanceConstraint& balance,
                                     std::uint64_t seed) {
  Rng rng(seed);
  Partition part(g, random_balanced_sides(g, balance, rng));
  const RefineOutcome outcome = prop_refine(part, balance, config_);
  PartitionResult result;
  result.side = part.sides();
  result.cut_cost = outcome.cut_cost;
  result.passes = outcome.passes;
  return result;
}

}  // namespace prop
