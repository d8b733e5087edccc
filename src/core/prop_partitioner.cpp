#include "core/prop_partitioner.h"

#include <string>

#include "fm/fm_partitioner.h"

namespace prop {

template class PropRefiner<Partition>;
template class PassEngine<PropRefiner<Partition>>;

RefineOutcome prop_refine(Partition& part, const BalanceConstraint& balance,
                          const PropConfig& config) {
  config.model.validate();
  PropRefiner<Partition> refiner(part, {&balance}, config);
  RefineOutcome out = refiner.refine();
  if (refiner.drift_gave_up()) {
    // Last link of the degradation chain: finish with deterministic FM
    // gains — the exact incremental engine of the family — so the run still
    // converges to a locally-optimal cut.  Every pass-loop setting carries
    // over: FM passes append to the same trajectory, poll the same context
    // and keep auditing at the same cadence.
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
    fm.audit_interval = config.audit_interval;
    fm.audit_tolerance = config.audit_tolerance;
    const RefineOutcome fm_out = fm_refine(part, balance, fm);
    out.passes += fm_out.passes;
    out.interrupted = fm_out.interrupted;
    out.cut_cost = fm_out.cut_cost;
  }
  return out;
}

}  // namespace prop
