#include "kway/kway_prop_refiner.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/run_context.h"
#include "telemetry/invariant_audit.h"

namespace prop {

template class ProbGainCalculator<KWayState>;
template class PropRefiner<KWayState>;
template class PassEngine<PropRefiner<KWayState>>;

void PropMoveRules<KWayState>::check_cost(const KWayState& state,
                                          double tol) const {
  double cut = 0.0;
  double connectivity = 0.0;
  state.verify_costs(&cut, &connectivity);
  audit::check(std::abs(state.cut_cost() - cut) <= tol,
               "incremental k-way cut cost != recomputed");
  audit::check(std::abs(state.connectivity_cost() - connectivity) <= tol,
               "incremental k-way connectivity cost != recomputed");
}

KWayPropOutcome kway_prop_refine(const Hypergraph& g,
                                 std::vector<NodeId>& part, NodeId k,
                                 const KWayBalanceWindow& window,
                                 const KWayPropConfig& config) {
  if (k < 2) {
    throw std::invalid_argument("kway_prop_refine: k must be >= 2");
  }
  config.model.validate();
  KWayState state(g, part, k);
  PropRefiner<KWayState> refiner(state, {window, config.objective}, config);

  const RefineOutcome refined = refiner.refine();
  KWayPropOutcome out;
  out.passes = refined.passes;
  out.interrupted = refined.interrupted;
  if (refiner.drift_gave_up() && config.context) {
    // Last link of the k-way drift chain: keep the rolled-back prefix and
    // stop refining.
    config.context->degrade(
        "prop.gain-drift", "stop",
        std::to_string(PropRefiner<KWayState>::kMaxEmergencyResyncs) +
            " emergency resyncs did not hold; keeping the best prefix");
  }
  part = state.parts();
  out.cut_cost = state.cut_cost();
  out.connectivity_cost = state.connectivity_cost();
  return out;
}

}  // namespace prop
