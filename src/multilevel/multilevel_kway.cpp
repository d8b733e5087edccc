#include "multilevel/multilevel_kway.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "kway/kway_state.h"
#include "util/rng.h"

namespace prop {

MultilevelKWayResult multilevel_kway_partition(
    const Hypergraph& g, std::uint64_t seed,
    const MultilevelKWayConfig& config, RefineTelemetry* telemetry) {
  // Part ids travel as uint8_t in PartitionResult::side, hence 256.
  if (config.k < 2 || config.k > 256 || config.k > g.num_nodes()) {
    throw std::invalid_argument(
        "multilevel kway: k must be in [2, 256] and at most the node count");
  }
  const RunContext* ctx = config.context;
  MultilevelKWayResult out;

  // Phase 1: the 2-way driver's coarsening, never below k nodes.
  const std::deque<CoarseLevel> levels =
      coarsen(g, seed, config, config.k, ctx);
  const Hypergraph& coarsest = levels.empty() ? g : levels.back().graph;
  out.levels = static_cast<int>(levels.size());
  out.coarsest_nodes = coarsest.num_nodes();

  // Phase 2: multi-start k-way pipeline on the coarsest graph.
  std::vector<NodeId> part;
  double best_cost = 0.0;
  for (int run = 0; run < std::max(1, config.initial_runs); ++run) {
    if (run > 0 && ctx && ctx->should_stop()) break;
    FmPartitioner bisector(config.fm);
    const KWayPipelineResult r = kway_partition(
        bisector, coarsest,
        mix_seed(seed, 0x141714ULL, static_cast<std::uint64_t>(run)), config,
        nullptr, ctx);
    const double cost = r.cost(config.objective);
    if (part.empty() || cost < best_cost) {
      part = r.part;
      best_cost = cost;
      out.passes = r.passes;
    }
    if (r.interrupted) {
      out.interrupted = true;
      break;
    }
  }

  // Phase 3: project one level down, then the k-way level step.  After a
  // stop the step still legalizes every level and skips only PROP, so the
  // flat result always fits the window.
  uncoarsen(g, levels, part, [&](const Hypergraph& lg, std::size_t i) {
    KWayPipelineResult r = kway_level_step(
        lg, std::move(part),
        mix_seed(seed, 0x57A9EULL, static_cast<std::uint64_t>(i)), config,
        telemetry, ctx);
    part = std::move(r.part);
    out.passes += r.passes;
    if (r.interrupted) out.interrupted = true;
  });

  out.k = config.k;
  out.part = std::move(part);
  const KWayState state(g, out.part, config.k);
  out.cut_cost = state.cut_cost();
  out.connectivity_cost = state.connectivity_cost();
  return out;
}

std::string MultilevelKWayPartitioner::name() const {
  return std::string("ML-KWAY-") + std::to_string(config_.k) + "-" +
         to_string(config_.refiner);
}

PartitionResult MultilevelKWayPartitioner::run(const Hypergraph& g,
                                               const BalanceConstraint& balance,
                                               std::uint64_t seed) {
  (void)balance;  // k-way balance comes from config_.tolerance
  return kway_partition_result(
      multilevel_kway_partition(g, seed, config_, telemetry_),
      config_.objective);
}

std::unique_ptr<Bipartitioner> MultilevelKWayPartitioner::clone() const {
  auto copy = std::make_unique<MultilevelKWayPartitioner>(config_);
  copy->attach_telemetry(nullptr);
  copy->attach_context(nullptr);
  return copy;
}

ValidationReport MultilevelKWayPartitioner::validate(
    const Hypergraph& g, const BalanceConstraint& balance,
    const PartitionResult& result) const {
  (void)balance;
  return validate_kway_result(g, config_.k, config_.objective, result);
}

}  // namespace prop
