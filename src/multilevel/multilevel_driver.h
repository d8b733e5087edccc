// Multilevel (V-cycle) driver: coarsen -> initial partition -> uncoarsen
// with refinement at every level.
//
// Flat FM-family engines degrade on large instances: a pass sees only
// single-node moves, so well-separated clusters straddling the cut are
// never recombined.  The multilevel scheme (Henne et al., n-Level
// Hypergraph Partitioning) fixes both quality and runtime at once —
// attraction-based coarsening collapses natural clusters into super-nodes,
// the coarsest graph is small enough for a multi-start initial partition,
// and each projection step hands the refiner a partition that is already
// good, so PROP/FM only polish boundaries.  Cut costs are preserved
// exactly through every contraction level (see contraction.h), so the cut
// measured at any level is the flat cut of its projection.
//
// Level hierarchy: coarsen() — repeated attraction_clusters() + contract()
// until the graph has at most coarsest_max_nodes nodes, coarsening stalls
// (min_reduction), or max_levels is hit.  The k-way V-cycle
// (multilevel_kway.h) builds its hierarchy with the same coarsen() and walks
// it back down with the same uncoarsen().  Refinement: PROP by default, FM
// as the ablation (MultilevelConfig::refiner).  The cached-product gain
// engine is rebuilt per level from the coarse hypergraph — see DESIGN.md
// Sec. 4g for why the remap-through-contraction fast path is deferred.
//
// Determinism: everything is seeded (clustering visit order, initial
// starts, refiner tie-breaks), so equal seeds give byte-identical results;
// clone() detaches hooks, which is all the parallel multi-start runner
// needs to extend its any-thread-count determinism contract over
// multilevel runs.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/prop_config.h"
#include "fm/fm_partitioner.h"
#include "hypergraph/contraction.h"
#include "partition/partitioner.h"
#include "util/rng.h"

namespace prop {

enum class MlRefiner { kProp, kFm };

/// Coarsening settings shared by the 2-way and k-way V-cycles.  Only the
/// target size is settable; the rest are fixed constants.
struct CoarseningConfig {
  /// Coarsening stops once the level has at most this many nodes.
  NodeId coarsest_max_nodes = 200;
  /// Hard cap on contraction levels (safety; attraction coarsening roughly
  /// halves the graph per level, so ~log2(n) levels in practice).
  static constexpr int max_levels = 64;
  /// Coarsening stalls when one level keeps more than this fraction of its
  /// input nodes; the V-cycle then starts from whatever it has.
  static constexpr double min_reduction = 0.95;
  /// Cluster weight cap as a fraction of total node size.  Keeps coarse
  /// nodes light enough that every fraction-mapped balance window stays
  /// reachable (BalanceConstraint::fraction widens by the max node size).
  static constexpr double max_cluster_fraction = 1.0 / 32.0;
  /// Nets larger than this are ignored by the attraction rating: a k-pin
  /// net contributes c/(k-1) per pin, so huge nets carry almost no signal
  /// but dominate the rating sweep's cost.
  static constexpr std::size_t rating_max_net_size = 64;
};

struct MultilevelConfig : CoarseningConfig {
  /// Multi-start FM runs for the initial partition of the coarsest graph.
  static constexpr int initial_runs = 10;
  /// Refiner applied at every uncoarsening level (PROP, or FM as the
  /// ablation baseline).
  MlRefiner refiner = MlRefiner::kProp;
  PropConfig prop;  ///< PROP settings (refiner == kProp)
  FmConfig fm;      ///< FM settings (refiner == kFm, and the initial runs)
  /// Optional runtime context: polled between levels (a stop skips the
  /// remaining refinement but still projects + legalizes down to the flat
  /// graph, so the run returns a valid balanced partition) and threaded
  /// into every inner refine call.  Null = inert.
  const RunContext* context = nullptr;
};

/// V-cycle outcome: the flat partition plus the hierarchy facts the tests
/// and benches assert on.
struct MultilevelResult {
  PartitionResult part;
  int levels = 0;            ///< contraction levels built (0 = ran flat)
  NodeId coarsest_nodes = 0; ///< node count of the coarsest graph
  bool interrupted = false;  ///< a deadline/cancellation cut refinement short
};

/// One coarsening step's clustering: visits nodes in seeded random order;
/// each unassigned node joins (or forms) the cluster of its
/// highest-attraction neighbor, where attraction sums c(n)/(|n|-1) over
/// shared nets of size <= rating_max_net_size, subject to the cluster
/// weight cap.  Returns a dense clustering (every id in [0, num_clusters)
/// has at least one member).  Deterministic in `rng`.
std::vector<NodeId> attraction_clusters(const Hypergraph& g, Rng& rng,
                                        std::int64_t max_cluster_weight,
                                        std::size_t rating_max_net_size,
                                        NodeId& num_clusters);

/// One level of the hierarchy: the coarse graph and the projection map
/// from the next finer level onto it.
struct CoarseLevel {
  Hypergraph graph;
  std::vector<NodeId> fine_to_coarse;
};

/// Builds the level hierarchy of `g`, finest first: one attraction_clusters()
/// + contract() step per level on the seeded stream
/// mix_seed(seed, 0xC0A45E, level).  Stops once a level has at most
/// max(coarsest_max_nodes, k) nodes, when a clustering would leave fewer
/// than k nodes or keep more than min_reduction of them, at max_levels, or
/// when `context` stops.  Levels live in a deque so every graph stays put
/// while later ones append.
std::deque<CoarseLevel> coarsen(const Hypergraph& g, std::uint64_t seed,
                                const CoarseningConfig& config, NodeId k,
                                const RunContext* context);

/// Walks the hierarchy back down, coarsest first: projects `part` one level
/// finer, then calls `step(finer_graph, i)`, where `i` is the level index
/// and the graph below levels[0] is the flat `g`.
template <typename Part, typename Step>
void uncoarsen(const Hypergraph& g, const std::deque<CoarseLevel>& levels,
               std::vector<Part>& part, Step&& step) {
  for (std::size_t i = levels.size(); i-- > 0;) {
    part = project_partition(levels[i].fine_to_coarse, part);
    step(i == 0 ? g : levels[i - 1].graph, i);
  }
}

/// Runs the full V-cycle on `g`.  The finest level is refined under
/// `balance` exactly; coarse levels use the same (r1, r2) fractions mapped
/// through BalanceConstraint::fraction.
MultilevelResult multilevel_partition(const Hypergraph& g,
                                      const BalanceConstraint& balance,
                                      std::uint64_t seed,
                                      const MultilevelConfig& config = {});

class MultilevelPartitioner final : public Bipartitioner {
 public:
  explicit MultilevelPartitioner(MultilevelConfig config = {})
      : config_(std::move(config)) {}

  std::string name() const override {
    return config_.refiner == MlRefiner::kProp ? "ML-PROP" : "ML-FM";
  }

  bool attach_telemetry(RefineTelemetry* telemetry) noexcept override {
    // Every level's refine passes append to the same trajectory, coarsest
    // first — the per-pass schema already records cut_before/cut_after, so
    // level boundaries show up as cut discontinuities.
    config_.prop.telemetry = telemetry;
    config_.fm.telemetry = telemetry;
    return true;
  }

  bool attach_context(const RunContext* context) noexcept override {
    config_.context = context;
    config_.prop.context = context;
    config_.fm.context = context;
    return true;
  }

  PartitionResult run(const Hypergraph& g, const BalanceConstraint& balance,
                      std::uint64_t seed) override;

  std::unique_ptr<Bipartitioner> clone() const override {
    auto copy = std::make_unique<MultilevelPartitioner>(config_);
    copy->attach_telemetry(nullptr);
    copy->attach_context(nullptr);
    return copy;
  }

  const MultilevelConfig& config() const noexcept { return config_; }

 private:
  MultilevelConfig config_;
};

}  // namespace prop
