// The Bipartitioner adapter of the iterative refiners (FM, LA-k, PROP):
// a seeded random balanced start, one refine call, the refined partition.
// A CRTP base over the refiner's config and its refine function; the
// derived class adds its name() and constructor.
#pragma once

#include <cstdint>
#include <memory>

#include "partition/initial.h"
#include "partition/partition.h"
#include "partition/partitioner.h"
#include "util/rng.h"

namespace prop {

template <typename Derived, typename Config,
          RefineOutcome (*Refine)(Partition&, const BalanceConstraint&,
                                  const Config&)>
class IterativePartitioner : public Bipartitioner {
 public:
  bool attach_telemetry(RefineTelemetry* telemetry) noexcept override {
    config_.telemetry = telemetry;
    return true;
  }

  bool attach_context(const RunContext* context) noexcept override {
    config_.context = context;
    return true;
  }

  PartitionResult run(const Hypergraph& g, const BalanceConstraint& balance,
                      std::uint64_t seed) override {
    Rng rng(seed);
    Partition part(g, random_balanced_sides(g, balance, rng));
    const RefineOutcome outcome = Refine(part, balance, config_);
    PartitionResult result;
    result.side = part.sides();
    result.cut_cost = outcome.cut_cost;
    result.passes = outcome.passes;
    return result;
  }

  std::unique_ptr<Bipartitioner> clone() const override {
    auto copy = std::make_unique<Derived>(config_);
    copy->attach_telemetry(nullptr);
    copy->attach_context(nullptr);
    return copy;
  }

 protected:
  explicit IterativePartitioner(Config config) : config_(config) {}

  Config config_;
};

}  // namespace prop
