/**
 * @file
 * The common interface of partitioning strategies.
 *
 * A strategy maps a (model, accelerator hierarchy) pair to a hierarchical
 * PartitionPlan. The four strategies of the paper's evaluation (§6.1) are
 * provided: data parallelism (DP), "One Weird Trick" (OWT), HyPar, and
 * AccPar. All plans are executed by the same simulator, so differences in
 * reported throughput come only from the partitioning decisions.
 */

#ifndef ACCPAR_STRATEGIES_STRATEGY_H
#define ACCPAR_STRATEGIES_STRATEGY_H

#include <memory>
#include <string>
#include <vector>

#include "core/hierarchical_solver.h"
#include "core/plan.h"
#include "hw/hierarchy.h"

namespace accpar::strategies {

/** Abstract partitioning strategy. */
class Strategy
{
  public:
    virtual ~Strategy() = default;

    /** Short lowercase identifier ("dp", "owt", "hypar", "accpar"). */
    virtual std::string name() const = 0;

    /** Display label used in tables ("DP", "OWT", ...). */
    virtual std::string label() const = 0;

    /**
     * Produces the plan for @p problem on @p hierarchy. @p context
     * carries optional shared resources (thread pool for parallel
     * subtree fan-out); the default-constructed context solves
     * sequentially, and results are identical either way.
     */
    virtual core::PartitionPlan
    plan(const core::PartitionProblem &problem,
         const hw::Hierarchy &hierarchy,
         const core::SolveContext &context) const = 0;

    /** Convenience overload: sequential, no shared resources. */
    core::PartitionPlan plan(const core::PartitionProblem &problem,
                             const hw::Hierarchy &hierarchy) const;

    /** Convenience overload building the problem from a model graph. */
    core::PartitionPlan plan(const graph::Graph &model,
                             const hw::Hierarchy &hierarchy) const;

    /**
     * The cost-model configuration this strategy searches (and records
     * per-node costs) under. Post-solve plan verification re-evaluates
     * costs with exactly this configuration, so the AP107 cross-check
     * is meaningful for every strategy, not just the default.
     */
    virtual core::CostModelConfig costConfig() const
    {
        return core::CostModelConfig{};
    }
};

using StrategyPtr = std::unique_ptr<Strategy>;

} // namespace accpar::strategies

#endif // ACCPAR_STRATEGIES_STRATEGY_H
