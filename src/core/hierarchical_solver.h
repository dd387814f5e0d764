/**
 * @file
 * The hierarchical partitioning solver: applies the layer-wise DP
 * recursively over the bi-partition tree of the accelerator array
 * (paper §5.1's hierarchical/recursive partitioning).
 *
 * At every internal hierarchy node the solver (1) builds the pair cost
 * model from the two child groups' aggregate rates, (2) runs the chain DP
 * for the current ratio, (3) re-solves the ratio per the configured
 * policy, iterating (2)-(3) to a bounded fixed point, and (4) recurses
 * into the children with the per-layer dimensions scaled by the chosen
 * types and ratio (Type-I scales B, Type-II scales D_i, Type-III scales
 * D_o; junctions scale their single channel dimension for both II and
 * III). Twin child subtrees — bit-equal scales over rate-identical
 * subtrees — are solved once and copied (DESIGN.md §11).
 */

#ifndef ACCPAR_CORE_HIERARCHICAL_SOLVER_H
#define ACCPAR_CORE_HIERARCHICAL_SOLVER_H

#include <functional>
#include <memory>

#include "core/chain_dp.h"
#include "core/condensed_graph.h"
#include "core/cost_model.h"
#include "core/plan.h"
#include "core/ratio_solver.h"
#include "core/segment.h"
#include "graph/graph.h"
#include "graph/sp_decomposition.h"
#include "hw/hierarchy.h"
#include "util/thread_pool.h"

namespace accpar::core {

class PlanCertificate;
class DpStructure;

/** Per-node allowed-type policy; default allows all three types. */
using AllowedTypesFn =
    std::function<std::vector<PartitionType>(const CondensedNode &)>;

/**
 * Configuration of one hierarchical solve.
 *
 * Deprecated as a user-facing surface: this is the solver layer's
 * two-level view (search knobs here, cost knobs nested in `cost`) kept
 * so existing callers and tests compile unchanged. New code should
 * configure the flat accpar::PlanOptions (core/planner.h), which folds
 * both levels into one documented struct and converts via
 * PlanOptions::toSolverOptions / fromSolverOptions.
 */
struct SolverOptions
{
    CostModelConfig cost;
    RatioPolicy ratioPolicy = RatioPolicy::PaperLinear;
    /** Bounded fixed-point iterations of (DP, ratio) per node. */
    int ratioIterations = 3;
    /** Allowed types per condensed node; null means unrestricted. */
    AllowedTypesFn allowedTypes;
    /**
     * Integer-granularity constraint: a type is only searchable at a
     * level while the dimension it partitions keeps at least this many
     * units on each side after the split (a board cannot hold a fraction
     * of a batch sample or channel). 0 disables the check. When no
     * allowed type is feasible, the type with the largest partitionable
     * dimension is kept.
     */
    double minDimPerSide = 1.0;
    /** Strategy label recorded in the plan. */
    std::string strategyName = "accpar";
};

/**
 * Shared execution resources for one solve, all optional. Both members
 * are non-owning; the Planner facade wires them up for callers.
 *
 * - With a pool, sibling subtrees of the bi-partition hierarchy solve
 *   concurrently. The decisions of a subtree depend only on its
 *   ancestors' (type, ratio) choices, and every hierarchy node writes
 *   its own plan slot, so the result is bit-identical to the sequential
 *   solve regardless of thread count.
 */
struct SolveContext
{
    util::ThreadPool *pool = nullptr; ///< null => fully sequential
    /**
     * When non-null, solveHierarchy re-initializes it for the run and
     * every internal hierarchy node records the evidence of its solve
     * (cost tables, Bellman rows, ratio bracket) into its own slot —
     * concurrent sibling solves stay race-free for the same reason
     * plan-slot writes do. See core/certificate.h.
     */
    PlanCertificate *certificate = nullptr;
    /**
     * When non-null, receives the number of internal hierarchy nodes
     * that ran the DP. A twin subtree (DESIGN.md §11) is copied from
     * its sibling instead of solved, so this can be fewer than the
     * hierarchy's internal nodes. Deterministic for any pool size.
     */
    int *solvedNodes = nullptr;
};

/**
 * True when splitting @p t's dimension of @p dims at @p min_share (the
 * smaller of the two ratio shares) leaves at least @p min_dim units per
 * side.
 */
bool typeFeasible(const LayerDims &dims, bool junction, PartitionType t,
                  double min_share, double min_dim);

/**
 * A prepared partitioning problem: the condensed view of one model,
 * reusable across hierarchies and solver options.
 *
 * Construction classifies the condensed graph structurally. Models
 * whose fork/join regions nest with distinct joins take the legacy
 * chain decomposition and are solved by the flattened DP kernel —
 * byte-identical to the frozen tests/support/legacy_dp reference.
 * Everything else (including non-series-parallel graphs) gets the
 * general SP-decomposition tree (graph/sp_decomposition.h) and is
 * solved by core/sp_solver.h; residual regions beyond the exact
 * bound are rejected there with diagnostic AG009.
 */
class PartitionProblem
{
  public:
    explicit PartitionProblem(const graph::Graph &model);

    /** Non-copyable and non-movable: the compiled DP structure keeps a
     *  reference into the condensed graph. Share problems by
     *  reference (Planner::planBatch and solveHierarchyBatch do). */
    PartitionProblem(const PartitionProblem &) = delete;
    PartitionProblem &operator=(const PartitionProblem &) = delete;
    ~PartitionProblem();

    const CondensedGraph &condensed() const { return _condensed; }

    /** True when the legacy chain decomposition applies (every zoo
     *  CNN and transformer); the DP kernel path is used. */
    bool hasChain() const { return _hasChain; }

    /** The legacy chain view; ConfigError unless hasChain(). */
    const Chain &chain() const;

    /** The compiled (graph, chain) structure every DpKernel over this
     *  problem borrows — one compilation per problem instead of one
     *  per hierarchy node. ConfigError unless hasChain(). */
    const DpStructure &dpStructure() const;

    /** The general decomposition tree; ConfigError when hasChain()
     *  (chain-mode problems never build it). */
    const graph::SpTree &spTree() const;

    /** Unscaled dims per condensed node. */
    const std::vector<LayerDims> &baseDims() const { return _baseDims; }

    /** Condensed node names (for plan reporting). */
    std::vector<std::string> nodeNames() const;

  private:
    CondensedGraph _condensed;
    bool _hasChain = false;
    Chain _chain;
    graph::SpTree _spTree;
    std::vector<LayerDims> _baseDims;
    /** Compiled once in the constructor for chain-mode problems; the
     *  type stays incomplete here so the certificate checker's include
     *  graph never reaches the DP kernel (ALINT05). */
    std::unique_ptr<DpStructure> _dpStructure;
};

/** Solves the full hierarchy for @p problem. */
PartitionPlan solveHierarchy(const PartitionProblem &problem,
                             const hw::Hierarchy &hierarchy,
                             const SolverOptions &options);

/** Solves with shared execution resources (thread pool, certificate). */
PartitionPlan solveHierarchy(const PartitionProblem &problem,
                             const hw::Hierarchy &hierarchy,
                             const SolverOptions &options,
                             const SolveContext &context);

/** Convenience wrapper building the problem from @p model. */
PartitionPlan solveHierarchy(const graph::Graph &model,
                             const hw::Hierarchy &hierarchy,
                             const SolverOptions &options);

/**
 * Solves @p problem against several hierarchy candidates in one call,
 * returning one plan per entry of @p hierarchies (in order). All
 * solves share the problem's compiled DP structure; with a pool the
 * candidates solve concurrently — each candidate's plan is
 * bit-identical to its own solveHierarchy call, so batching only
 * changes throughput. The search layer uses this to
 * score a lookahead set of annealing neighbors per oracle call.
 *
 * Certificate emission and the node-solve count are per-solve and not
 * batched: @p context.certificate and @p context.solvedNodes must be
 * null (solve the winner again to emit).
 */
std::vector<PartitionPlan>
solveHierarchyBatch(const PartitionProblem &problem,
                    const std::vector<const hw::Hierarchy *> &hierarchies,
                    const SolverOptions &options,
                    const SolveContext &context);

/** The dimension scale factors a node's choice hands to a child group. */
struct DimScales
{
    double b = 1.0;
    double di = 1.0;
    double dOut = 1.0;
};

/**
 * Applies one level's (type, ratio) decision for one condensed node to
 * the child-group scales. Exposed for tests and the trace generator.
 */
DimScales childScales(const DimScales &scales, bool junction,
                      PartitionType type, double ratio);

/** Scales the base dims of @p problem by per-node @p scales. */
std::vector<LayerDims> scaledDims(const PartitionProblem &problem,
                                  const std::vector<DimScales> &scales);

} // namespace accpar::core

#endif // ACCPAR_CORE_HIERARCHICAL_SOLVER_H
