/**
 * @file
 * Frozen pre-refactor reference implementation of the chain DP, the
 * ratio solvers and a sequential hierarchical solve.
 *
 * This is a verbatim copy of src/core/chain_dp.cpp, ratio_solver.cpp
 * and the hierarchical solver's per-node loop as they stood before the
 * flattened DP kernel landed. It exists only so tests and benches can
 * assert that the optimized kernel produces byte-identical plans and
 * measure the speedup against the original path. It is compiled into
 * the test-only accpar_legacy_dp library and must never be edited to
 * track src/core — freezing it is the point.
 */

#ifndef ACCPAR_TESTS_SUPPORT_LEGACY_DP_H
#define ACCPAR_TESTS_SUPPORT_LEGACY_DP_H

#include <vector>

#include "core/chain_dp.h"
#include "core/condensed_graph.h"
#include "core/cost_model.h"
#include "core/hierarchical_solver.h"
#include "core/plan.h"
#include "core/ratio_solver.h"
#include "core/segment.h"
#include "hw/hierarchy.h"

namespace accpar::core::legacy {

/** Pre-refactor solveChainDp: recomputes costs through the model on
 *  every DP visit and backtracks by copying assignment vectors. */
ChainDpResult solveChainDp(const CondensedGraph &graph, const Chain &chain,
                           const std::vector<LayerDims> &dims,
                           const PairCostModel &model,
                           const TypeRestrictions &allowed);

/** Pre-refactor sideTotalCost: walks the whole condensed graph through
 *  the model's side cost entry points. */
double sideTotalCost(const CondensedGraph &graph,
                     const std::vector<LayerDims> &dims,
                     const PairCostModel &model,
                     const std::vector<PartitionType> &types, Side side);

/** Pre-refactor linearized rebalance (two full graph walks). */
double solveRatioLinear(const CondensedGraph &graph,
                        const std::vector<LayerDims> &dims,
                        const PairCostModel &model,
                        const std::vector<PartitionType> &types);

/** Pre-refactor bisection (two full graph walks per iteration, 80x). */
double solveRatioExact(const CondensedGraph &graph,
                       const std::vector<LayerDims> &dims,
                       PairCostModel model,
                       const std::vector<PartitionType> &types);

/**
 * Pre-refactor hierarchical solve, fully sequential: the per-node
 * (DP, ratio) fixed-point loop exactly as hierarchical_solver.cpp ran
 * it before the kernel rewrite, recursing over the whole bi-partition
 * tree.
 */
PartitionPlan solveHierarchy(const PartitionProblem &problem,
                             const hw::Hierarchy &hierarchy,
                             const SolverOptions &options);

} // namespace accpar::core::legacy

#endif // ACCPAR_TESTS_SUPPORT_LEGACY_DP_H
