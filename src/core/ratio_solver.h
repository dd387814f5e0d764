/**
 * @file
 * Partitioning-ratio solving (paper §5.3).
 *
 * AccPar balances the sum of computation and communication cost between
 * the two groups of a pair by solving Eq. 10 for the ratio alpha. The
 * paper treats both cost terms as linear in alpha; we implement that
 * linearized rebalance step (RatioPolicy::PaperLinear, iterated to a fixed
 * point by the hierarchical solver) plus an exact numeric balance on the
 * true piecewise cost as an ablation (RatioPolicy::ExactBalance).
 */

#ifndef ACCPAR_CORE_RATIO_SOLVER_H
#define ACCPAR_CORE_RATIO_SOLVER_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/chain_dp.h"
#include "core/condensed_graph.h"
#include "core/cost_model.h"

namespace accpar::core {

/** How the partitioning ratio of a group pair is chosen. */
enum class RatioPolicy
{
    /** Always 0.5 (DP, OWT, HyPar: equal partitioning). */
    Fixed,
    /** alpha = c_L / (c_L + c_R); compute-only heuristic. */
    ComputeProportional,
    /** Eq. 10 linearized rebalance, iterated with the DP (AccPar). */
    PaperLinear,
    /** Ternary search on the exact max(T_L, T_R) (ablation). */
    ExactBalance,
};

/** Short name for reports. */
const char *ratioPolicyName(RatioPolicy policy);

/** Inverse of ratioPolicyName; nullopt for unknown tags. */
std::optional<RatioPolicy> ratioPolicyFromName(const std::string &name);

/** The final bisection interval of solveRatioExact: the solver's own
 *  evidence that the returned alpha balances the two sides. Degenerate
 *  ([x, x]) when an endpoint wins outright. */
struct RatioBracket
{
    double lo = 0.0;
    double hi = 1.0;
};

/**
 * Total cost of one side for a fixed type assignment under @p model's
 * current ratio: sum of per-node and per-edge side costs. This is the
 * definitional graph walk; RatioCostTables evaluates the same sum from
 * precomputed coefficients.
 */
double sideTotalCost(const CondensedGraph &graph,
                     const std::vector<LayerDims> &dims,
                     const PairCostModel &model,
                     const std::vector<PartitionType> &types, Side side);

/**
 * Alpha-independent coefficients of T_side(alpha) for one fixed type
 * assignment, so each ratio-solver evaluation is a flat pass over a
 * term array instead of a graph walk through the cost model.
 *
 * Every Table 4/5 cost term is linear (or bilinear in alpha(1-alpha))
 * in the ratio with a coefficient that does not depend on it; the
 * constructor extracts those coefficients once (dropping the terms
 * Table 5 makes exactly zero), and sideTotals() replays the remaining
 * terms with the original operation and accumulation order. Keeping
 * the per-term order — rather than folding everything into one
 * aggregate slope — is what makes the result bit-identical with
 * sideTotalCost, so the bisection of solveRatioExact takes exactly the
 * same branch at every step and plans stay byte-identical.
 *
 * The terms are stored structure-of-arrays (one parallel array per
 * coefficient, DESIGN.md §17) and walked by one scalar loop that
 * advances both sides' accumulators term by term.
 */
class RatioCostTables
{
  public:
    RatioCostTables(const CondensedGraph &graph,
                    const std::vector<LayerDims> &dims,
                    const PairCostModel &model,
                    const std::vector<PartitionType> &types);

    /** {T_left(alpha), T_right(alpha)} in one pass over the terms;
     *  each side is bit-identical with sideTotalCost under a model
     *  whose ratio is @p alpha. */
    std::array<double, 2> sideTotals(double alpha) const;

    /** T_side(alpha): the @p side entry of sideTotals(). */
    double sideTotal(Side side, double alpha) const;

  private:
    /** Term kinds, one per accumulation case of sideTotalCost. */
    enum Kind : std::uint8_t
    {
        NodeComm = 0,     ///< communication objective node term
        NodeTime = 1,     ///< time objective node term
        EdgeBilinear = 2, ///< own*other*a edge term (twin phases)
        EdgeOther = 3,    ///< other*a edge term (single phase)
    };

    /** Structure-of-arrays term storage; coefficient arrays are
     *  parallel to _kind (unused coefficients hold 0.0 for their
     *  kind). */
    std::vector<std::uint8_t> _kind;
    std::vector<double> _a;      ///< elems / boundary coefficient
    std::vector<double> _aSide0; ///< NodeTime: left intra bytes / link
    std::vector<double> _aSide1; ///< NodeTime: right intra bytes / link
    std::vector<double> _flops;  ///< NodeTime: three-phase FLOPs

    bool _time = true;
    bool _includeCompute = true;
    double _bpe = 2.0;
    double _link[2] = {0.0, 0.0};
    double _compute[2] = {0.0, 0.0};
};

/**
 * One linearized rebalance step (Eq. 10): assuming T_side(alpha) is
 * proportional to the side's ratio, returns the alpha that equalizes
 * the two sides' totals, linearized around @p alpha0. Result is
 * clamped to (0, 1).
 */
double solveRatioLinear(const RatioCostTables &tables, double alpha0);

/** Convenience wrapper building the tables from @p model (linearized
 *  around the model's current ratio). */
double solveRatioLinear(const CondensedGraph &graph,
                        const std::vector<LayerDims> &dims,
                        const PairCostModel &model,
                        const std::vector<PartitionType> &types);

/**
 * Exact balance: 80-step bisection for the alpha equalizing T_L(alpha)
 * and T_R(alpha) over the precomputed coefficient tables, one
 * two-sided term pass per step. Reports the final bisection interval
 * into @p bracket when non-null (for plan certificates).
 */
double solveRatioExact(const RatioCostTables &tables,
                       RatioBracket *bracket = nullptr);

/** Convenience wrapper building the tables from @p model (whose own
 *  ratio does not influence the result). */
double solveRatioExact(const CondensedGraph &graph,
                       const std::vector<LayerDims> &dims,
                       const PairCostModel &model,
                       const std::vector<PartitionType> &types);

} // namespace accpar::core

#endif // ACCPAR_CORE_RATIO_SOLVER_H
