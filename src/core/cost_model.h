/**
 * @file
 * The AccPar cost model (paper §4).
 *
 * Costs combine communication (Eq. 7: bytes over the accessing group's
 * link bandwidth) and computation (Eq. 8: the group's ratio share of the
 * layer's FLOPs over its compute density). The communication amounts come
 * from Table 4 (intra-layer, one phase per partition type) and Table 5
 * (inter-layer, nine type-transition patterns); the FLOP counts come from
 * Table 6 with the CONV extension of §4.3.
 *
 * The same class also implements the HyPar-style objective (communication
 * amount as a proxy for performance, no computation term) used by the
 * baseline reimplementation.
 */

#ifndef ACCPAR_CORE_COST_MODEL_H
#define ACCPAR_CORE_COST_MODEL_H

#include <utility>

#include "core/layer_dims.h"
#include "core/partition_type.h"
#include "util/units.h"

namespace accpar::core {

/** What the per-layer scalar cost measures. */
enum class ObjectiveKind
{
    /** Seconds: computation + communication (AccPar). */
    Time,
    /** Transferred elements only, ratio-free (HyPar's proxy). */
    CommAmount,
};

/** How the two sides' costs combine into one scalar for the DP. */
enum class PairReduce
{
    Max, ///< balanced-makespan view (AccPar default)
    Sum, ///< total work view (used with CommAmount)
};

/** One side of a group pair, reduced to the two rates the model needs. */
struct GroupRates
{
    util::FlopsPerSecond compute = 0.0;   ///< c_i (Eq. 8)
    util::BytesPerSecond link = 0.0;      ///< b_i (Eq. 7)
};

/**
 * Cost model configuration.
 *
 * Deprecated as a user-facing surface: kept as the cost-model half of
 * the old SolverOptions/CostModelConfig split so existing callers and
 * tests compile unchanged. New code sets the same knobs on the flat
 * accpar::PlanOptions (core/planner.h).
 */
struct CostModelConfig
{
    ObjectiveKind objective = ObjectiveKind::Time;
    PairReduce reduce = PairReduce::Max;
    /** Ablation switch: drop the computation term of the Time objective. */
    bool includeCompute = true;
    /** bf16 by default (§6.1). */
    double bytesPerElement = 2.0;
};

/** Identifies one side of a pair. */
enum class Side { Left = 0, Right = 1 };

/** The other side. */
constexpr Side
oppositeSide(Side s)
{
    return s == Side::Left ? Side::Right : Side::Left;
}

/**
 * Cost model for one group pair at one hierarchy node. The left side owns
 * partitioning ratio alpha, the right side 1 - alpha.
 */
class PairCostModel
{
  public:
    PairCostModel(const GroupRates &left, const GroupRates &right,
                  const CostModelConfig &config);

    /** Sets the left side's partitioning ratio (in (0, 1)). */
    void setAlpha(double alpha);
    double alpha() const { return _alpha; }

    const CostModelConfig &config() const { return _config; }

    /**
     * Table 4: intra-layer communication amount (elements) of partition
     * type @p t on a layer with dims @p d. Ratio-independent (partial-sum
     * tensors are accumulated locally first). Junctions communicate
     * nothing intra-layer.
     */
    static double intraCommElements(PartitionType t, const LayerDims &d);

    /**
     * Table 5: inter-layer communication amount (elements) paid by the
     * side whose ratio is @p own when the boundary tensor of
     * @p boundary_elems elements (A(F) = A(E)) transitions from type
     * @p from (layer l) to type @p to (layer l+1).
     */
    static double interCommElements(PartitionType from, PartitionType to,
                                    double boundary_elems, double own,
                                    double other);

    /**
     * Table 5 split by training phase: the feature-map conversion
     * (F_{l+1}, paid in the forward pass) and the error conversion
     * (E_{l+1}, paid in the backward pass). Their sum equals
     * interCommElements. Used by the trace generator.
     */
    static std::pair<double, double>
    interCommElementsSplit(PartitionType from, PartitionType to,
                           double boundary_elems, double own,
                           double other);

    /** Ratio share of @p side under the current alpha. */
    double ratio(Side side) const;

    /**
     * Per-side cost of executing one layer in state @p t: the ratio share
     * of the three-phase FLOPs over the side's compute density plus the
     * intra-layer transfer over its link bandwidth (Time objective), or
     * the intra-layer element amount (CommAmount objective).
     */
    double sideNodeCost(Side side, const LayerDims &d, bool junction,
                        PartitionType t) const;

    /** Per-side inter-layer transition cost. */
    double sideTransitionCost(Side side, PartitionType from,
                              PartitionType to,
                              double boundary_elems) const;

    /** Pair-combined node cost (per the configured reduce). */
    double nodeCost(const LayerDims &d, bool junction,
                    PartitionType t) const;

    /** Pair-combined transition cost. */
    double transitionCost(PartitionType from, PartitionType to,
                          double boundary_elems) const;

    /** The compute/link rates of one side (read by RatioCostTables). */
    const GroupRates &rates(Side side) const;

  private:
    double reduce(double left, double right) const;

    GroupRates _left;
    GroupRates _right;
    CostModelConfig _config;
    double _alpha = 0.5;
};

} // namespace accpar::core

#endif // ACCPAR_CORE_COST_MODEL_H
