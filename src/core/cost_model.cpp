#include "core/cost_model.h"

#include <algorithm>

#include "util/error.h"

namespace accpar::core {

PairCostModel::PairCostModel(const GroupRates &left, const GroupRates &right,
                             const CostModelConfig &config)
    : _left(left), _right(right), _config(config)
{
    if (_config.objective == ObjectiveKind::Time) {
        ACCPAR_REQUIRE(_left.link > 0.0 && _right.link > 0.0,
                       "time objective needs positive link bandwidths");
        ACCPAR_REQUIRE(!_config.includeCompute ||
                           (_left.compute > 0.0 && _right.compute > 0.0),
                       "time objective needs positive compute densities");
    }
    ACCPAR_REQUIRE(_config.bytesPerElement > 0.0,
                   "bytesPerElement must be positive");
}

void
PairCostModel::setAlpha(double alpha)
{
    ACCPAR_REQUIRE(alpha > 0.0 && alpha < 1.0,
                   "partitioning ratio must be in (0, 1), got " << alpha);
    _alpha = alpha;
}

double
PairCostModel::intraCommElements(PartitionType t, const LayerDims &d)
{
    // Table 4. The transferred tensor is the partial-sum (or replicated)
    // tensor of the one phase that cannot complete locally:
    //   Type-I   -> gradient phase  -> A(W_l)
    //   Type-II  -> forward phase   -> A(F_{l+1})
    //   Type-III -> backward phase  -> A(E_l)
    switch (t) {
      case PartitionType::TypeI:
        return d.sizeWeight();
      case PartitionType::TypeII:
        return d.sizeOutput();
      case PartitionType::TypeIII:
        return d.sizeInput();
    }
    throw util::InternalError("unknown PartitionType");
}

double
PairCostModel::interCommElements(PartitionType from, PartitionType to,
                                 double boundary_elems, double own,
                                 double other)
{
    const auto [f, e] =
        interCommElementsSplit(from, to, boundary_elems, own, other);
    return f + e;
}

std::pair<double, double>
PairCostModel::interCommElementsSplit(PartitionType from, PartitionType to,
                                      double boundary_elems, double own,
                                      double other)
{
    // Table 5, with A(F_{l+1}) == A(E_{l+1}) == boundary_elems. Entries
    // with a beta factor mean "fetch the fraction the other side holds";
    // entries with alpha*beta re-partition the tensor between disjoint
    // dimensions. The F component converts in the forward pass, the E
    // component in the backward pass (§4.1.2).
    const double a = boundary_elems;
    switch (from) {
      case PartitionType::TypeI:
        switch (to) {
          case PartitionType::TypeI:
            return {0.0, 0.0};
          case PartitionType::TypeII:
            return {own * other * a, own * other * a};
          case PartitionType::TypeIII:
            return {other * a, 0.0};
        }
        break;
      case PartitionType::TypeII:
        switch (to) {
          case PartitionType::TypeI:
          case PartitionType::TypeII:
            return {0.0, other * a};
          case PartitionType::TypeIII:
            return {0.0, 0.0};
        }
        break;
      case PartitionType::TypeIII:
        switch (to) {
          case PartitionType::TypeI:
            return {own * other * a, own * other * a};
          case PartitionType::TypeII:
            return {0.0, 0.0};
          case PartitionType::TypeIII:
            return {other * a, 0.0};
        }
        break;
    }
    throw util::InternalError("unknown PartitionType pair");
}

double
PairCostModel::ratio(Side side) const
{
    return side == Side::Left ? _alpha : 1.0 - _alpha;
}

const GroupRates &
PairCostModel::rates(Side side) const
{
    return side == Side::Left ? _left : _right;
}

double
PairCostModel::reduce(double left, double right) const
{
    return _config.reduce == PairReduce::Max ? std::max(left, right)
                                             : left + right;
}

double
PairCostModel::sideNodeCost(Side side, const LayerDims &d, bool junction,
                            PartitionType t) const
{
    if (junction) {
        // Junctions (element-wise joins) have no weights, no partial
        // sums, and negligible compute; the model charges them nothing.
        return 0.0;
    }
    const double intra_elems = intraCommElements(t, d);
    if (_config.objective == ObjectiveKind::CommAmount)
        return intra_elems;

    const GroupRates &r = rates(side);
    double cost =
        intra_elems * _config.bytesPerElement / r.link;
    if (_config.includeCompute)
        cost += ratio(side) * d.flopsTotal() / r.compute;
    return cost;
}

double
PairCostModel::sideTransitionCost(Side side, PartitionType from,
                                  PartitionType to,
                                  double boundary_elems) const
{
    const double own = ratio(side);
    const double elems =
        interCommElements(from, to, boundary_elems, own, 1.0 - own);
    if (_config.objective == ObjectiveKind::CommAmount)
        return elems;
    return elems * _config.bytesPerElement / rates(side).link;
}

double
PairCostModel::nodeCost(const LayerDims &d, bool junction,
                        PartitionType t) const
{
    return reduce(sideNodeCost(Side::Left, d, junction, t),
                  sideNodeCost(Side::Right, d, junction, t));
}

double
PairCostModel::transitionCost(PartitionType from, PartitionType to,
                              double boundary_elems) const
{
    return reduce(sideTransitionCost(Side::Left, from, to, boundary_elems),
                  sideTransitionCost(Side::Right, from, to,
                                     boundary_elems));
}

} // namespace accpar::core
