#include "core/ratio_solver.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace accpar::core {

namespace {

/** Keep ratios strictly inside (0, 1) so no group starves. */
constexpr double kRatioFloor = 1e-4;

double
clampRatio(double alpha)
{
    return std::min(1.0 - kRatioFloor, std::max(kRatioFloor, alpha));
}

} // namespace

const char *
ratioPolicyName(RatioPolicy policy)
{
    switch (policy) {
      case RatioPolicy::Fixed:
        return "fixed-0.5";
      case RatioPolicy::ComputeProportional:
        return "compute-proportional";
      case RatioPolicy::PaperLinear:
        return "paper-linear";
      case RatioPolicy::ExactBalance:
        return "exact-balance";
    }
    throw util::InternalError("unknown RatioPolicy");
}

std::optional<RatioPolicy>
ratioPolicyFromName(const std::string &name)
{
    for (RatioPolicy policy :
         {RatioPolicy::Fixed, RatioPolicy::ComputeProportional,
          RatioPolicy::PaperLinear, RatioPolicy::ExactBalance})
        if (name == ratioPolicyName(policy))
            return policy;
    return std::nullopt;
}

double
sideTotalCost(const CondensedGraph &graph,
              const std::vector<LayerDims> &dims,
              const PairCostModel &model,
              const std::vector<PartitionType> &types, Side side)
{
    ACCPAR_REQUIRE(types.size() == graph.size(),
                   "assignment size mismatch");
    double total = 0.0;
    for (std::size_t v = 0; v < graph.size(); ++v) {
        const CondensedNode &node = graph.node(static_cast<CNodeId>(v));
        total += model.sideNodeCost(side, dims[v], node.junction,
                                    types[v]);
        for (CNodeId u : node.preds) {
            const double boundary = std::min(dims[u].sizeOutput(),
                                             dims[v].sizeInput());
            total += model.sideTransitionCost(side, types[u], types[v],
                                              boundary);
        }
    }
    return total;
}

RatioCostTables::RatioCostTables(const CondensedGraph &graph,
                                 const std::vector<LayerDims> &dims,
                                 const PairCostModel &model,
                                 const std::vector<PartitionType> &types)
{
    ACCPAR_REQUIRE(types.size() == graph.size(),
                   "assignment size mismatch");
    const CostModelConfig &config = model.config();
    _time = config.objective == ObjectiveKind::Time;
    _includeCompute = config.includeCompute;
    _bpe = config.bytesPerElement;
    _link[0] = model.rates(Side::Left).link;
    _link[1] = model.rates(Side::Right).link;
    _compute[0] = model.rates(Side::Left).compute;
    _compute[1] = model.rates(Side::Right).compute;

    // Terms are collected in the exact order sideTotalCost accumulates
    // them (node term, then incoming edges, per node id); terms that
    // are exactly +0.0 for every alpha (junction nodes, the zero cells
    // of Table 5) are dropped — adding +0.0 to a non-negative running
    // sum never changes its bits. Storage is one parallel array per
    // coefficient.
    const std::size_t reserve = graph.size() * 2;
    _kind.reserve(reserve);
    _a.reserve(reserve);
    _aSide0.reserve(reserve);
    _aSide1.reserve(reserve);
    _flops.reserve(reserve);
    auto pushTerm = [&](Kind kind, double a, double aSide0,
                        double aSide1, double flops) {
        _kind.push_back(static_cast<std::uint8_t>(kind));
        _a.push_back(a);
        _aSide0.push_back(aSide0);
        _aSide1.push_back(aSide1);
        _flops.push_back(flops);
    };
    for (std::size_t v = 0; v < graph.size(); ++v) {
        const CondensedNode &node = graph.node(static_cast<CNodeId>(v));
        if (!node.junction) {
            const double intra =
                PairCostModel::intraCommElements(types[v], dims[v]);
            if (_time)
                pushTerm(NodeTime, 0.0, intra * _bpe / _link[0],
                         intra * _bpe / _link[1], dims[v].flopsTotal());
            else
                pushTerm(NodeComm, intra, 0.0, 0.0, 0.0);
        }
        for (CNodeId u : node.preds) {
            const double boundary = std::min(dims[u].sizeOutput(),
                                             dims[v].sizeInput());
            // Classify the (from, to) cell of Table 5 by its shape in
            // (own, other); see interCommElementsSplit.
            const PartitionType from = types[u];
            const PartitionType to = types[v];
            if ((from == PartitionType::TypeI &&
                 to == PartitionType::TypeII) ||
                (from == PartitionType::TypeIII &&
                 to == PartitionType::TypeI)) {
                pushTerm(EdgeBilinear, boundary, 0.0, 0.0, 0.0);
            } else if ((from == PartitionType::TypeI &&
                        to == PartitionType::TypeIII) ||
                       (from == PartitionType::TypeII &&
                        to != PartitionType::TypeIII) ||
                       (from == PartitionType::TypeIII &&
                        to == PartitionType::TypeIII)) {
                pushTerm(EdgeOther, boundary, 0.0, 0.0, 0.0);
            }
            // else: the zero cells of Table 5
        }
    }
}

std::array<double, 2>
RatioCostTables::sideTotals(double alpha) const
{
    // own/other are derived exactly as PairCostModel::ratio does: the
    // right side's own share is 1 - alpha, and its "other" is
    // 1 - (1 - alpha) — NOT alpha, whose bits can differ.
    const double own[2] = {alpha, 1.0 - alpha};
    const double other[2] = {1.0 - own[0], 1.0 - own[1]};

    // Each side's accumulator sees exactly the per-term operation
    // sequence of a one-sided walk; the two never mix.
    double total[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < _kind.size(); ++i) {
        switch (_kind[i]) {
          case NodeComm:
            total[0] += _a[i];
            total[1] += _a[i];
            break;
          case NodeTime: {
            double cost[2] = {_aSide0[i], _aSide1[i]};
            if (_includeCompute)
                for (int s = 0; s < 2; ++s)
                    cost[s] += own[s] * _flops[i] / _compute[s];
            total[0] += cost[0];
            total[1] += cost[1];
            break;
          }
          case EdgeBilinear:
            // Table 5's {own*other*a, own*other*a} pair: the forward
            // and backward phases contribute the same product, summed
            // as x + x like interCommElementsSplit's caller does.
            for (int s = 0; s < 2; ++s) {
                const double x = own[s] * other[s] * _a[i];
                const double elems = x + x;
                total[s] += _time ? elems * _bpe / _link[s] : elems;
            }
            break;
          case EdgeOther:
            for (int s = 0; s < 2; ++s) {
                const double elems = other[s] * _a[i];
                total[s] += _time ? elems * _bpe / _link[s] : elems;
            }
            break;
        }
    }
    return {total[0], total[1]};
}

double
RatioCostTables::sideTotal(Side side, double alpha) const
{
    return sideTotals(alpha)[static_cast<int>(side)];
}

double
solveRatioLinear(const RatioCostTables &tables, double alpha0)
{
    const double beta0 = 1.0 - alpha0;
    const auto [t_left, t_right] = tables.sideTotals(alpha0);

    // Linearization: T_L(a) = a * (T_L(a0) / a0), likewise for the right
    // side in (1 - a). Eq. 10 balance T_L(a) = T_R(1 - a) gives:
    const double k_left = t_left / alpha0;
    const double k_right = t_right / beta0;
    if (k_left + k_right <= 0.0)
        return 0.5;
    return clampRatio(k_right / (k_left + k_right));
}

double
solveRatioLinear(const CondensedGraph &graph,
                 const std::vector<LayerDims> &dims,
                 const PairCostModel &model,
                 const std::vector<PartitionType> &types)
{
    const RatioCostTables tables(graph, dims, model, types);
    return solveRatioLinear(tables, model.alpha());
}

double
solveRatioExact(const RatioCostTables &tables, RatioBracket *bracket)
{
    // T_L grows and T_R shrinks with alpha whenever the computation
    // term is present, so T_L - T_R is monotone increasing and the
    // balanced ratio is its root; max(T_L, T_R) is V-shaped around it.
    // (A ternary search on the max alone drifts to an arbitrary point
    // when communication dominates and the max is nearly flat.)
    auto difference = [&](double alpha) {
        const auto [left, right] = tables.sideTotals(alpha);
        return left - right;
    };

    double lo = kRatioFloor;
    double hi = 1.0 - kRatioFloor;
    if (difference(lo) >= 0.0) {
        if (bracket)
            *bracket = {lo, lo};
        return lo; // the left side is slower even with a minimal share
    }
    if (difference(hi) <= 0.0) {
        if (bracket)
            *bracket = {hi, hi};
        return hi;
    }
    for (int iter = 0; iter < 80; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (difference(mid) <= 0.0)
            lo = mid;
        else
            hi = mid;
    }
    const double alpha = clampRatio(0.5 * (lo + hi));
    if (bracket)
        *bracket = {std::min(lo, alpha), std::max(hi, alpha)};
    return alpha;
}

double
solveRatioExact(const CondensedGraph &graph,
                const std::vector<LayerDims> &dims,
                const PairCostModel &model,
                const std::vector<PartitionType> &types)
{
    const RatioCostTables tables(graph, dims, model, types);
    return solveRatioExact(tables);
}

} // namespace accpar::core
