#include "support/legacy_dp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "util/error.h"

namespace accpar::core::legacy {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** (node, chosen type) pairs accumulated during backtracking. */
using Assignment = std::vector<std::pair<CNodeId, PartitionType>>;

/** Shared context of one DP run. */
struct DpContext
{
    const CondensedGraph &graph;
    const std::vector<LayerDims> &dims;
    const PairCostModel &model;
    const TypeRestrictions &allowed;

    double
    boundaryElems(CNodeId producer, CNodeId consumer) const
    {
        return std::min(dims[producer].sizeOutput(),
                        dims[consumer].sizeInput());
    }

    double
    nodeCost(CNodeId node, PartitionType t) const
    {
        const CondensedNode &n = graph.node(node);
        return model.nodeCost(dims[node], n.junction, t);
    }

    double
    transitionCost(PartitionType from, PartitionType to,
                   CNodeId producer, CNodeId consumer) const
    {
        return model.transitionCost(from, to,
                                    boundaryElems(producer, consumer));
    }
};

/** DP state per element: best cost and assignment per partition type. */
struct StateRow
{
    std::array<double, kPartitionTypeCount> cost;
    std::array<Assignment, kPartitionTypeCount> assign;

    StateRow() { cost.fill(kInf); }
};

StateRow solveChainStates(const DpContext &ctx, const Chain &chain,
                          std::optional<PartitionType> entry,
                          CNodeId entry_node);

std::pair<double, Assignment>
parallelTransition(const DpContext &ctx, const Element &element,
                   CNodeId fork, PartitionType tt, PartitionType t)
{
    double total = 0.0;
    Assignment inner;
    for (const Chain &path : element.paths) {
        if (path.elements.empty()) {
            total += ctx.transitionCost(tt, t, fork, element.node);
            continue;
        }
        const StateRow states = solveChainStates(ctx, path, tt, fork);
        const CNodeId last = path.elements.back().node;
        double best = kInf;
        int best_s = -1;
        for (PartitionType s : ctx.allowed[last]) {
            const int si = partitionTypeIndex(s);
            if (states.cost[si] == kInf)
                continue;
            const double cand =
                states.cost[si] +
                ctx.transitionCost(s, t, last, element.node);
            if (cand < best) {
                best = cand;
                best_s = si;
            }
        }
        ACCPAR_ASSERT(best_s >= 0, "parallel path has no feasible state");
        total += best;
        inner.insert(inner.end(), states.assign[best_s].begin(),
                     states.assign[best_s].end());
    }
    return {total, std::move(inner)};
}

StateRow
solveChainStates(const DpContext &ctx, const Chain &chain,
                 std::optional<PartitionType> entry, CNodeId entry_node)
{
    ACCPAR_ASSERT(!chain.elements.empty(), "empty chain in DP");

    StateRow cur;
    bool first = true;
    for (const Element &element : chain.elements) {
        const CNodeId node = element.node;
        ACCPAR_ASSERT(!ctx.allowed[node].empty(),
                      "node " << ctx.graph.node(node).name
                              << " has no allowed types");
        StateRow next;

        if (first) {
            ACCPAR_ASSERT(!element.isParallel(),
                          "a chain cannot start with a parallel element");
            for (PartitionType t : ctx.allowed[node]) {
                const int ti = partitionTypeIndex(t);
                double cost = ctx.nodeCost(node, t);
                if (entry)
                    cost +=
                        ctx.transitionCost(*entry, t, entry_node, node);
                next.cost[ti] = cost;
                next.assign[ti] = {{node, t}};
            }
            first = false;
            cur = std::move(next);
            continue;
        }

        const Element &prev_element =
            chain.elements[static_cast<std::size_t>(
                &element - chain.elements.data()) - 1];
        const CNodeId prev = prev_element.node;

        for (PartitionType t : ctx.allowed[node]) {
            const int ti = partitionTypeIndex(t);
            const double node_cost = ctx.nodeCost(node, t);
            double best = kInf;
            int best_tt = -1;
            Assignment best_inner;
            for (PartitionType tt : ctx.allowed[prev]) {
                const int tti = partitionTypeIndex(tt);
                if (cur.cost[tti] == kInf)
                    continue;
                double trans;
                Assignment inner;
                if (element.isParallel()) {
                    std::tie(trans, inner) =
                        parallelTransition(ctx, element, prev, tt, t);
                } else {
                    trans = ctx.transitionCost(tt, t, prev, node);
                }
                const double cand = cur.cost[tti] + trans + node_cost;
                if (cand < best) {
                    best = cand;
                    best_tt = tti;
                    best_inner = std::move(inner);
                }
            }
            if (best_tt < 0)
                continue;
            next.cost[ti] = best;
            next.assign[ti] = cur.assign[best_tt];
            next.assign[ti].insert(next.assign[ti].end(),
                                   best_inner.begin(), best_inner.end());
            next.assign[ti].emplace_back(node, t);
        }
        cur = std::move(next);
    }
    return cur;
}

/** Keep ratios strictly inside (0, 1) so no group starves. */
constexpr double kRatioFloor = 1e-4;

double
clampRatio(double alpha)
{
    return std::min(1.0 - kRatioFloor, std::max(kRatioFloor, alpha));
}

} // namespace

ChainDpResult
solveChainDp(const CondensedGraph &graph, const Chain &chain,
             const std::vector<LayerDims> &dims,
             const PairCostModel &model, const TypeRestrictions &allowed)
{
    ACCPAR_REQUIRE(dims.size() == graph.size(),
                   "dims size mismatch: " << dims.size() << " vs "
                                          << graph.size());
    ACCPAR_REQUIRE(allowed.size() == graph.size(),
                   "type restriction size mismatch");

    const DpContext ctx{graph, dims, model, allowed};
    const StateRow states =
        solveChainStates(ctx, chain, std::nullopt, -1);

    const CNodeId last = chain.elements.back().node;
    double best = kInf;
    int best_t = -1;
    for (PartitionType t : ctx.allowed[last]) {
        const int ti = partitionTypeIndex(t);
        if (states.cost[ti] < best) {
            best = states.cost[ti];
            best_t = ti;
        }
    }
    ACCPAR_ASSERT(best_t >= 0, "DP found no feasible assignment");

    ChainDpResult result;
    result.cost = best;
    result.types.assign(graph.size(), PartitionType::TypeI);
    std::vector<bool> set(graph.size(), false);
    for (const auto &[node, type] : states.assign[best_t]) {
        result.types[node] = type;
        set[node] = true;
    }
    for (std::size_t i = 0; i < graph.size(); ++i)
        ACCPAR_ASSERT(set[i], "DP left node " << graph.node(
                                     static_cast<CNodeId>(i))
                                     .name << " unassigned");
    return result;
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

double
solveRatioLinear(const CondensedGraph &graph,
                 const std::vector<LayerDims> &dims,
                 const PairCostModel &model,
                 const std::vector<PartitionType> &types)
{
    const double alpha0 = model.alpha();
    const double beta0 = 1.0 - alpha0;
    const double t_left =
        legacy::sideTotalCost(graph, dims, model, types, Side::Left);
    const double t_right =
        legacy::sideTotalCost(graph, dims, model, types, Side::Right);

    const double k_left = t_left / alpha0;
    const double k_right = t_right / beta0;
    if (k_left + k_right <= 0.0)
        return 0.5;
    return clampRatio(k_right / (k_left + k_right));
}

double
solveRatioExact(const CondensedGraph &graph,
                const std::vector<LayerDims> &dims, PairCostModel model,
                const std::vector<PartitionType> &types)
{
    auto difference = [&](double alpha) {
        model.setAlpha(alpha);
        return legacy::sideTotalCost(graph, dims, model, types, Side::Left) -
               legacy::sideTotalCost(graph, dims, model, types, Side::Right);
    };

    double lo = kRatioFloor;
    double hi = 1.0 - kRatioFloor;
    const double f_lo = difference(lo);
    const double f_hi = difference(hi);
    if (f_lo >= 0.0)
        return lo;
    if (f_hi <= 0.0)
        return hi;
    for (int iter = 0; iter < 80; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (difference(mid) <= 0.0)
            lo = mid;
        else
            hi = mid;
    }
    return clampRatio(0.5 * (lo + hi));
}

namespace {

TypeRestrictions
buildRestrictions(const CondensedGraph &graph,
                  const AllowedTypesFn &allowed)
{
    if (!allowed)
        return unrestrictedTypes(graph);
    TypeRestrictions out(graph.size());
    for (std::size_t i = 0; i < graph.size(); ++i) {
        out[i] = allowed(graph.node(static_cast<CNodeId>(i)));
        ACCPAR_REQUIRE(!out[i].empty(),
                       "allowedTypes returned an empty set for node "
                           << graph.node(static_cast<CNodeId>(i)).name);
    }
    return out;
}

double
initialAlpha(RatioPolicy policy, const GroupRates &left,
             const GroupRates &right)
{
    switch (policy) {
      case RatioPolicy::Fixed:
        return 0.5;
      case RatioPolicy::ComputeProportional:
      case RatioPolicy::PaperLinear:
      case RatioPolicy::ExactBalance:
        return left.compute / (left.compute + right.compute);
    }
    throw util::InternalError("unknown RatioPolicy");
}

/** Recursive solver state, sequential clone of the pre-kernel loop. */
struct LegacyHierSolver
{
    const PartitionProblem &problem;
    const hw::Hierarchy &hierarchy;
    const SolverOptions &options;
    const TypeRestrictions restrictions;
    PartitionPlan plan;

    LegacyHierSolver(const PartitionProblem &p, const hw::Hierarchy &h,
                     const SolverOptions &o)
        : problem(p),
          hierarchy(h),
          options(o),
          restrictions(buildRestrictions(p.condensed(), o.allowedTypes)),
          plan(o.strategyName, p.condensed().modelName(), h.nodeCount(),
               p.nodeNames())
    {
    }

    TypeRestrictions
    effectiveRestrictions(const std::vector<LayerDims> &dims,
                          double alpha) const
    {
        if (options.minDimPerSide <= 0.0)
            return restrictions;
        const CondensedGraph &graph = problem.condensed();
        const double min_share = std::min(alpha, 1.0 - alpha);
        TypeRestrictions out(restrictions.size());
        for (std::size_t v = 0; v < restrictions.size(); ++v) {
            const CondensedNode &node =
                graph.node(static_cast<CNodeId>(v));
            for (PartitionType t : restrictions[v]) {
                if (typeFeasible(dims[v], node.junction, t, min_share,
                                 options.minDimPerSide))
                    out[v].push_back(t);
            }
            if (out[v].empty()) {
                PartitionType best = restrictions[v].front();
                double best_dim = -1.0;
                for (PartitionType t : restrictions[v]) {
                    const double dim =
                        t == PartitionType::TypeI
                            ? dims[v].b
                            : (t == PartitionType::TypeII
                                   ? dims[v].di
                                   : (node.junction ? dims[v].di
                                                    : dims[v].dOut));
                    if (dim > best_dim) {
                        best_dim = dim;
                        best = t;
                    }
                }
                out[v].push_back(best);
            }
        }
        return out;
    }

    void
    solveNode(hw::NodeId id, const std::vector<DimScales> &scales)
    {
        const hw::HierarchyNode &hn = hierarchy.node(id);
        if (hn.isLeaf())
            return;

        const hw::AcceleratorGroup &left_group =
            hierarchy.node(hn.left).group;
        const hw::AcceleratorGroup &right_group =
            hierarchy.node(hn.right).group;
        const GroupRates left{left_group.computeDensity(),
                              left_group.linkBandwidth()};
        const GroupRates right{right_group.computeDensity(),
                               right_group.linkBandwidth()};

        PairCostModel model(left, right, options.cost);
        double alpha = initialAlpha(options.ratioPolicy, left, right);
        model.setAlpha(alpha);

        const std::vector<LayerDims> dims = scaledDims(problem, scales);
        const CondensedGraph &graph = problem.condensed();

        // Explicitly legacy:: — the enclosing accpar::core namespace
        // exports same-named refactored functions, so unqualified
        // calls would be ambiguous (and must not silently bind to the
        // code under test anyway).
        ChainDpResult result =
            legacy::solveChainDp(graph, problem.chain(), dims, model,
                                 effectiveRestrictions(dims, alpha));
        const bool adaptive =
            options.ratioPolicy == RatioPolicy::PaperLinear ||
            options.ratioPolicy == RatioPolicy::ExactBalance;
        if (adaptive) {
            for (int iter = 0; iter < options.ratioIterations; ++iter) {
                double next;
                if (options.ratioPolicy == RatioPolicy::PaperLinear) {
                    next = legacy::solveRatioLinear(graph, dims, model,
                                                    result.types);
                } else {
                    next = legacy::solveRatioExact(graph, dims, model,
                                                   result.types);
                }
                if (std::abs(next - alpha) < 1e-9)
                    break;
                alpha = next;
                model.setAlpha(alpha);
                result = legacy::solveChainDp(
                    graph, problem.chain(), dims, model,
                    effectiveRestrictions(dims, alpha));
            }
        }

        NodePlan node_plan;
        node_plan.alpha = alpha;
        node_plan.types = result.types;
        node_plan.cost = result.cost;
        plan.setNodePlan(id, std::move(node_plan));

        std::vector<DimScales> left_scales(scales);
        std::vector<DimScales> right_scales(scales);
        for (std::size_t v = 0; v < graph.size(); ++v) {
            const bool junction =
                graph.node(static_cast<CNodeId>(v)).junction;
            const PartitionType t = result.types[v];
            left_scales[v] = childScales(scales[v], junction, t, alpha);
            right_scales[v] =
                childScales(scales[v], junction, t, 1.0 - alpha);
        }
        solveNode(hn.left, left_scales);
        solveNode(hn.right, right_scales);
    }
};

} // namespace

PartitionPlan
solveHierarchy(const PartitionProblem &problem,
               const hw::Hierarchy &hierarchy,
               const SolverOptions &options)
{
    LegacyHierSolver solver(problem, hierarchy, options);
    const std::vector<DimScales> unit(problem.condensed().size());
    solver.solveNode(hierarchy.root(), unit);
    return std::move(solver.plan);
}

} // namespace accpar::core::legacy
