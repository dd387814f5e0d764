#include "core/hierarchical_solver.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "core/certificate.h"
#include "core/dp_kernel.h"
#include "core/sp_solver.h"
#include "util/error.h"
#include "util/logging.h"

namespace accpar::core {

PartitionProblem::PartitionProblem(const graph::Graph &model)
    : _condensed(model)
{
    // Structural classification: models the legacy chain decomposition
    // recognizes keep the frozen DP-kernel path (plans stay
    // byte-identical to tests/support/legacy_dp); every other graph —
    // SP shapes the chain view cannot express as well as genuinely
    // non-SP graphs — gets the general decomposition tree for the
    // SP-tree solver.
    try {
        _chain = decomposeSeriesParallel(_condensed);
        _hasChain = true;
    } catch (const util::Error &) {
        std::vector<std::vector<int>> succs(_condensed.size());
        for (std::size_t v = 0; v < _condensed.size(); ++v) {
            for (CNodeId p : _condensed.node(static_cast<CNodeId>(v)).preds)
                succs[p].push_back(static_cast<int>(v));
        }
        _spTree = graph::decomposeSpTree(succs);
    }
    if (_hasChain)
        _dpStructure = std::make_unique<DpStructure>(_condensed, _chain);
    _baseDims.reserve(_condensed.size());
    for (const CondensedNode &node : _condensed.nodes())
        _baseDims.push_back(node.dims);
}

PartitionProblem::~PartitionProblem() = default;

const DpStructure &
PartitionProblem::dpStructure() const
{
    ACCPAR_REQUIRE(_hasChain,
                   "model " << _condensed.modelName()
                            << " is not chain-decomposable; it has no "
                               "compiled DP structure");
    return *_dpStructure;
}

const Chain &
PartitionProblem::chain() const
{
    ACCPAR_REQUIRE(_hasChain,
                   "model " << _condensed.modelName()
                            << " is not chain-decomposable; this "
                               "problem uses the general SP tree");
    return _chain;
}

const graph::SpTree &
PartitionProblem::spTree() const
{
    ACCPAR_REQUIRE(!_hasChain,
                   "model " << _condensed.modelName()
                            << " is chain-decomposable; the SP tree "
                               "is not built for chain-mode problems");
    return _spTree;
}

std::vector<std::string>
PartitionProblem::nodeNames() const
{
    std::vector<std::string> names;
    names.reserve(_condensed.size());
    for (const CondensedNode &node : _condensed.nodes())
        names.push_back(node.name);
    return names;
}

DimScales
childScales(const DimScales &scales, bool junction, PartitionType type,
            double ratio)
{
    ACCPAR_REQUIRE(ratio > 0.0 && ratio < 1.0,
                   "child ratio must be in (0, 1), got " << ratio);
    DimScales out = scales;
    if (junction) {
        // A junction holds one tensor: batch plus a single channel
        // dimension, so Type-II and Type-III scale the same dim.
        if (type == PartitionType::TypeI) {
            out.b *= ratio;
        } else {
            out.di *= ratio;
            out.dOut *= ratio;
        }
        return out;
    }
    switch (type) {
      case PartitionType::TypeI:
        out.b *= ratio;
        break;
      case PartitionType::TypeII:
        out.di *= ratio;
        break;
      case PartitionType::TypeIII:
        out.dOut *= ratio;
        break;
    }
    return out;
}

std::vector<LayerDims>
scaledDims(const PartitionProblem &problem,
           const std::vector<DimScales> &scales)
{
    const CondensedGraph &graph = problem.condensed();
    ACCPAR_REQUIRE(scales.size() == graph.size(),
                   "scales size mismatch: " << scales.size() << " vs "
                                            << graph.size());
    std::vector<LayerDims> dims;
    dims.reserve(graph.size());
    for (std::size_t i = 0; i < graph.size(); ++i) {
        dims.push_back(problem.baseDims()[i].scaled(
            scales[i].b, scales[i].di, scales[i].dOut));
    }
    return dims;
}

bool
typeFeasible(const LayerDims &dims, bool junction, PartitionType t,
             double min_share, double min_dim)
{
    // Batch partitioning (Type-I) tolerates per-board rounding — an
    // uneven tail sample merely idles part of one board — so it is
    // always feasible. Channel partitioning below one channel per side
    // is structurally impossible for a kernel-wise trace, hence the
    // granularity floor applies to Type-II/III only.
    double dim;
    switch (t) {
      case PartitionType::TypeI:
        return true;
      case PartitionType::TypeII:
        dim = dims.di;
        break;
      case PartitionType::TypeIII:
        dim = junction ? dims.di : dims.dOut;
        break;
      default:
        throw util::InternalError("unknown PartitionType");
    }
    return dim * min_share >= min_dim;
}

namespace {

/** Bit-for-bit equality: the twin test must not merge values that
 *  compare equal but differ in bits (0.0 and -0.0). */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

bool
sameBits(const GroupRates &a, const GroupRates &b)
{
    return sameBits(a.compute, b.compute) && sameBits(a.link, b.link);
}

bool
sameBits(const std::vector<DimScales> &a, const std::vector<DimScales> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const DimScales &x, const DimScales &y) {
                          return sameBits(x.b, y.b) &&
                                 sameBits(x.di, y.di) &&
                                 sameBits(x.dOut, y.dOut);
                      });
}

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

/** Recursive solver state shared across hierarchy nodes. */
struct HierSolver
{
    const PartitionProblem &problem;
    const hw::Hierarchy &hierarchy;
    const SolverOptions &options;
    const SolveContext &context;
    const TypeRestrictions restrictions;
    PartitionPlan plan;

    HierSolver(const PartitionProblem &p, const hw::Hierarchy &h,
               const SolverOptions &o, const SolveContext &c)
        : problem(p),
          hierarchy(h),
          options(o),
          context(c),
          restrictions(buildRestrictions(p.condensed(), o.allowedTypes)),
          plan(o.strategyName, p.condensed().modelName(), h.nodeCount(),
               p.nodeNames())
    {
    }

    /**
     * Intersects the strategy's allowed types with the integer-
     * granularity feasibility at the current dims and ratio; falls back
     * to the largest-dimension allowed type when nothing is feasible.
     */
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
                // Nothing splits cleanly; keep the type whose dimension
                // is largest so the distortion is smallest.
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

    GroupRates
    rates(hw::NodeId id) const
    {
        const hw::AcceleratorGroup &group = hierarchy.node(id).group;
        return {group.computeDensity(), group.linkBandwidth()};
    }

    /**
     * True when the subtrees under @p a and @p b have the same shape
     * and every pair of matching internal nodes splits into child
     * groups with bit-equal rates: given bit-equal scales at @p a and
     * @p b, every matching node then solves the same DP.
     */
    bool
    rateIdentical(hw::NodeId a, hw::NodeId b) const
    {
        const hw::HierarchyNode &na = hierarchy.node(a);
        const hw::HierarchyNode &nb = hierarchy.node(b);
        if (na.isLeaf() || nb.isLeaf())
            return na.isLeaf() && nb.isLeaf();
        return sameBits(rates(na.left), rates(nb.left)) &&
               sameBits(rates(na.right), rates(nb.right)) &&
               rateIdentical(na.left, nb.left) &&
               rateIdentical(na.right, nb.right);
    }

    /** Copies the decisions (and certificates) of the subtree under
     *  @p from into the matching slots of its twin under @p to. */
    void
    copySubtree(hw::NodeId from, hw::NodeId to)
    {
        const hw::HierarchyNode &src = hierarchy.node(from);
        if (src.isLeaf())
            return;
        plan.setNodePlan(to, plan.nodePlan(from));
        if (context.certificate)
            context.certificate->setNodeCertificate(
                to, context.certificate->nodeCertificate(from));
        const hw::HierarchyNode &dst = hierarchy.node(to);
        copySubtree(src.left, dst.left);
        copySubtree(src.right, dst.right);
    }

    /** Solves the subtree under @p id; returns how many of its nodes
     *  ran the DP (the rest were copied from a twin). */
    int
    solveNode(hw::NodeId id, const std::vector<DimScales> &scales)
    {
        const hw::HierarchyNode &hn = hierarchy.node(id);
        if (hn.isLeaf())
            return 0;

        const GroupRates left = rates(hn.left);
        const GroupRates right = rates(hn.right);

        PairCostModel model(left, right, options.cost);
        double alpha = initialAlpha(options.ratioPolicy, left, right);
        model.setAlpha(alpha);

        const std::vector<LayerDims> dims = scaledDims(problem, scales);
        const CondensedGraph &graph = problem.condensed();

        // One compiled search per hierarchy node: the decomposition
        // structure is fixed across the adaptive-ratio iterations, so
        // only the cost tables are refilled per alpha. Chain-mode
        // problems keep the frozen DP kernel; everything else runs
        // the SP-tree solver over the same cost entry points.
        const bool emit = context.certificate != nullptr;
        std::vector<double> alpha_history;
        if (emit)
            alpha_history.push_back(alpha);
        std::optional<DpKernel> kernel;
        std::optional<SpSolver> spSolver;
        if (problem.hasChain())
            kernel.emplace(problem.dpStructure(), dims);
        else
            spSolver.emplace(graph, problem.spTree(), dims);
        const auto solveOnce = [&](const TypeRestrictions &types) {
            return kernel ? kernel->solve(model, types)
                          : spSolver->solve(model, types);
        };
        TypeRestrictions allowed = effectiveRestrictions(dims, alpha);
        ChainDpResult result = solveOnce(allowed);
        RatioBracket bracket{alpha, alpha};
        const bool adaptive =
            options.ratioPolicy == RatioPolicy::PaperLinear ||
            options.ratioPolicy == RatioPolicy::ExactBalance;
        if (adaptive) {
            for (int iter = 0; iter < options.ratioIterations; ++iter) {
                const RatioCostTables tables(graph, dims, model,
                                             result.types);
                const double next =
                    options.ratioPolicy == RatioPolicy::PaperLinear
                        ? solveRatioLinear(tables, model.alpha())
                        : solveRatioExact(tables,
                                          emit ? &bracket : nullptr);
                if (std::abs(next - alpha) < 1e-9)
                    break;
                alpha = next;
                if (emit)
                    alpha_history.push_back(alpha);
                model.setAlpha(alpha);
                allowed = effectiveRestrictions(dims, alpha);
                result = solveOnce(allowed);
            }
        }

        ACCPAR_DEBUG("hier node " << id << " alpha=" << alpha << " cost="
                                  << result.cost << " types="
                                  << formatTypeSequence(result.types));

        NodePlan node_plan;
        node_plan.alpha = alpha;
        node_plan.types = result.types;
        node_plan.cost = result.cost;
        plan.setNodePlan(id, std::move(node_plan));

        if (emit) {
            NodeCertificate cert;
            cert.alpha = alpha;
            if (options.ratioPolicy == RatioPolicy::ExactBalance) {
                // The loop may converge without accepting the last
                // iterate, leaving alpha up to the convergence epsilon
                // outside the final bisection interval; widen so the
                // recorded bracket always contains the recorded alpha.
                cert.alphaLo = std::min(bracket.lo, alpha);
                cert.alphaHi = std::max(bracket.hi, alpha);
            } else {
                cert.alphaLo = alpha;
                cert.alphaHi = alpha;
            }
            cert.alphaHistory = std::move(alpha_history);
            cert.cost = result.cost;
            cert.types = result.types;
            kernel->extractCertificate(allowed, cert);
            context.certificate->setNodeCertificate(id,
                                                    std::move(cert));
        }

        // Recurse with scaled dims: the left child sees alpha's share of
        // each partitioned dimension, the right child the remainder.
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

        const bool both_internal = !hierarchy.node(hn.left).isLeaf() &&
                                   !hierarchy.node(hn.right).isLeaf();

        // Twin subtrees: a node's result depends only on its children's
        // rates and its scales, so bit-equal scales over rate-identical
        // subtrees give bit-equal plans node for node. Solve the left
        // one and copy it (DESIGN.md §11).
        if (both_internal && sameBits(left_scales, right_scales) &&
            rateIdentical(hn.left, hn.right)) {
            const int solved = solveNode(hn.left, left_scales);
            copySubtree(hn.left, hn.right);
            return 1 + solved;
        }

        // The two subtrees depend only on this node's decision, and
        // every hierarchy node owns a distinct plan slot, so they may
        // solve concurrently without changing any result.
        int solved_left = 0;
        int solved_right = 0;
        if (context.pool && context.pool->concurrency() > 1 &&
            both_internal) {
            std::vector<std::function<void()>> tasks;
            tasks.emplace_back(
                [&] { solved_left = solveNode(hn.left, left_scales); });
            tasks.emplace_back([&] {
                solved_right = solveNode(hn.right, right_scales);
            });
            context.pool->run(std::move(tasks));
        } else {
            solved_left = solveNode(hn.left, left_scales);
            solved_right = solveNode(hn.right, right_scales);
        }
        return 1 + solved_left + solved_right;
    }
};

} // namespace

PartitionPlan
solveHierarchy(const PartitionProblem &problem,
               const hw::Hierarchy &hierarchy,
               const SolverOptions &options)
{
    return solveHierarchy(problem, hierarchy, options, SolveContext{});
}

PartitionPlan
solveHierarchy(const PartitionProblem &problem,
               const hw::Hierarchy &hierarchy,
               const SolverOptions &options, const SolveContext &context)
{
    if (context.certificate) {
        // Certificates serialize the chain DP's evidence (Bellman
        // rows over the compiled chain); the SP-tree solver has no
        // chain to record, so certificate emission requires the
        // legacy-decomposable structure.
        ACCPAR_REQUIRE(problem.hasChain(),
                       "plan certificates require a chain-decomposable "
                       "(series-parallel) model; "
                           << problem.condensed().modelName()
                           << " is solved by the SP-tree fallback");
        *context.certificate = PlanCertificate(
            options.strategyName, problem.condensed().modelName(),
            hierarchy.nodeCount(), problem.nodeNames(), options.cost,
            options.ratioPolicy);
    }
    HierSolver solver(problem, hierarchy, options, context);
    const std::vector<DimScales> unit(problem.condensed().size());
    const int solved = solver.solveNode(hierarchy.root(), unit);
    if (context.solvedNodes)
        *context.solvedNodes = solved;
    return std::move(solver.plan);
}

PartitionPlan
solveHierarchy(const graph::Graph &model, const hw::Hierarchy &hierarchy,
               const SolverOptions &options)
{
    const PartitionProblem problem(model);
    return solveHierarchy(problem, hierarchy, options);
}

std::vector<PartitionPlan>
solveHierarchyBatch(const PartitionProblem &problem,
                    const std::vector<const hw::Hierarchy *> &hierarchies,
                    const SolverOptions &options,
                    const SolveContext &context)
{
    ACCPAR_REQUIRE(context.certificate == nullptr,
                   "batched hierarchy solves do not emit certificates; "
                   "re-solve the chosen candidate to emit one");
    ACCPAR_REQUIRE(context.solvedNodes == nullptr,
                   "batched hierarchy solves do not count node solves");
    std::vector<PartitionPlan> plans(hierarchies.size());
    const auto solveOne = [&](std::size_t i) {
        ACCPAR_REQUIRE(hierarchies[i] != nullptr,
                       "null hierarchy candidate in batch");
        plans[i] =
            solveHierarchy(problem, *hierarchies[i], options, context);
    };
    // Each candidate writes only its own plan slot, so candidates can
    // run concurrently on top of the (already reentrant) sibling
    // parallelism inside each solve.
    if (context.pool && context.pool->concurrency() > 1 &&
        hierarchies.size() > 1) {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(hierarchies.size());
        for (std::size_t i = 0; i < hierarchies.size(); ++i)
            tasks.emplace_back([&, i] { solveOne(i); });
        context.pool->run(std::move(tasks));
    } else {
        for (std::size_t i = 0; i < hierarchies.size(); ++i)
            solveOne(i);
    }
    return plans;
}

} // namespace accpar::core
