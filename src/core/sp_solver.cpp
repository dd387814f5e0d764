#include "core/sp_solver.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace accpar::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double
edgeBoundary(const std::vector<LayerDims> &dims, CNodeId from, CNodeId to)
{
    return std::min(dims[from].sizeOutput(), dims[to].sizeInput());
}

} // namespace

SpSolver::SpSolver(const CondensedGraph &graph, const graph::SpTree &tree,
                   const std::vector<LayerDims> &dims)
    : _graph(graph), _tree(tree), _dims(dims)
{
    ACCPAR_REQUIRE(dims.size() == graph.size(),
                   "dims size mismatch: " << dims.size() << " vs "
                                          << graph.size());
    ACCPAR_REQUIRE(
        tree.maxResidualSize() <= kResidualExactLimit,
        "[AG009] a non-series-parallel region of "
            << graph.modelName() << " has " << tree.maxResidualSize()
            << " internal layers, beyond the exact-fallback bound of "
            << kResidualExactLimit
            << "; the partition search cannot prove optimality for it");

    _compiled.resize(tree.size());
    std::vector<char> internalFlag(graph.size(), 0);
    for (std::size_t id = 0; id < tree.size(); ++id) {
        const graph::SpNode &node = tree.node(static_cast<int>(id));
        CompiledNode &out = _compiled[id];
        if (node.kind == graph::SpKind::Leaf) {
            out.edge = {node.source, node.sink,
                        edgeBoundary(dims, node.source, node.sink)};
            continue;
        }
        if (node.kind != graph::SpKind::Residual)
            continue;
        for (int v : node.internal)
            internalFlag[v] = 1;
        for (int v : node.internal) {
            for (CNodeId p : _graph.node(v).preds) {
                ACCPAR_ASSERT(p == node.source || internalFlag[p],
                              "residual region edge " << p << " -> " << v
                                                      << " escapes the "
                                                         "region");
                CompiledEdge edge{p, v, edgeBoundary(dims, p, v)};
                if (p == node.source)
                    out.crossEdges.push_back(edge);
                else
                    out.innerEdges.push_back(edge);
            }
        }
        for (CNodeId p : _graph.node(node.sink).preds) {
            if (p >= 0 && internalFlag[p]) {
                out.crossEdges.push_back(
                    {p, node.sink, edgeBoundary(dims, p, node.sink)});
            }
        }
        for (int v : node.internal)
            internalFlag[v] = 0;
    }
}

void
SpSolver::solveLeaf(graph::SpNodeId id, const PairCostModel &model,
                    std::vector<double> &m) const
{
    const CompiledEdge &edge = _compiled[id].edge;
    double *row = &m[static_cast<std::size_t>(id) * 9];
    for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
            row[a * 3 + b] = model.transitionCost(
                partitionTypeFromIndex(a), partitionTypeFromIndex(b),
                edge.boundary);
        }
    }
}

void
SpSolver::solveSeries(graph::SpNodeId id, const PairCostModel &model,
                      const TypeRestrictions &allowed,
                      std::vector<double> &m,
                      std::vector<std::int8_t> &choice) const
{
    const graph::SpNode &node = _tree.node(id);
    const CNodeId middle = _tree.node(node.left).sink;
    const CondensedNode &mid = _graph.node(middle);
    double nodeCost[3];
    for (PartitionType t : allowed[middle]) {
        nodeCost[partitionTypeIndex(t)] =
            model.nodeCost(_dims[middle], mid.junction, t);
    }
    const double *left = &m[static_cast<std::size_t>(node.left) * 9];
    const double *right = &m[static_cast<std::size_t>(node.right) * 9];
    double *row = &m[static_cast<std::size_t>(id) * 9];
    std::int8_t *pick = &choice[static_cast<std::size_t>(id) * 9];
    for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
            double best = kInf;
            std::int8_t best_c = -1;
            for (PartitionType t : allowed[middle]) {
                const int c = partitionTypeIndex(t);
                const double total =
                    left[a * 3 + c] + nodeCost[c] + right[c * 3 + b];
                if (total < best) {
                    best = total;
                    best_c = static_cast<std::int8_t>(c);
                }
            }
            row[a * 3 + b] = best;
            pick[a * 3 + b] = best_c;
        }
    }
}

void
SpSolver::solveResidual(graph::SpNodeId id, const PairCostModel &model,
                        const TypeRestrictions &allowed,
                        std::vector<double> &m,
                        std::vector<std::int8_t> &assign) const
{
    const graph::SpNode &node = _tree.node(id);
    const CompiledNode &compiled = _compiled[id];
    const std::size_t k = node.internal.size();

    // Position of each internal vertex inside the assignment vector.
    // Region sizes are bounded by kResidualExactLimit, so a linear
    // scan per edge endpoint stays cheap.
    auto slotOf = [&](CNodeId v) {
        for (std::size_t i = 0; i < k; ++i) {
            if (node.internal[i] == v)
                return i;
        }
        throw util::InternalError("residual vertex lookup failed");
    };

    double *row = &m[static_cast<std::size_t>(id) * 9];
    std::fill(row, row + 9, kInf);

    // Odometer over the allowed types of every internal vertex, in
    // lexicographic order for deterministic tie-breaking.
    std::vector<std::size_t> digit(k, 0);
    std::vector<PartitionType> types(k, PartitionType::TypeI);
    for (std::size_t i = 0; i < k; ++i)
        types[i] = allowed[node.internal[i]].front();
    while (true) {
        double base = 0.0;
        for (std::size_t i = 0; i < k; ++i) {
            const CNodeId v = node.internal[i];
            const CondensedNode &cn = _graph.node(v);
            base += model.nodeCost(_dims[v], cn.junction, types[i]);
        }
        for (const CompiledEdge &edge : compiled.innerEdges) {
            base += model.transitionCost(types[slotOf(edge.from)],
                                         types[slotOf(edge.to)],
                                         edge.boundary);
        }
        for (int a = 0; a < 3; ++a) {
            for (int b = 0; b < 3; ++b) {
                double total = base;
                for (const CompiledEdge &edge : compiled.crossEdges) {
                    if (edge.from == node.source) {
                        total += model.transitionCost(
                            partitionTypeFromIndex(a),
                            types[slotOf(edge.to)], edge.boundary);
                    } else {
                        total += model.transitionCost(
                            types[slotOf(edge.from)],
                            partitionTypeFromIndex(b), edge.boundary);
                    }
                }
                if (total < row[a * 3 + b]) {
                    row[a * 3 + b] = total;
                    std::int8_t *slot =
                        &assign[(static_cast<std::size_t>(id) * 9 +
                                 static_cast<std::size_t>(a * 3 + b)) *
                                kResidualExactLimit];
                    for (std::size_t i = 0; i < k; ++i) {
                        slot[i] = static_cast<std::int8_t>(
                            partitionTypeIndex(types[i]));
                    }
                }
            }
        }
        // Advance the odometer.
        std::size_t pos = 0;
        while (pos < k) {
            if (++digit[pos] < allowed[node.internal[pos]].size()) {
                types[pos] = allowed[node.internal[pos]][digit[pos]];
                break;
            }
            digit[pos] = 0;
            types[pos] = allowed[node.internal[pos]].front();
            ++pos;
        }
        if (pos == k)
            break;
    }
}

ChainDpResult
SpSolver::solve(const PairCostModel &model,
                const TypeRestrictions &allowed) const
{
    ACCPAR_REQUIRE(allowed.size() == _graph.size(),
                   "type restriction size mismatch");
    for (std::size_t v = 0; v < allowed.size(); ++v) {
        ACCPAR_REQUIRE(!allowed[v].empty(),
                       "no allowed types for node "
                           << _graph.node(static_cast<CNodeId>(v)).name);
    }

    ChainDpResult result;
    result.types.assign(_graph.size(), PartitionType::TypeI);

    if (_tree.root() == graph::kNoSpNode) {
        // Single condensed node: no edges, just the node's own cost.
        const CNodeId only = _graph.source();
        const CondensedNode &cn = _graph.node(only);
        double best = kInf;
        for (PartitionType t : allowed[only]) {
            const double cost =
                model.nodeCost(_dims[only], cn.junction, t);
            if (cost < best) {
                best = cost;
                result.types[only] = t;
            }
        }
        result.cost = best;
        return result;
    }

    std::vector<double> m(_tree.size() * 9, kInf);
    std::vector<std::int8_t> choice(_tree.size() * 9, -1);
    std::vector<std::int8_t> residual(
        _tree.size() * 9 * kResidualExactLimit, -1);

    // Children are always created before their parents, so a single
    // id-ordered pass is a bottom-up tree walk.
    for (std::size_t id = 0; id < _tree.size(); ++id) {
        const graph::SpNode &node = _tree.node(static_cast<int>(id));
        switch (node.kind) {
          case graph::SpKind::Leaf:
            solveLeaf(static_cast<int>(id), model, m);
            break;
          case graph::SpKind::Series:
            solveSeries(static_cast<int>(id), model, allowed, m, choice);
            break;
          case graph::SpKind::Parallel: {
            const double *left =
                &m[static_cast<std::size_t>(node.left) * 9];
            const double *right =
                &m[static_cast<std::size_t>(node.right) * 9];
            double *row = &m[id * 9];
            for (int ab = 0; ab < 9; ++ab)
                row[ab] = left[ab] + right[ab];
            break;
          }
          case graph::SpKind::Residual:
            solveResidual(static_cast<int>(id), model, allowed, m,
                          residual);
            break;
        }
    }

    const graph::SpNode &root = _tree.node(_tree.root());
    const CNodeId s = root.source;
    const CNodeId t = root.sink;
    const CondensedNode &sn = _graph.node(s);
    const CondensedNode &tn = _graph.node(t);
    const double *row = &m[static_cast<std::size_t>(_tree.root()) * 9];
    double best = kInf;
    int best_a = -1;
    int best_b = -1;
    for (PartitionType ta : allowed[s]) {
        const int a = partitionTypeIndex(ta);
        const double s_cost = model.nodeCost(_dims[s], sn.junction, ta);
        for (PartitionType tb : allowed[t]) {
            const int b = partitionTypeIndex(tb);
            const double total =
                s_cost + row[a * 3 + b] +
                model.nodeCost(_dims[t], tn.junction, tb);
            if (total < best) {
                best = total;
                best_a = a;
                best_b = b;
            }
        }
    }
    ACCPAR_ASSERT(best_a >= 0, "sp solve found no feasible assignment");

    result.cost = best;
    result.types[s] = partitionTypeFromIndex(best_a);
    result.types[t] = partitionTypeFromIndex(best_b);

    // Backtrack the endpoint-conditioned choices top-down.
    struct Frame
    {
        graph::SpNodeId id;
        int a;
        int b;
    };
    std::vector<Frame> stack{{_tree.root(), best_a, best_b}};
    while (!stack.empty()) {
        const Frame frame = stack.back();
        stack.pop_back();
        const graph::SpNode &node = _tree.node(frame.id);
        switch (node.kind) {
          case graph::SpKind::Leaf:
            break;
          case graph::SpKind::Series: {
            const int c = choice[static_cast<std::size_t>(frame.id) * 9 +
                                 static_cast<std::size_t>(frame.a * 3 +
                                                          frame.b)];
            ACCPAR_ASSERT(c >= 0, "series backtrack without a choice");
            const CNodeId middle = _tree.node(node.left).sink;
            result.types[middle] = partitionTypeFromIndex(c);
            stack.push_back({node.left, frame.a, c});
            stack.push_back({node.right, c, frame.b});
            break;
          }
          case graph::SpKind::Parallel:
            stack.push_back({node.left, frame.a, frame.b});
            stack.push_back({node.right, frame.a, frame.b});
            break;
          case graph::SpKind::Residual: {
            const std::int8_t *slot =
                &residual[(static_cast<std::size_t>(frame.id) * 9 +
                           static_cast<std::size_t>(frame.a * 3 +
                                                    frame.b)) *
                          kResidualExactLimit];
            for (std::size_t i = 0; i < node.internal.size(); ++i) {
                ACCPAR_ASSERT(slot[i] >= 0,
                              "residual backtrack without an "
                              "assignment");
                result.types[node.internal[i]] =
                    partitionTypeFromIndex(slot[i]);
            }
            break;
          }
        }
    }
    return result;
}

} // namespace accpar::core
