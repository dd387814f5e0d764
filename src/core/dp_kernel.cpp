#include "core/dp_kernel.h"

#include <algorithm>
#include <limits>

#include "core/certificate.h"
#include "util/error.h"

namespace accpar::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

DpStructure::DpStructure(const CondensedGraph &graph, const Chain &chain)
    : _graph(graph)
{
    const std::size_t n = graph.size();
    _edgeStart.assign(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) {
        _edgeStart[v] = static_cast<std::int32_t>(_edges.size());
        const CondensedNode &node = graph.node(static_cast<CNodeId>(v));
        for (CNodeId u : node.preds) {
            Edge edge;
            edge.from = u;
            edge.to = static_cast<CNodeId>(v);
            _edges.push_back(edge);
        }
    }
    _edgeStart[n] = static_cast<std::int32_t>(_edges.size());

    _root = compileChain(chain, kNoEntryNode);

    // The chain must cover every condensed node, or backtracking would
    // leave nodes unassigned (the unflattened DP asserted this on every
    // solve; the coverage is a property of the compiled structure, so
    // checking once here is equivalent).
    std::vector<bool> covered(n, false);
    for (CNodeId v : collectChainNodes(chain))
        covered[v] = true;
    for (std::size_t v = 0; v < n; ++v)
        ACCPAR_ASSERT(covered[v],
                      "DP left node "
                          << graph.node(static_cast<CNodeId>(v)).name
                          << " unassigned");
}

DpStructure::~DpStructure() = default;

std::int32_t
DpStructure::edgeIndex(CNodeId from, CNodeId to) const
{
    for (std::int32_t e = _edgeStart[to]; e < _edgeStart[to + 1]; ++e) {
        if (_edges[e].from == from)
            return e;
    }
    throw util::InternalError("no condensed edge " +
                              std::to_string(from) + " -> " +
                              std::to_string(to));
}

std::unique_ptr<DpStructure::CompiledChain>
DpStructure::compileChain(const Chain &chain, CNodeId fork)
{
    ACCPAR_ASSERT(!chain.elements.empty(), "empty chain in DP");
    auto out = std::make_unique<CompiledChain>();
    out->elems.reserve(chain.elements.size());
    CNodeId prev = fork;
    bool first = true;
    for (const Element &element : chain.elements) {
        CompiledElem ce;
        ce.node = element.node;
        if (first) {
            ACCPAR_ASSERT(!element.isParallel(),
                          "a chain cannot start with a parallel element");
            ce.edgePrev = fork == kNoEntryNode
                              ? -1
                              : edgeIndex(fork, element.node);
            first = false;
        } else if (element.isParallel()) {
            ce.paths.reserve(element.paths.size());
            for (const Chain &path : element.paths) {
                CompiledPath cp;
                if (path.elements.empty()) {
                    // Identity shortcut: the fork tensor converts
                    // straight into the join's partitioning.
                    cp.directEdge = edgeIndex(prev, element.node);
                } else {
                    cp.chain = compileChain(path, prev);
                    cp.lastNode = path.elements.back().node;
                    cp.exitEdge = edgeIndex(cp.lastNode, element.node);
                }
                ce.paths.push_back(std::move(cp));
            }
        } else {
            ce.edgePrev = edgeIndex(prev, element.node);
        }
        out->elems.push_back(std::move(ce));
        prev = element.node;
    }
    return out;
}

DpKernel::DpKernel(const CondensedGraph &graph, const Chain &chain,
                   const std::vector<LayerDims> &dims)
    : DpKernel(std::make_unique<DpStructure>(graph, chain), dims)
{
}

DpKernel::DpKernel(std::unique_ptr<DpStructure> owned,
                   const std::vector<LayerDims> &dims)
    : _owned(std::move(owned)), _structure(*_owned), _dims(dims)
{
    init();
}

DpKernel::DpKernel(const DpStructure &structure,
                   const std::vector<LayerDims> &dims)
    : _structure(structure), _dims(dims)
{
    init();
}

void
DpKernel::init()
{
    const CondensedGraph &graph = _structure._graph;
    ACCPAR_REQUIRE(_dims.size() == graph.size(),
                   "dims size mismatch: " << _dims.size() << " vs "
                                          << graph.size());

    const std::vector<Edge> &edges = _structure._edges;
    _boundary.resize(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e)
        _boundary[e] = std::min(_dims[edges[e].from].sizeOutput(),
                                _dims[edges[e].to].sizeInput());

    _rootState = makeState(*_structure._root);
    _nodeTable.assign(graph.size() * 3, 0.0);
    // One trailing pad element keeps the batch kernel's four-wide
    // column loads of the last edge in bounds.
    _edgeTableT.assign(edges.size() * 9 + 1, 0.0);
}

DpKernel::~DpKernel() = default;

std::unique_ptr<DpKernel::ChainState>
DpKernel::makeState(const CompiledChain &chain) const
{
    auto state = std::make_unique<ChainState>();
    const std::size_t m = chain.elems.size();
    state->cost.assign(m * 3, kInf);
    state->parent.assign(m * 3, -1);
    state->pars.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        const CompiledElem &elem = chain.elems[i];
        if (elem.paths.empty())
            continue;
        auto par = std::make_unique<ChainState::ParState>();
        par->paths.resize(elem.paths.size());
        for (std::size_t p = 0; p < elem.paths.size(); ++p) {
            if (!elem.paths[p].chain)
                continue;
            for (int k = 0; k < 3; ++k)
                par->paths[p][k] = makeState(*elem.paths[p].chain);
        }
        state->pars[i] = std::move(par);
    }
    return state;
}

void
DpKernel::resetState(const CompiledChain &chain, ChainState &state) const
{
    std::fill(state.cost.begin(), state.cost.end(), kInf);
    std::fill(state.parent.begin(), state.parent.end(),
              static_cast<std::int8_t>(-1));
    for (std::size_t i = 0; i < chain.elems.size(); ++i) {
        if (state.pars[i])
            state.pars[i]->solved = {false, false, false};
    }
    // Path sub-states are reset lazily, right before their sub-solve.
}

/**
 * Transition cost of a parallel element when the fork (state index
 * @p tti) feeds the join (state index @p t): the per-path minima of
 * Figure 4, summed over paths. Each non-identity path is solved once
 * per entry state and reused for all three join states.
 */
double
DpKernel::parallelTransition(const CompiledElem &elem,
                             ChainState::ParState &par, int tti, int t)
{
    if (!par.solved[tti]) {
        for (std::size_t p = 0; p < elem.paths.size(); ++p) {
            const CompiledPath &path = elem.paths[p];
            if (!path.chain)
                continue;
            ChainState &sub = *par.paths[p][tti];
            resetState(*path.chain, sub);
            solveChain(*path.chain, sub, tti);
        }
        par.solved[tti] = true;
    }

    double total = 0.0;
    for (std::size_t p = 0; p < elem.paths.size(); ++p) {
        const CompiledPath &path = elem.paths[p];
        if (!path.chain) {
            total += _edgeTableT[path.directEdge * 9 + t * 3 + tti];
            continue;
        }
        const ChainState &sub = *par.paths[p][tti];
        const int best_s = bestPathExit(path, sub, t);
        const std::size_t last = path.chain->elems.size() - 1;
        total += sub.cost[last * 3 + best_s] +
                 _edgeTableT[path.exitEdge * 9 + t * 3 + best_s];
    }
    return total;
}

/** Argmin exit state of one solved path feeding join state @p t. */
int
DpKernel::bestPathExit(const CompiledPath &path, const ChainState &state,
                       int t) const
{
    const std::size_t last = path.chain->elems.size() - 1;
    const double *cost = state.cost.data() + last * 3;
    double best = kInf;
    int best_s = -1;
    for (PartitionType s : (*_allowed)[path.lastNode]) {
        const int si = partitionTypeIndex(s);
        if (cost[si] == kInf)
            continue;
        const double cand =
            cost[si] + _edgeTableT[path.exitEdge * 9 + t * 3 + si];
        if (cand < best) {
            best = cand;
            best_s = si;
        }
    }
    ACCPAR_ASSERT(best_s >= 0, "parallel path has no feasible state");
    return best_s;
}

/**
 * The flat DP over one compiled chain. @p entry_ti < 0 means the chain
 * starts the model (Eq. 9's c(L_0, t) = 0 initialization); otherwise
 * the first element pays the conversion from the fork's entry state.
 */
void
DpKernel::solveChain(const CompiledChain &chain, ChainState &state,
                     int entry_ti)
{
    const TypeRestrictions &allowed = *_allowed;
    const std::vector<CompiledElem> &elems = chain.elems;
    {
        const CompiledElem &elem = elems[0];
        for (PartitionType t : allowed[elem.node]) {
            const int ti = partitionTypeIndex(t);
            double cost = _nodeTable[elem.node * 3 + ti];
            if (entry_ti >= 0)
                cost +=
                    _edgeTableT[elem.edgePrev * 9 + ti * 3 + entry_ti];
            state.cost[ti] = cost;
        }
    }

    for (std::size_t i = 1; i < elems.size(); ++i) {
        const CompiledElem &elem = elems[i];
        const CompiledElem &prev = elems[i - 1];
        const double *prev_cost = state.cost.data() + (i - 1) * 3;
        double *cur_cost = state.cost.data() + i * 3;
        std::int8_t *cur_parent = state.parent.data() + i * 3;
        ChainState::ParState *par =
            elem.paths.empty() ? nullptr : state.pars[i].get();

        if (!par) {
            // Non-parallel element: all nine (target, source)
            // candidates in one batched pass over the to-major 3x3
            // transition block. The kernel computes the exact scalar
            // expression (prev + trans) + node per lane; cells the
            // reduction below never reads (disallowed types, infinite
            // predecessors) are computed into the scratch but
            // discarded. The reduction keeps the scalar allowed-type
            // iteration order and strict-< first-wins tie-break.
            double cand[12];
            _ops->candidates9(prev_cost,
                              _edgeTableT.data() + elem.edgePrev * 9,
                              _nodeTable.data() + elem.node * 3, cand);
            for (PartitionType t : allowed[elem.node]) {
                const int ti = partitionTypeIndex(t);
                double best = kInf;
                int best_tt = -1;
                for (PartitionType tt : allowed[prev.node]) {
                    const int tti = partitionTypeIndex(tt);
                    if (prev_cost[tti] == kInf)
                        continue;
                    const double c = cand[ti * 3 + tti];
                    if (c < best) {
                        best = c;
                        best_tt = tti;
                    }
                }
                if (best_tt < 0)
                    continue;
                cur_cost[ti] = best;
                cur_parent[ti] = static_cast<std::int8_t>(best_tt);
            }
            continue;
        }

        for (PartitionType t : allowed[elem.node]) {
            const int ti = partitionTypeIndex(t);
            const double node_cost = _nodeTable[elem.node * 3 + ti];
            double best = kInf;
            int best_tt = -1;
            for (PartitionType tt : allowed[prev.node]) {
                const int tti = partitionTypeIndex(tt);
                if (prev_cost[tti] == kInf)
                    continue;
                const double trans =
                    parallelTransition(elem, *par, tti, ti);
                const double cand = prev_cost[tti] + trans + node_cost;
                if (cand < best) {
                    best = cand;
                    best_tt = tti;
                }
            }
            if (best_tt < 0)
                continue;
            cur_cost[ti] = best;
            cur_parent[ti] = static_cast<std::int8_t>(best_tt);
        }
    }
}

/**
 * One reconstruction pass over the parent pointers. The per-path exit
 * states of parallel elements are re-derived from the memoized path
 * states with the same argmin the forward pass used, so the recovered
 * assignment is exactly the one the costs were computed from.
 */
void
DpKernel::backtrack(const CompiledChain &chain, const ChainState &state,
                    int exit_ti, std::vector<PartitionType> &types) const
{
    int ti = exit_ti;
    for (std::size_t i = chain.elems.size(); i-- > 0;) {
        const CompiledElem &elem = chain.elems[i];
        types[elem.node] = partitionTypeFromIndex(ti);
        const int parent_ti = state.parent[i * 3 + ti];
        if (!elem.paths.empty()) {
            const ChainState::ParState &par = *state.pars[i];
            for (std::size_t p = 0; p < elem.paths.size(); ++p) {
                const CompiledPath &path = elem.paths[p];
                if (!path.chain)
                    continue;
                const ChainState &sub = *par.paths[p][parent_ti];
                const int s = bestPathExit(path, sub, ti);
                backtrack(*path.chain, sub, s, types);
            }
        }
        ti = parent_ti;
    }
}

ChainDpResult
DpKernel::solve(const PairCostModel &model,
                const TypeRestrictions &allowed)
{
    const CondensedGraph &graph = _structure._graph;
    ACCPAR_REQUIRE(allowed.size() == graph.size(),
                   "type restriction size mismatch");
    _model = &model;
    _allowed = &allowed;
    _ops = &activeBatchKernelOps();

    // Step 1: dense cost tables, restricted to the allowed types (the
    // DP never reads a disallowed entry). Same model entry points and
    // arguments as the unflattened path, so the values are bit-identical.
    const std::size_t n = graph.size();
    for (std::size_t v = 0; v < n; ++v) {
        const CondensedNode &node = graph.node(static_cast<CNodeId>(v));
        ACCPAR_ASSERT(!allowed[v].empty(),
                      "node " << node.name << " has no allowed types");
        for (PartitionType t : allowed[v]) {
            _nodeTable[v * 3 + partitionTypeIndex(t)] =
                model.nodeCost(_dims[v], node.junction, t);
        }
    }
    const std::vector<Edge> &edges = _structure._edges;
    for (std::size_t e = 0; e < edges.size(); ++e) {
        const Edge &edge = edges[e];
        for (PartitionType from : allowed[edge.from]) {
            const int fi = partitionTypeIndex(from);
            for (PartitionType to : allowed[edge.to]) {
                _edgeTableT[e * 9 + partitionTypeIndex(to) * 3 + fi] =
                    model.transitionCost(from, to, _boundary[e]);
            }
        }
    }

    // Step 2: the flat DP.
    resetState(*_structure._root, *_rootState);
    solveChain(*_structure._root, *_rootState, -1);

    const std::size_t m = _structure._root->elems.size();
    const CNodeId last = _structure._root->elems.back().node;
    const double *exit_cost = _rootState->cost.data() + (m - 1) * 3;
    double best = kInf;
    int best_t = -1;
    for (PartitionType t : allowed[last]) {
        const int ti = partitionTypeIndex(t);
        if (exit_cost[ti] < best) {
            best = exit_cost[ti];
            best_t = ti;
        }
    }
    ACCPAR_ASSERT(best_t >= 0, "DP found no feasible assignment");

    // Step 3: one backtracking pass.
    ChainDpResult result;
    result.cost = best;
    result.types.assign(n, PartitionType::TypeI);
    backtrack(*_structure._root, *_rootState, best_t, result.types);
    return result;
}

void
DpKernel::extractCertificate(const TypeRestrictions &allowed,
                             NodeCertificate &cert) const
{
    const CondensedGraph &graph = _structure._graph;
    ACCPAR_REQUIRE(allowed.size() == graph.size(),
                   "type restriction size mismatch");
    const std::size_t n = graph.size();
    cert.allowed = allowed;

    cert.nodeTable.assign(n, {0.0, 0.0, 0.0});
    for (std::size_t v = 0; v < n; ++v) {
        for (PartitionType t : allowed[v]) {
            const auto ti =
                static_cast<std::size_t>(partitionTypeIndex(t));
            cert.nodeTable[v][ti] = _nodeTable[v * 3 + ti];
        }
    }

    const std::vector<Edge> &edges = _structure._edges;
    cert.edges.clear();
    cert.edges.reserve(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
        const Edge &edge = edges[e];
        CertificateEdge ce;
        ce.from = edge.from;
        ce.to = edge.to;
        ce.boundary = _boundary[e];
        for (PartitionType from : allowed[edge.from]) {
            const int fi = partitionTypeIndex(from);
            for (PartitionType to : allowed[edge.to]) {
                const int ti = partitionTypeIndex(to);
                ce.cost[static_cast<std::size_t>(fi * 3 + ti)] =
                    _edgeTableT[e * 9 + static_cast<std::size_t>(ti) * 3 +
                                static_cast<std::size_t>(fi)];
            }
        }
        cert.edges.push_back(ce);
    }

    const std::vector<CompiledElem> &elems = _structure._root->elems;
    const std::size_t m = elems.size();
    cert.chainNodes.clear();
    cert.chainNodes.reserve(m);
    cert.dpCost.assign(m, {kInf, kInf, kInf});
    cert.dpParent.assign(m, {-1, -1, -1});
    for (std::size_t i = 0; i < m; ++i) {
        cert.chainNodes.push_back(elems[i].node);
        for (std::size_t t = 0; t < 3; ++t) {
            cert.dpCost[i][t] = _rootState->cost[i * 3 + t];
            cert.dpParent[i][t] = _rootState->parent[i * 3 + t];
        }
    }

    // Recompute the exit argmin exactly as solve() chose it.
    const CNodeId last = elems.back().node;
    const double *exit_cost = _rootState->cost.data() + (m - 1) * 3;
    double best = kInf;
    int best_t = -1;
    for (PartitionType t : allowed[last]) {
        const int ti = partitionTypeIndex(t);
        if (exit_cost[ti] < best) {
            best = exit_cost[ti];
            best_t = ti;
        }
    }
    cert.exitType = best_t;
}

double
DpKernel::evaluate(const PairCostModel &model,
                   const std::vector<PartitionType> &types) const
{
    const CondensedGraph &graph = _structure._graph;
    ACCPAR_REQUIRE(types.size() == graph.size(),
                   "assignment size mismatch");
    const std::vector<Edge> &edges = _structure._edges;
    const std::vector<std::int32_t> &edgeStart = _structure._edgeStart;
    double total = 0.0;
    for (std::size_t v = 0; v < graph.size(); ++v) {
        const CondensedNode &node = graph.node(static_cast<CNodeId>(v));
        total += model.nodeCost(_dims[v], node.junction, types[v]);
        for (std::int32_t e = edgeStart[v]; e < edgeStart[v + 1]; ++e) {
            total += model.transitionCost(types[edges[e].from], types[v],
                                          _boundary[e]);
        }
    }
    return total;
}

} // namespace accpar::core
