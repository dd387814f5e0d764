#include "core/chain_dp.h"

#include <algorithm>

#include "core/dp_kernel.h"
#include "util/error.h"

namespace accpar::core {

TypeRestrictions
unrestrictedTypes(const CondensedGraph &graph)
{
    TypeRestrictions out(graph.size());
    for (std::size_t i = 0; i < graph.size(); ++i)
        out[i].assign(kAllPartitionTypes.begin(), kAllPartitionTypes.end());
    return out;
}

ChainDpResult
solveChainDp(const CondensedGraph &graph, const Chain &chain,
             const std::vector<LayerDims> &dims,
             const PairCostModel &model, const TypeRestrictions &allowed)
{
    // One-shot entry point: compiles a kernel for this triple and
    // solves once. The hierarchical solver keeps its own kernel alive
    // across the adaptive-ratio iterations instead.
    DpKernel kernel(graph, chain, dims);
    return kernel.solve(model, allowed);
}

double
evaluateAssignment(const CondensedGraph &graph,
                   const std::vector<LayerDims> &dims,
                   const PairCostModel &model,
                   const std::vector<PartitionType> &types)
{
    ACCPAR_REQUIRE(types.size() == graph.size(),
                   "assignment size mismatch");
    double total = 0.0;
    for (std::size_t v = 0; v < graph.size(); ++v) {
        const CondensedNode &node = graph.node(static_cast<CNodeId>(v));
        total += model.nodeCost(dims[v], node.junction, types[v]);
        for (CNodeId u : node.preds) {
            const double boundary = std::min(dims[u].sizeOutput(),
                                             dims[v].sizeInput());
            total += model.transitionCost(types[u], types[v], boundary);
        }
    }
    return total;
}

} // namespace accpar::core
