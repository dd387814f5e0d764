/**
 * @file
 * Flattened chain-DP kernel.
 *
 * solveChainDp's original formulation recomputed every cost term
 * through the PairCostModel at each DP visit, copied full assignment
 * vectors while backtracking (O(n^2) on deep chains) and re-solved each
 * parallel path for all nine (fork, join) type pairs even though the
 * sub-solve depends only on the three entry states. The compiled form
 * is split in two layers:
 *
 *  - DpStructure compiles the (graph, chain) pair once — the condensed
 *    edge list in CSR form, a mirror of the series-parallel chain with
 *    edge indices resolved, and the coverage check. It is immutable and
 *    shareable: every DpKernel over the same problem (all hierarchy
 *    candidates of a batched solve, every adaptive-ratio iteration)
 *    borrows one structure instead of recompiling it.
 *  - DpKernel adds what depends on the dims and the model: per-edge
 *    boundary element counts, the preallocated DP state tree, and the
 *    per-solve cost tables. Each solve() is:
 *
 *     1. fill a dense [node][type] node-cost table and a per-edge
 *        to-major [to][from] transition table through the model,
 *        restricted to the allowed types;
 *     2. run the DP as pure array arithmetic — the relaxation step of
 *        each chain element computes all nine (target, source)
 *        candidates through the dispatched batch kernel
 *        (structure-of-arrays over the 3x3 transition block, see
 *        core/batch_kernels.h and DESIGN.md §17) and reduces them in
 *        the scalar allowed-type order — recording per-(element, type)
 *        parent pointers instead of assignments, and solving each
 *        parallel path once per feasible entry type;
 *     3. reconstruct the winning assignment in one backtracking pass.
 *
 * The adaptive-ratio loop of the hierarchical solver reuses one kernel
 * across all its (alpha, restriction) iterations; only step 1 repeats.
 *
 * Every cost is obtained through the same PairCostModel entry points as
 * before (identical arguments, identical order of comparisons and
 * additions), so results are bit-identical to the original path — the
 * property tests assert this against the frozen legacy copy, and the
 * batch-kernel contract guarantees the vectorized candidates match the
 * scalar relaxation bit for bit.
 */

#ifndef ACCPAR_CORE_DP_KERNEL_H
#define ACCPAR_CORE_DP_KERNEL_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/batch_kernels.h"
#include "core/chain_dp.h"
#include "core/condensed_graph.h"
#include "core/cost_model.h"
#include "core/segment.h"

namespace accpar::core {

struct NodeCertificate;

/**
 * The dims- and model-independent compiled structure of one
 * (graph, chain) pair: condensed edges in CSR form and the chain mirror
 * with edge indices resolved. Immutable after construction, so any
 * number of DpKernels (including concurrent ones on different threads)
 * can borrow the same instance; @p graph and the chain's nodes must
 * outlive it.
 */
class DpStructure
{
  public:
    DpStructure(const CondensedGraph &graph, const Chain &chain);
    DpStructure(const DpStructure &) = delete;
    DpStructure &operator=(const DpStructure &) = delete;
    ~DpStructure();

    const CondensedGraph &graph() const { return _graph; }
    std::size_t edgeCount() const { return _edges.size(); }

  private:
    friend class DpKernel;

    struct CompiledPath;

    /** One condensed edge (boundary sizes live in the DpKernel — they
     *  depend on the dims). */
    struct Edge
    {
        CNodeId from = kNoEntryNode;
        CNodeId to = kNoEntryNode;
    };

    /** One chain element with incoming edges resolved to indices. */
    struct CompiledElem
    {
        CNodeId node = kNoEntryNode;
        /** Edge from the previous element (or entry edge for the first
         *  element of a parallel path); -1 for the model's source. */
        std::int32_t edgePrev = -1;
        /** Non-empty for the join of a parallel region. */
        std::vector<CompiledPath> paths;
    };

    struct CompiledChain
    {
        std::vector<CompiledElem> elems;
    };

    /** One branch between a fork and its join. */
    struct CompiledPath
    {
        /** Null for an identity shortcut (empty path). */
        std::unique_ptr<CompiledChain> chain;
        CNodeId lastNode = kNoEntryNode; ///< last node of the branch
        std::int32_t exitEdge = -1;      ///< lastNode -> join
        std::int32_t directEdge = -1;    ///< fork -> join (identity)
    };

    std::int32_t edgeIndex(CNodeId from, CNodeId to) const;
    std::unique_ptr<CompiledChain> compileChain(const Chain &chain,
                                                CNodeId fork);

    const CondensedGraph &_graph;
    std::vector<Edge> _edges;
    /** Incoming-edge range of node v: [_edgeStart[v], _edgeStart[v+1]). */
    std::vector<std::int32_t> _edgeStart;
    std::unique_ptr<CompiledChain> _root;
};

/** Reusable flattened solver for one (graph, chain, dims) triple. */
class DpKernel
{
  public:
    /**
     * Compiles the structure and binds it to @p dims. @p graph,
     * @p chain and @p dims must outlive the kernel and stay unchanged.
     */
    DpKernel(const CondensedGraph &graph, const Chain &chain,
             const std::vector<LayerDims> &dims);

    /**
     * Borrows an already-compiled @p structure (shared across kernels;
     * see DpStructure) and binds it to @p dims. @p structure and
     * @p dims must outlive the kernel and stay unchanged.
     */
    DpKernel(const DpStructure &structure,
             const std::vector<LayerDims> &dims);

    DpKernel(const DpKernel &) = delete;
    DpKernel &operator=(const DpKernel &) = delete;
    ~DpKernel();

    /**
     * Runs the DP under @p model's current configuration and ratio.
     * Equivalent to (and bit-identical with) solveChainDp on the
     * compiled triple. May be called repeatedly with different models,
     * alphas or restrictions; the compiled structure is reused.
     */
    ChainDpResult solve(const PairCostModel &model,
                        const TypeRestrictions &allowed);

    /**
     * Cost of a fixed assignment over the compiled edge list;
     * bit-identical with evaluateAssignment.
     */
    double evaluate(const PairCostModel &model,
                    const std::vector<PartitionType> &types) const;

    /**
     * Copies the evidence of the most recent solve() into @p cert:
     * restrictions, cost tables (cells of disallowed types zeroed —
     * the tables are not cleared between solves, so those cells hold
     * stale values the DP never read), the root-chain Bellman rows
     * with parent pointers, and the recomputed exit argmin. Must be
     * called after solve() with the same @p allowed; alpha fields are
     * the caller's (the kernel does not know the ratio search).
     */
    void extractCertificate(const TypeRestrictions &allowed,
                            NodeCertificate &cert) const;

  private:
    using Edge = DpStructure::Edge;
    using CompiledElem = DpStructure::CompiledElem;
    using CompiledChain = DpStructure::CompiledChain;
    using CompiledPath = DpStructure::CompiledPath;

    /** Preallocated DP state of one chain: costs, parent pointers and
     *  per-path sub-states of parallel elements. */
    struct ChainState
    {
        /** cost[elem * 3 + t]; infinity = infeasible. */
        std::vector<double> cost;
        /** Entry-type index the optimum of (elem, t) came from; -1
         *  when unset (first element or infeasible). */
        std::vector<std::int8_t> parent;
        /** Per parallel element (keyed by its index in the chain):
         *  sub-state per (path, entry type), solved lazily once per
         *  entry type per solve(). */
        struct ParState
        {
            std::vector<std::array<std::unique_ptr<ChainState>, 3>>
                paths;
            std::array<bool, 3> solved{};
        };
        std::vector<std::unique_ptr<ParState>> pars;
    };

    DpKernel(std::unique_ptr<DpStructure> owned,
             const std::vector<LayerDims> &dims);
    void init();

    std::unique_ptr<ChainState>
    makeState(const CompiledChain &chain) const;
    void resetState(const CompiledChain &chain, ChainState &state) const;

    void solveChain(const CompiledChain &chain, ChainState &state,
                    int entry_ti);
    double parallelTransition(const CompiledElem &elem,
                              ChainState::ParState &par, int tti, int t);
    int bestPathExit(const CompiledPath &path, const ChainState &state,
                     int t) const;
    void backtrack(const CompiledChain &chain, const ChainState &state,
                   int exit_ti, std::vector<PartitionType> &types) const;

    /** Non-null only for the compatibility constructor that compiles
     *  its own structure; _structure always refers to the one in use. */
    std::unique_ptr<DpStructure> _owned;
    const DpStructure &_structure;
    const std::vector<LayerDims> &_dims;

    /** Boundary tensor size per structure edge (dims-dependent). */
    std::vector<double> _boundary;

    std::unique_ptr<ChainState> _rootState;

    /** Scratch filled per solve(). */
    const PairCostModel *_model = nullptr;
    const TypeRestrictions *_allowed = nullptr;
    const BatchKernelOps *_ops = nullptr;
    std::vector<double> _nodeTable; ///< [node * 3 + t]
    /**
     * To-major transition table: [edge * 9 + to * 3 + from], one extra
     * trailing element so the batch kernel's four-wide column loads of
     * the last edge stay in bounds (the pad is written by no one after
     * init and read only as a discarded lane).
     */
    std::vector<double> _edgeTableT;
};

} // namespace accpar::core

#endif // ACCPAR_CORE_DP_KERNEL_H
