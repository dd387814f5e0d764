/**
 * @file
 * The accpar::Planner facade: one entry point for planning, strategy
 * comparison, and sweeps.
 *
 * Callers describe what to plan with a PlanRequest (model, array,
 * options, strategy name, jobs) and get a PlanResult back (plan,
 * per-level cost breakdown, timing, diagnostics) — no caller needs
 * to assemble PartitionProblem, PairCostModel, or per-strategy solver
 * options by hand. The Planner owns the parallel planning engine: a
 * fixed-size thread pool (sibling hierarchy subtrees and compared
 * strategies solve concurrently).
 *
 * Determinism guarantee: for any jobs value the produced plans are
 * bit-identical to a sequential solve. Parallel tasks only ever write
 * disjoint result slots, reductions happen in fixed index order, and
 * cost terms are pure functions of their arguments.
 */

#ifndef ACCPAR_CORE_PLANNER_H
#define ACCPAR_CORE_PLANNER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "core/certificate.h"
#include "core/hierarchical_solver.h"
#include "core/plan.h"
#include "graph/graph.h"
#include "hw/group.h"
#include "hw/hierarchy.h"
#include "models/catalog.h"
#include "sim/training_sim.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace accpar {

namespace search {
struct SearchReport;
}

/** Library version reported by `accpar --version`. */
inline constexpr char kAccParVersion[] = "0.4.0";

/**
 * The unified planning options: every knob of the cost model and the
 * hierarchical search in one documented struct. This supersedes the
 * old two-level split where callers set core::CostModelConfig fields
 * through core::SolverOptions::cost; those structs remain as thin
 * compatibility aliases of this one (SolverOptions for the solver
 * layer, CostModelConfig for the cost model) and existing code keeps
 * compiling, but new code should configure a PlanOptions.
 *
 * Named strategies ("dp", "owt", "hypar", "accpar") define their own
 * canonical knob settings; PlanOptions applies when the request's
 * strategy is "custom".
 */
struct PlanOptions
{
    /** What the per-layer scalar cost measures (default: seconds). */
    core::ObjectiveKind objective = core::ObjectiveKind::Time;
    /** How the two sides combine (default: balanced makespan). */
    core::PairReduce reduce = core::PairReduce::Max;
    /** Include the computation term of the Time objective. */
    bool includeCompute = true;
    /** Bytes per tensor element; bf16 by default (§6.1). */
    double bytesPerElement = 2.0;
    /** Ratio policy; the paper's Eq. 10 linearization by default. */
    core::RatioPolicy ratioPolicy = core::RatioPolicy::PaperLinear;
    /** Bounded fixed-point iterations of (DP, ratio) per node. */
    int ratioIterations = 3;
    /** Allowed types per condensed node; null means unrestricted. */
    core::AllowedTypesFn allowedTypes;
    /** Integer-granularity floor (see SolverOptions::minDimPerSide). */
    double minDimPerSide = 1.0;

    /**
     * Run the static plan verifier over every produced plan (ratio
     * legality, Table-5 transitions, per-board memory feasibility,
     * cost cross-check; see src/analysis/). Honored for named
     * strategies too, not just "custom". Findings land in
     * PlanResult::diagnostics; errors make the call throw ConfigError.
     */
    bool verify = true;
    /** Escalate verifier warnings to failures as well. */
    bool strict = false;

    /**
     * Emit a PlanCertificate alongside the plan (PlanResult::
     * certificate): the solver's full evidence trail — cost tables,
     * Bellman rows, parent pointers, ratio brackets — auditable
     * offline by `accpar audit`. Honored for named strategies too.
     * Excluded from planRequestCanonicalKey: it cannot change the
     * produced plan.
     */
    bool emitCertificate = false;

    /**
     * Budget of the outer-loop hierarchy/assignment search (src/
     * search, DESIGN.md §16). Disabled by default (both budgets 0):
     * the request plans on the seed bi-partition hierarchy exactly as
     * before. With a budget set, a simulated-annealing search over
     * tree shapes and device assignments runs first — evaluating
     * candidates with the same inner DP — and the winning hierarchy
     * (never costlier than the seed's) is what the request's strategy
     * finally solves, verifies, and certifies. Only strategies
     * "accpar" and "custom" support the outer search.
     *
     * budgetIters-only budgets are deterministic and fold into
     * planRequestCanonicalKey; budgetMs makes the outcome wall-clock
     * dependent, so such requests must not be cached (the service
     * layer refuses to).
     */
    struct SearchBudget
    {
        /** Max annealing iterations; 0 = unbounded (budgetMs rules). */
        int budgetIters = 0;
        /** Wall-clock budget in milliseconds; 0 = iterations rule. */
        double budgetMs = 0.0;
        /** Seed of the search's deterministic util::Rng. */
        std::uint64_t seed = 1;

        bool enabled() const
        {
            return budgetIters > 0 || budgetMs > 0.0;
        }
    };
    SearchBudget search;

    /** Expands to the solver layer's (deprecated) two-level view. */
    core::SolverOptions toSolverOptions(const std::string &strategy) const;

    /** Folds a two-level SolverOptions back into the unified view. */
    static PlanOptions fromSolverOptions(const core::SolverOptions &opts);
};

/** One planning job: what to plan and with how much parallelism. */
struct PlanRequest
{
    PlanRequest(graph::Graph model_, hw::AcceleratorGroup array_)
        : model(std::move(model_)), array(std::move(array_))
    {
    }

    /**
     * Model-spec variant: resolves @p modelName (with optional build
     * parameters like "batch" or a transformer's "depth") through
     * models::catalog() instead of taking a pre-built graph. Throws
     * ConfigError for unknown names or rejected parameters.
     */
    PlanRequest(const std::string &modelName,
                const models::ModelParams &params,
                hw::AcceleratorGroup array_);

    /** The DNN to partition. */
    graph::Graph model;
    /** The accelerator array; the bi-partition hierarchy is derived. */
    hw::AcceleratorGroup array;
    /** Knobs for strategy "custom"; ignored by named strategies. */
    PlanOptions options;
    /** "dp", "owt", "hypar", "accpar", or "custom". */
    std::string strategy = "accpar";
    /** Concurrency: 1 = sequential, 0 = hardware concurrency. */
    int jobs = 1;
    /** Simulation knobs used by compare() and simulate(). */
    sim::TrainingSimConfig sim;
};

/** What one planning call produced. */
struct PlanResult
{
    core::PartitionPlan plan;
    std::string strategy;
    std::string model;
    /** Modeled pair cost at the hierarchy root (solver units). */
    double rootCost = 0.0;
    /** Cost breakdown: per-level costs along the leftmost root-to-leaf
     *  path of the hierarchy (what Figure 7 walks). */
    std::vector<double> levelCosts;
    /** Wall-clock planning time. */
    util::Seconds planSeconds = 0.0;
    /** Effective concurrency the call ran with. */
    int jobs = 1;
    /** Post-solve verification findings (empty when verification is
     *  disabled or the plan is clean). */
    std::vector<analysis::Diagnostic> diagnostics;
    /** The solve's evidence trail; null unless
     *  PlanOptions::emitCertificate was set. */
    std::shared_ptr<core::PlanCertificate> certificate;
    /** The hierarchy the plan was actually solved on; null unless the
     *  outer search ran (PlanOptions::search). When set, the plan's
     *  node ids index this hierarchy, not hw::Hierarchy(array) —
     *  rendering and serialization must use it. */
    std::shared_ptr<hw::Hierarchy> searchedHierarchy;
    /** The outer search's report (baseline vs best cost, anytime
     *  curve); null unless the outer search ran. */
    std::shared_ptr<search::SearchReport> searchReport;
};

/**
 * Canonical text encoding of everything that determines a PlanRequest's
 * outcome: the model graph (layers, attributes, wiring, shapes), the
 * accelerator array (per-slice specs and counts, link aggregation) and
 * the effective search options (strategy name plus, for "custom", every
 * PlanOptions knob). Two requests with equal keys produce bit-identical
 * plans, so the key is safe to use as a cross-request memoization key
 * (the service layer's result cache is built on it). `jobs` and `sim`
 * are deliberately excluded — neither changes the produced plan.
 *
 * A request carrying a custom PlanOptions::allowedTypes callback is
 * marked opaque in the key (callbacks cannot be canonicalized); such
 * requests must not be cached across distinct callbacks.
 *
 * An enabled outer-search budget (PlanOptions::search) folds into the
 * key for every strategy — it changes the produced plan. A wall-clock
 * budget (budgetMs > 0) additionally makes the outcome run-to-run
 * dependent; its key is still well-defined, but caching such entries
 * is the caller's mistake (the service layer refuses to).
 */
std::string planRequestCanonicalKey(const PlanRequest &request);

/** 64-bit FNV-1a hash of planRequestCanonicalKey (shard selection,
 *  compact logging; collision-sensitive callers compare full keys). */
std::uint64_t planRequestFingerprint(const PlanRequest &request);

/** compare(): every registered strategy on one request. */
struct StrategyComparison
{
    /** Per-strategy results, in registry order (DP, OWT, HyPar, AccPar). */
    std::vector<PlanResult> plans;
    /** Simulated training step of each plan, same order. */
    std::vector<sim::TrainingRunResult> runs;
    /** Throughput normalized to the first strategy (DP). */
    std::vector<double> speedup;
};

/** simulate(): a plan plus its simulated training step. */
struct SimulationResult
{
    PlanResult plan;
    sim::TrainingRunResult run;
};

/**
 * The planning facade. One Planner may serve many requests; only its
 * thread pool persists across calls, so a reused Planner returns the
 * same plans as a fresh one. A Planner is not itself thread-safe: issue
 * requests from one thread and let the planner parallelize internally.
 */
class Planner
{
  public:
    Planner();
    ~Planner();

    Planner(const Planner &) = delete;
    Planner &operator=(const Planner &) = delete;

    /** Plans one request with its named (or "custom") strategy. */
    PlanResult plan(const PlanRequest &request);

    /**
     * Plans many requests as one batch over shared infrastructure:
     * requests carrying the same model share a single
     * PartitionProblem (condensation and the series-parallel
     * decomposition are built once up front and read concurrently),
     * and all requests share the planner's thread pool. Results are in
     * request order and bit-identical to planning each request alone.
     * This is the engine behind `accpar sweep`, the Figure 8 bench and
     * the service's cache-miss path.
     */
    std::vector<PlanResult> planBatch(
        const std::vector<PlanRequest> &requests);

    /**
     * Plans the request under every registered strategy concurrently,
     * then simulates one training step per plan. The request's own
     * strategy name is ignored.
     */
    StrategyComparison compare(const PlanRequest &request);

    /** Plans the request, then simulates one training step. */
    SimulationResult simulate(const PlanRequest &request);

  private:
    util::ThreadPool *poolFor(int jobs);
    static int effectiveJobs(int jobs);
    PlanResult planOne(const PlanRequest &request,
                       const core::PartitionProblem &problem,
                       const hw::Hierarchy &hierarchy,
                       const core::SolveContext &context);

    std::unique_ptr<util::ThreadPool> _pool;
    int _poolJobs = 1;
};

} // namespace accpar

#endif // ACCPAR_CORE_PLANNER_H
