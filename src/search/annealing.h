/**
 * @file
 * The anytime annealing driver of the outer-loop search (DESIGN.md
 * §16): simulated annealing over OuterState candidates with the exact
 * hierarchical DP (core/solveHierarchy) as the inner evaluation
 * oracle and a greedy local-search polish tail.
 *
 * Guarantees:
 *  - Never worse than baseline: the best-so-far is initialized to the
 *    DP solve of the seed hierarchy, and only strictly cheaper,
 *    verifier-clean candidates replace it.
 *  - Anytime: SearchReport::anytime records (iteration, bestCost)
 *    whenever the best improves; truncating the budget truncates the
 *    curve, it never invalidates earlier points.
 *  - Deterministic for iteration budgets: with budgetMs == 0 the run
 *    is a pure function of (problem, array, options) — every
 *    iteration draws from its own seeded util::Rng substream derived
 *    from (seed, iteration), so a proposal and its acceptance draw
 *    are a pure function of the current state and the iteration
 *    number, and the inner solver is bit-identical for any
 *    thread-pool size. That is what lets the driver speculate: it
 *    gathers a lookahead window of proposals from the current state,
 *    scores them in one batched oracle call
 *    (core/solveHierarchyBatch), and replays the Metropolis decisions
 *    sequentially, discarding and regathering everything after the
 *    first acceptance — the chain, every counter and the winner are
 *    bit-identical for any lookahead (including 1, the pre-batching
 *    sequential driver) and any --jobs value.
 *    Wall-clock budgets (budgetMs > 0) bound the loop by elapsed
 *    time and are inherently run-to-run dependent; callers that
 *    cache results must not cache those (see
 *    planRequestCanonicalKey).
 */

#ifndef ACCPAR_SEARCH_ANNEALING_H
#define ACCPAR_SEARCH_ANNEALING_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/hierarchical_solver.h"
#include "core/plan.h"
#include "hw/group.h"
#include "hw/hierarchy.h"
#include "search/outer_state.h"

namespace accpar::search {

/** Configuration of one annealing run. */
struct SearchOptions
{
    /** Seed of the single util::Rng driving the whole run. */
    std::uint64_t seed = 1;
    /** Max SA iterations (candidate proposals); 0 = unbounded, the
     *  wall-clock budget governs. At least one budget must be set. */
    int budgetIters = 0;
    /** Wall-clock budget in milliseconds; 0 = iteration-bounded only.
     *  Makes the run nondeterministic (see the file comment). */
    double budgetMs = 0.0;
    /** Initial temperature as a fraction of the baseline cost. The
     *  default is deliberately hot: outer-space deltas are a sizable
     *  fraction of the total cost, and a cold chain freezes into the
     *  seed basin without ever crossing to a better tree shape. */
    double initialTemperature = 0.2;
    /** Geometric cooling factor applied per iteration. */
    double coolingRate = 0.97;
    /** Greedy strictly-improving proposals after the SA loop. */
    int polishIters = 16;
    /**
     * Max speculative proposals scored per batched oracle call. The
     * driver starts each window at 1, doubles it after a fully
     * rejected window and resets it on acceptance, capped here — so
     * speculation only widens when rejections make it profitable.
     * Any value yields the identical chain and winner (see the file
     * comment); 1 disables speculation outright.
     */
    int lookahead = 8;
    /** Inner-oracle options (cost model, ratio policy, …). */
    core::SolverOptions solver;
};

/** One point of the anytime curve. */
struct AnytimePoint
{
    /** Iteration at which the best improved (0 = the baseline). */
    int iteration = 0;
    double bestCost = 0.0;
};

/** What one annealing run did. */
struct SearchReport
{
    /** Worst root-to-leaf cost of the DP solve on the seed
     *  hierarchy. */
    double baselineCost = 0.0;
    /** Worst root-to-leaf cost of the winner (≤ baselineCost). */
    double bestCost = 0.0;
    /** Iterations actually run (SA loop + polish tail). */
    int iterations = 0;
    /** Candidates accepted by the Metropolis criterion. */
    int accepted = 0;
    /** Times the best-so-far improved. */
    int improved = 0;
    /** Proposals dropped: inapplicable move, builder defect, or a
     *  would-be-best that failed plan verification. */
    int rejected = 0;
    /** Inner-oracle evaluations actually solved: the baseline, every
     *  scored candidate, and speculative solves discarded after an
     *  acceptance cut their window short. */
    int oracleSolves = 0;
    std::uint64_t seed = 0;
    /** Proposals per move kind, indexed by MoveKind order (see
     *  search/moves.h). */
    std::vector<int> proposedByKind;
    /** OuterState::signature() of the winner. */
    std::string bestSignature;
    /** Best-cost trajectory; first entry is the baseline at
     *  iteration 0, strictly decreasing afterwards. */
    std::vector<AnytimePoint> anytime;

    bool improvedOverBaseline() const
    {
        return bestCost < baselineCost;
    }
};

/** The winner of a run: state, materialized hierarchy, inner plan. */
struct SearchOutcome
{
    OuterState bestState;
    hw::Hierarchy bestHierarchy;
    core::PartitionPlan bestPlan;
    SearchReport report;
};

/**
 * Effective budget after deadline clamping (service layer). Pure so
 * the policy is unit-testable without a running service.
 */
struct EffectiveBudget
{
    int budgetIters = 0;
    double budgetMs = 0.0;
    /** False when neither budget is positive (reject, ASRV09). */
    bool usable = false;
    /** True when the result is a pure function of the request
     *  (budgetMs == 0) and safe to cache across requests. */
    bool cacheable = false;
};

/**
 * Clamps a requested budget to @p remainingDeadlineMs (<= 0 means no
 * deadline): a wall-clock budget is cut to the remaining deadline; an
 * iteration-only budget under a deadline gains a wall-clock cap so a
 * huge budgetIters cannot blow the deadline (which makes it
 * non-cacheable — the cap may truncate the run).
 */
EffectiveBudget clampBudget(int budgetIters, double budgetMs,
                            double remainingDeadlineMs);

/**
 * The annealing driver: binds one (problem, array, options) triple
 * and runs the SA loop + polish tail on demand. The context's
 * pool accelerates the inner solves; its certificate pointer is
 * ignored (candidate solves must not clobber a caller's certificate —
 * the winner is re-solved by the caller when evidence is wanted).
 */
class AnnealingDriver
{
  public:
    /** Throws ConfigError when @p options sets no budget. */
    AnnealingDriver(const core::PartitionProblem &problem,
                    const hw::AcceleratorGroup &array,
                    SearchOptions options);

    /** Runs one full search; repeatable (each run re-seeds). */
    SearchOutcome run(const core::SolveContext &context = {}) const;

  private:
    const core::PartitionProblem &_problem;
    hw::AcceleratorGroup _array;
    SearchOptions _options;
};

/** Convenience wrapper: construct a driver and run it once. */
SearchOutcome anneal(const core::PartitionProblem &problem,
                     const hw::AcceleratorGroup &array,
                     const SearchOptions &options,
                     const core::SolveContext &context = {});

} // namespace accpar::search

#endif // ACCPAR_SEARCH_ANNEALING_H
