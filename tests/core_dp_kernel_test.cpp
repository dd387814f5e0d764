/**
 * @file
 * Bit-identity tests for the flattened chain-DP kernel against the
 * frozen pre-refactor reference (tests/support/legacy_dp.*).
 *
 * The kernel rewrite is a pure performance change: every cost still
 * flows through the same PairCostModel entry points in the same order,
 * so costs, chosen types, solved ratios and whole plans must match the
 * legacy implementation exactly — EXPECT_EQ on doubles, not
 * EXPECT_NEAR. Randomized series-parallel graphs exercise residual
 * (identity-shortcut) and concat regions; the zoo models pin down the
 * real networks the paper evaluates.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/chain_dp.h"
#include "core/dp_kernel.h"
#include "core/hierarchical_solver.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "core/ratio_solver.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/zoo.h"
#include "support/graph_gen.h"
#include "support/legacy_dp.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace accpar;
using testsupport::randomModel;
using testsupport::randomRestrictions;
using testsupport::randomSeriesParallel;

static_assert(core::kNoEntryNode == -1,
              "legacy sentinel value must be preserved for any state "
              "serialized with the old constant");

TEST(DpKernel, RandomSeriesParallelMatchesLegacyBitExact)
{
    util::Rng rng(20260806);
    for (int trial = 0; trial < 25; ++trial) {
        const core::PartitionProblem problem(
            randomSeriesParallel(rng, trial));
        const core::PairCostModel model = randomModel(rng);
        const core::TypeRestrictions allowed =
            randomRestrictions(rng, problem.condensed().size());

        const core::ChainDpResult fast = core::solveChainDp(
            problem.condensed(), problem.chain(), problem.baseDims(),
            model, allowed);
        const core::ChainDpResult reference = core::legacy::solveChainDp(
            problem.condensed(), problem.chain(), problem.baseDims(),
            model, allowed);

        EXPECT_EQ(fast.cost, reference.cost) << "trial " << trial;
        EXPECT_EQ(fast.types, reference.types) << "trial " << trial;
    }
}

TEST(DpKernel, ReusedKernelMatchesFreshLegacySolvesAcrossAlphas)
{
    // One kernel, many (alpha, restriction) iterations — the exact
    // reuse pattern of the hierarchical solver's adaptive-ratio loop.
    util::Rng rng(42);
    const core::PartitionProblem problem(randomSeriesParallel(rng, 99));
    core::CostModelConfig config;
    core::PairCostModel model({2e14, 3e9}, {1e14, 8e9}, config);

    core::DpKernel kernel(problem.condensed(), problem.chain(),
                          problem.baseDims());
    const core::TypeRestrictions unrestricted =
        core::unrestrictedTypes(problem.condensed());
    for (double alpha : {0.5, 0.66, 0.125, 0.9, 0.31}) {
        model.setAlpha(alpha);
        const core::ChainDpResult fast =
            kernel.solve(model, unrestricted);
        const core::ChainDpResult reference =
            core::legacy::solveChainDp(problem.condensed(),
                                       problem.chain(),
                                       problem.baseDims(), model,
                                       unrestricted);
        EXPECT_EQ(fast.cost, reference.cost) << "alpha " << alpha;
        EXPECT_EQ(fast.types, reference.types) << "alpha " << alpha;
        EXPECT_EQ(kernel.evaluate(model, fast.types),
                  core::evaluateAssignment(problem.condensed(),
                                           problem.baseDims(), model,
                                           fast.types))
            << "alpha " << alpha;
    }
}

TEST(DpKernel, RatioTablesMatchLegacySolversBitExact)
{
    util::Rng rng(777);
    for (int trial = 0; trial < 15; ++trial) {
        const core::PartitionProblem problem(
            randomSeriesParallel(rng, 1000 + trial));
        core::PairCostModel model = randomModel(rng);
        const core::ChainDpResult dp = core::solveChainDp(
            problem.condensed(), problem.chain(), problem.baseDims(),
            model, core::unrestrictedTypes(problem.condensed()));

        const core::RatioCostTables tables(problem.condensed(),
                                           problem.baseDims(), model,
                                           dp.types);
        for (core::Side side : {core::Side::Left, core::Side::Right}) {
            EXPECT_EQ(tables.sideTotal(side, model.alpha()),
                      core::legacy::sideTotalCost(
                          problem.condensed(), problem.baseDims(),
                          model, dp.types, side))
                << "trial " << trial;
        }
        EXPECT_EQ(core::solveRatioLinear(tables, model.alpha()),
                  core::legacy::solveRatioLinear(
                      problem.condensed(), problem.baseDims(), model,
                      dp.types))
            << "trial " << trial;
        EXPECT_EQ(core::solveRatioExact(tables),
                  core::legacy::solveRatioExact(
                      problem.condensed(), problem.baseDims(), model,
                      dp.types))
            << "trial " << trial;
    }
}

TEST(DpKernel, ZooPlansByteIdenticalToLegacy)
{
    // The networks the paper evaluates, full hierarchical solve, both
    // ratio policies: the serialized plans must match byte for byte.
    // The legacy solver runs the DP at every node, so it is also the
    // reference for twin-subtree copying: the paper's 128+128 array
    // is almost all twins, the uneven arrays have few or none. On the
    // 255-node array ExactBalance runs vgg16 only: the legacy
    // bisection at every node makes resnet50 and googlenet cost
    // seconds each under ThreadSanitizer.
    const std::vector<hw::AcceleratorGroup> arrays = {
        hw::heterogeneousTpuArrayForLevels(4),
        hw::heterogeneousTpuArray(),
        hw::parseArraySpec("tpu-v2:3+tpu-v3:5"),
        hw::parseArraySpec("tpu-v2:12+tpu-v3:4"),
        hw::parseArraySpec("tpu-v2:6+tpu-v3:2"),
        hw::parseArraySpec("tpu-v2:4+tpu-v3:7")};
    for (const hw::AcceleratorGroup &array : arrays) {
        const hw::Hierarchy hierarchy(array);
        const bool paper_array = array.size() == 256;
        for (const char *name : {"vgg16", "resnet50", "googlenet"}) {
            const core::PartitionProblem problem(
                models::buildModel(name, 64));
            for (core::RatioPolicy policy :
                 {core::RatioPolicy::PaperLinear,
                  core::RatioPolicy::ExactBalance}) {
                if (paper_array &&
                    policy == core::RatioPolicy::ExactBalance &&
                    std::string(name) != "vgg16")
                    continue;
                core::SolverOptions options;
                options.ratioPolicy = policy;
                const core::PartitionPlan fast =
                    core::solveHierarchy(problem, hierarchy, options);
                const core::PartitionPlan reference =
                    core::legacy::solveHierarchy(problem, hierarchy,
                                                 options);
                EXPECT_EQ(core::planToJson(fast, hierarchy).dump(2),
                          core::planToJson(reference, hierarchy).dump(2))
                    << array.toString() << " " << name << " policy "
                    << core::ratioPolicyName(policy);
            }
        }
    }
}

TEST(DpKernel, PlanBatchMatchesIndependentPlans)
{
    // planBatch shares one PartitionProblem per distinct model across
    // the whole batch; results must still be identical to planning
    // each request alone (including with a parallel pool attached).
    std::vector<PlanRequest> requests;
    for (const char *name : {"vgg16", "alexnet", "vgg16"}) {
        for (int levels : {2, 3}) {
            PlanRequest request(
                models::buildModel(name, 64),
                hw::heterogeneousTpuArrayForLevels(levels));
            request.jobs = 4;
            requests.push_back(std::move(request));
        }
    }

    Planner batch_planner;
    const std::vector<PlanResult> batched =
        batch_planner.planBatch(requests);
    ASSERT_EQ(batched.size(), requests.size());

    for (std::size_t i = 0; i < requests.size(); ++i) {
        Planner lone_planner;
        PlanRequest lone = requests[i];
        lone.jobs = 1;
        const PlanResult alone = lone_planner.plan(lone);
        const hw::Hierarchy hierarchy(requests[i].array);
        EXPECT_EQ(core::planToJson(batched[i].plan, hierarchy).dump(2),
                  core::planToJson(alone.plan, hierarchy).dump(2))
            << "request " << i;
        EXPECT_EQ(batched[i].rootCost, alone.rootCost)
            << "request " << i;
    }
}

TEST(DpKernel, SharedDpStructureMatchesCompatCtor)
{
    util::Rng rng(2468);
    const core::PartitionProblem problem(randomSeriesParallel(rng, 7));
    core::PairCostModel model = randomModel(rng);
    const core::TypeRestrictions allowed =
        core::unrestrictedTypes(problem.condensed());

    // The compat ctor compiles its own private structure; the shared
    // ctor borrows the problem's. Same solves, same bits.
    core::DpKernel owned(problem.condensed(), problem.chain(),
                         problem.baseDims());
    core::DpKernel shared_a(problem.dpStructure(), problem.baseDims());
    core::DpKernel shared_b(problem.dpStructure(), problem.baseDims());
    for (double alpha : {0.5, 0.66, 0.125, 0.9}) {
        model.setAlpha(alpha);
        const core::ChainDpResult ref = owned.solve(model, allowed);
        const core::ChainDpResult a = shared_a.solve(model, allowed);
        const core::ChainDpResult b = shared_b.solve(model, allowed);
        EXPECT_EQ(ref.cost, a.cost) << "alpha " << alpha;
        EXPECT_EQ(ref.types, a.types) << "alpha " << alpha;
        EXPECT_EQ(ref.cost, b.cost) << "alpha " << alpha;
        EXPECT_EQ(ref.types, b.types) << "alpha " << alpha;
    }
}

TEST(DpKernel, SolveHierarchyBatchMatchesPerCandidateSolves)
{
    const core::PartitionProblem problem(
        models::buildModel("resnet50", 64));
    std::vector<hw::Hierarchy> candidates;
    for (int levels : {2, 3, 4})
        candidates.emplace_back(
            hw::heterogeneousTpuArrayForLevels(levels));
    std::vector<const hw::Hierarchy *> pointers;
    for (const hw::Hierarchy &h : candidates)
        pointers.push_back(&h);

    core::SolverOptions options;
    options.ratioPolicy = core::RatioPolicy::ExactBalance;

    const std::vector<core::PartitionPlan> sequential =
        core::solveHierarchyBatch(problem, pointers, options, {});

    util::ThreadPool pool(4);
    core::SolveContext pooled;
    pooled.pool = &pool;
    const std::vector<core::PartitionPlan> parallel =
        core::solveHierarchyBatch(problem, pointers, options, pooled);

    ASSERT_EQ(sequential.size(), candidates.size());
    ASSERT_EQ(parallel.size(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const std::string reference =
            core::planToJson(
                core::solveHierarchy(problem, candidates[i], options),
                candidates[i])
                .dump();
        EXPECT_EQ(reference,
                  core::planToJson(sequential[i], candidates[i]).dump())
            << "candidate " << i;
        EXPECT_EQ(reference,
                  core::planToJson(parallel[i], candidates[i]).dump())
            << "candidate " << i;
    }

    // Certificate emission is per-solve evidence; the batch entry
    // point must refuse a certificate-carrying context outright.
    core::PlanCertificate cert;
    core::SolveContext with_cert;
    with_cert.certificate = &cert;
    EXPECT_THROW(
        core::solveHierarchyBatch(problem, pointers, options, with_cert),
        util::ConfigError);
}

} // namespace
