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
#include "util/rng.h"

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

} // namespace
