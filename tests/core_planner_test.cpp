/**
 * @file
 * Tests of the accpar::Planner facade: facade results equal the direct
 * solver path, parallel plans are byte-identical to sequential ones
 * (the engine's determinism guarantee), a reused planner returns the
 * same plans as a fresh one per request, and the unified PlanOptions
 * round-trips through the deprecated SolverOptions view.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/zoo.h"
#include "strategies/registry.h"
#include "util/error.h"

namespace {

using namespace accpar;

std::string
planBytes(const core::PartitionPlan &plan, const hw::Hierarchy &hierarchy)
{
    return core::planToJson(plan, hierarchy).dump(2);
}

TEST(PlannerTest, FacadeMatchesDirectSolverOnLeNetAndAlexNet)
{
    const hw::AcceleratorGroup array = hw::heterogeneousTpuArrayForLevels(3);
    const hw::Hierarchy hierarchy(array);

    for (const std::string name : {"lenet", "alexnet"}) {
        for (const std::string strategy :
             {"dp", "owt", "hypar", "accpar"}) {
            const graph::Graph model = models::buildModel(name, 64);
            const core::PartitionProblem problem(model);
            const core::PartitionPlan direct =
                strategies::makeStrategy(strategy)->plan(problem,
                                                         hierarchy);

            Planner planner;
            PlanRequest request(model, array);
            request.strategy = strategy;
            const PlanResult result = planner.plan(request);

            EXPECT_EQ(planBytes(result.plan, hierarchy),
                      planBytes(direct, hierarchy))
                << name << "/" << strategy;
        }
    }
}

TEST(PlannerTest, ParallelPlanIsByteIdenticalToSequential)
{
    // The acceptance triple: VGG, ResNet and Inception on a 2-level
    // heterogeneous hierarchy, --jobs 4 vs sequential.
    const hw::AcceleratorGroup array = hw::heterogeneousTpuArrayForLevels(2);
    const hw::Hierarchy hierarchy(array);

    for (const std::string name : {"vgg16", "resnet50", "googlenet"}) {
        const graph::Graph model = models::buildModel(name, 64);

        Planner planner;
        PlanRequest request(model, array);
        request.jobs = 1;
        const std::string sequential =
            planBytes(planner.plan(request).plan, hierarchy);
        request.jobs = 4;
        const std::string parallel =
            planBytes(planner.plan(request).plan, hierarchy);

        EXPECT_EQ(parallel, sequential) << name;
    }
}

TEST(PlannerTest, DeeperHierarchyStaysDeterministicUnderThreads)
{
    const hw::AcceleratorGroup array = hw::heterogeneousTpuArrayForLevels(5);
    const hw::Hierarchy hierarchy(array);
    const graph::Graph model = models::buildModel("alexnet", 128);

    Planner planner;
    PlanRequest request(model, array);
    const std::string sequential =
        planBytes(planner.plan(request).plan, hierarchy);
    for (int jobs : {2, 4, 8}) {
        request.jobs = jobs;
        EXPECT_EQ(planBytes(planner.plan(request).plan, hierarchy),
                  sequential)
            << "jobs=" << jobs;
    }
}

TEST(PlannerTest, ReusedPlannerMatchesFreshPlannerPerRequest)
{
    // One Planner serving an interleaved stream (model, array and jobs
    // change from request to request, and the stream runs twice) must
    // return the bytes a fresh Planner returns for each request alone:
    // nothing a request leaves behind may leak into the next one.
    const std::vector<hw::AcceleratorGroup> arrays = {
        hw::parseArraySpec("tpu-v2:2+tpu-v3:2"),
        hw::heterogeneousTpuArrayForLevels(3)};
    std::vector<PlanRequest> requests;
    for (int jobs : {1, 4}) {
        for (const hw::AcceleratorGroup &array : arrays) {
            for (const std::string name : {"lenet", "vgg16"}) {
                PlanRequest request(models::buildModel(name, 64), array);
                request.jobs = jobs;
                requests.push_back(request);
            }
        }
    }

    std::vector<std::string> fresh;
    for (const PlanRequest &request : requests) {
        Planner planner;
        fresh.push_back(planBytes(planner.plan(request).plan,
                                  hw::Hierarchy(request.array)));
    }

    Planner reused;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const hw::Hierarchy hierarchy(requests[i].array);
            EXPECT_EQ(planBytes(reused.plan(requests[i]).plan, hierarchy),
                      fresh[i])
                << requests[i].model.name() << " on "
                << requests[i].array.toString() << " jobs "
                << requests[i].jobs << " pass " << pass;
        }
    }
}

TEST(PlannerTest, PlanBatchMatchesIndividualPlans)
{
    const hw::AcceleratorGroup array = hw::heterogeneousTpuArrayForLevels(3);
    const hw::Hierarchy hierarchy(array);

    std::vector<PlanRequest> requests;
    for (const std::string name : {"lenet", "alexnet", "vgg11"}) {
        PlanRequest request(models::buildModel(name, 32), array);
        request.jobs = 4;
        requests.push_back(request);
    }

    Planner batch_planner;
    const std::vector<PlanResult> together =
        batch_planner.planBatch(requests);
    ASSERT_EQ(together.size(), requests.size());

    for (std::size_t i = 0; i < requests.size(); ++i) {
        Planner solo;
        PlanRequest request = requests[i];
        request.jobs = 1;
        EXPECT_EQ(planBytes(together[i].plan, hierarchy),
                  planBytes(solo.plan(request).plan, hierarchy))
            << requests[i].model.name();
    }
}

TEST(PlannerTest, CompareNormalizesToDataParallelism)
{
    PlanRequest request(models::buildModel("lenet", 32),
                        hw::heterogeneousTpuArrayForLevels(2));
    request.jobs = 2;

    Planner planner;
    const StrategyComparison comparison = planner.compare(request);

    ASSERT_EQ(comparison.plans.size(), 4u);
    ASSERT_EQ(comparison.runs.size(), 4u);
    ASSERT_EQ(comparison.speedup.size(), 4u);
    EXPECT_DOUBLE_EQ(comparison.speedup[0], 1.0);
    EXPECT_EQ(comparison.plans[0].strategy, "dp");
    EXPECT_EQ(comparison.plans[3].strategy, "accpar");
    for (const sim::TrainingRunResult &run : comparison.runs)
        EXPECT_GT(run.throughput, 0.0);
}

TEST(PlannerTest, CustomStrategyWithDefaultOptionsMatchesAccPar)
{
    const hw::AcceleratorGroup array = hw::heterogeneousTpuArrayForLevels(3);
    const hw::Hierarchy hierarchy(array);
    const graph::Graph model = models::buildModel("alexnet", 64);

    Planner planner;
    PlanRequest request(model, array);
    request.strategy = "custom";
    const PlanResult custom = planner.plan(request);
    request.strategy = "accpar";
    const PlanResult accpar = planner.plan(request);

    EXPECT_EQ(custom.strategy, "custom");
    for (hw::NodeId id : hierarchy.internalNodes()) {
        const core::NodePlan &a = custom.plan.nodePlan(id);
        const core::NodePlan &b = accpar.plan.nodePlan(id);
        EXPECT_EQ(a.alpha, b.alpha);
        EXPECT_EQ(a.types, b.types);
        EXPECT_EQ(a.cost, b.cost);
    }
}

TEST(PlannerTest, SimulateReportsARunnableStep)
{
    PlanRequest request(models::buildModel("lenet", 32),
                        hw::heterogeneousTpuArrayForLevels(2));
    Planner planner;
    const SimulationResult result = planner.simulate(request);
    EXPECT_GT(result.run.throughput, 0.0);
    EXPECT_GT(result.run.stepTime, 0.0);
    EXPECT_EQ(result.plan.model, result.run.modelName);
}

TEST(PlanOptionsTest, RoundTripsThroughDeprecatedSolverOptions)
{
    PlanOptions options;
    options.objective = core::ObjectiveKind::CommAmount;
    options.reduce = core::PairReduce::Sum;
    options.includeCompute = false;
    options.bytesPerElement = 4.0;
    options.ratioPolicy = core::RatioPolicy::ExactBalance;
    options.ratioIterations = 7;
    options.minDimPerSide = 2.0;

    const core::SolverOptions solver = options.toSolverOptions("custom");
    EXPECT_EQ(solver.cost.objective, core::ObjectiveKind::CommAmount);
    EXPECT_EQ(solver.cost.reduce, core::PairReduce::Sum);
    EXPECT_FALSE(solver.cost.includeCompute);
    EXPECT_EQ(solver.cost.bytesPerElement, 4.0);
    EXPECT_EQ(solver.ratioPolicy, core::RatioPolicy::ExactBalance);
    EXPECT_EQ(solver.ratioIterations, 7);
    EXPECT_EQ(solver.minDimPerSide, 2.0);
    EXPECT_EQ(solver.strategyName, "custom");

    const PlanOptions back = PlanOptions::fromSolverOptions(solver);
    EXPECT_EQ(back.objective, options.objective);
    EXPECT_EQ(back.reduce, options.reduce);
    EXPECT_EQ(back.includeCompute, options.includeCompute);
    EXPECT_EQ(back.bytesPerElement, options.bytesPerElement);
    EXPECT_EQ(back.ratioPolicy, options.ratioPolicy);
    EXPECT_EQ(back.ratioIterations, options.ratioIterations);
    EXPECT_EQ(back.minDimPerSide, options.minDimPerSide);
}

TEST(PlannerTest, UnknownStrategyNameThrows)
{
    PlanRequest request(models::buildModel("lenet", 32),
                        hw::heterogeneousTpuArrayForLevels(2));
    request.strategy = "definitely-not-a-strategy";
    Planner planner;
    EXPECT_THROW(planner.plan(request), util::ConfigError);
}

TEST(PlannerTest, CanonicalKeyIdentifiesTheWork)
{
    const hw::AcceleratorGroup array = hw::parseArraySpec("tpu-v3:2");
    const PlanRequest base(models::buildModel("lenet", 32), array);

    // Identical requests built independently share one key — that is
    // what makes cross-request memoization sound.
    const PlanRequest same(models::buildModel("lenet", 32), array);
    EXPECT_EQ(planRequestCanonicalKey(base),
              planRequestCanonicalKey(same));
    EXPECT_EQ(planRequestFingerprint(base),
              planRequestFingerprint(same));

    // Execution knobs that cannot change the resulting plan are
    // excluded from the key.
    PlanRequest jobs(models::buildModel("lenet", 32), array);
    jobs.jobs = 8;
    EXPECT_EQ(planRequestCanonicalKey(base),
              planRequestCanonicalKey(jobs));

    // Anything that can change the answer must change the key.
    const PlanRequest batch(models::buildModel("lenet", 64), array);
    const PlanRequest model(models::buildModel("alexnet", 32), array);
    const PlanRequest wider(models::buildModel("lenet", 32),
                            hw::parseArraySpec("tpu-v3:4"));
    PlanRequest strategy(models::buildModel("lenet", 32), array);
    strategy.strategy = "hypar";
    PlanRequest no_verify(models::buildModel("lenet", 32), array);
    no_verify.options.verify = false;

    const std::string base_key = planRequestCanonicalKey(base);
    const PlanRequest *others[] = {&batch, &model, &wider, &strategy,
                                   &no_verify};
    for (const PlanRequest *other : others) {
        EXPECT_NE(planRequestCanonicalKey(*other), base_key);
        EXPECT_NE(planRequestFingerprint(*other),
                  planRequestFingerprint(base));
    }
}

} // namespace
