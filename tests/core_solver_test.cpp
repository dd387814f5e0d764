/** @file Tests of the hierarchical solver, plans and the evaluator. */

#include <gtest/gtest.h>

#include "core/hierarchical_solver.h"
#include "core/plan_evaluator.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/zoo.h"
#include "util/error.h"

namespace {

using namespace accpar;
using namespace accpar::core;
using PT = PartitionType;

hw::Hierarchy
smallHetero()
{
    return hw::Hierarchy(hw::AcceleratorGroup(
        {hw::GroupSlice{hw::tpuV2(), 4}, hw::GroupSlice{hw::tpuV3(),
                                                        4}}));
}

TEST(ChildScales, PerTypeDimension)
{
    const DimScales unit;
    const DimScales i = childScales(unit, false, PT::TypeI, 0.25);
    EXPECT_DOUBLE_EQ(i.b, 0.25);
    EXPECT_DOUBLE_EQ(i.di, 1.0);
    EXPECT_DOUBLE_EQ(i.dOut, 1.0);
    const DimScales ii = childScales(unit, false, PT::TypeII, 0.5);
    EXPECT_DOUBLE_EQ(ii.di, 0.5);
    EXPECT_DOUBLE_EQ(ii.b, 1.0);
    const DimScales iii = childScales(unit, false, PT::TypeIII, 0.5);
    EXPECT_DOUBLE_EQ(iii.dOut, 0.5);
}

TEST(ChildScales, JunctionChannelTypesCoincide)
{
    const DimScales unit;
    const DimScales ii = childScales(unit, true, PT::TypeII, 0.5);
    const DimScales iii = childScales(unit, true, PT::TypeIII, 0.5);
    EXPECT_DOUBLE_EQ(ii.di, iii.di);
    EXPECT_DOUBLE_EQ(ii.dOut, iii.dOut);
    EXPECT_DOUBLE_EQ(ii.di, 0.5);
}

TEST(ChildScales, Compose)
{
    DimScales s;
    s = childScales(s, false, PT::TypeI, 0.5);
    s = childScales(s, false, PT::TypeI, 0.5);
    s = childScales(s, false, PT::TypeII, 0.25);
    EXPECT_DOUBLE_EQ(s.b, 0.25);
    EXPECT_DOUBLE_EQ(s.di, 0.25);
    EXPECT_DOUBLE_EQ(s.dOut, 1.0);
}

TEST(ChildScales, RejectsDegenerateRatio)
{
    EXPECT_THROW(childScales(DimScales{}, false, PT::TypeI, 0.0),
                 util::ConfigError);
    EXPECT_THROW(childScales(DimScales{}, false, PT::TypeI, 1.0),
                 util::ConfigError);
}

TEST(TypeFeasible, ChannelFloorOnly)
{
    LayerDims d;
    d.b = 1.5;
    d.di = 4.0;
    d.dOut = 1.0;
    // Type-I always feasible (batch rounding is benign).
    EXPECT_TRUE(typeFeasible(d, false, PT::TypeI, 0.1, 1.0));
    // Type-II: 4.0 * 0.5 >= 1 but 4.0 * 0.1 < 1.
    EXPECT_TRUE(typeFeasible(d, false, PT::TypeII, 0.5, 1.0));
    EXPECT_FALSE(typeFeasible(d, false, PT::TypeII, 0.1, 1.0));
    // Type-III: 1.0 * 0.5 < 1.
    EXPECT_FALSE(typeFeasible(d, false, PT::TypeIII, 0.5, 1.0));
    // Junctions use the channel dim for III as well.
    EXPECT_TRUE(typeFeasible(d, true, PT::TypeIII, 0.5, 1.0));
}

TEST(Solver, PlanCoversAllInternalNodes)
{
    const graph::Graph model = models::buildLenet(64);
    const hw::Hierarchy hier = smallHetero();
    const PartitionPlan plan =
        solveHierarchy(model, hier, SolverOptions{});
    for (hw::NodeId id = 0;
         id < static_cast<hw::NodeId>(hier.nodeCount()); ++id) {
        EXPECT_EQ(plan.hasNodePlan(id), !hier.node(id).isLeaf());
    }
    EXPECT_EQ(plan.strategyName(), "accpar");
    EXPECT_EQ(plan.modelName(), "lenet");
}

TEST(Solver, TwinSubtreesAreSolvedOnce)
{
    // Below a split of a homogeneous group both halves see alpha = 0.5
    // over rate-identical subtrees, so only the left one runs the DP.
    // Uneven splits (3+5, 4+7) leave fewer or no twins.
    const struct
    {
        const char *array;
        int solved;
        std::size_t internal;
    } cases[] = {{"hetero", 15, 255},
                 {"tpu-v2:3+tpu-v3:5", 7, 7},
                 {"tpu-v2:12+tpu-v3:4", 7, 15},
                 {"tpu-v2:6+tpu-v3:2", 5, 7},
                 {"tpu-v2:4+tpu-v3:7", 8, 10}};
    Planner planner;
    for (const auto &c : cases) {
        const hw::AcceleratorGroup array = hw::parseArraySpec(c.array);
        EXPECT_EQ(hw::Hierarchy(array).internalNodes().size(),
                  c.internal)
            << c.array;
        for (int jobs : {1, 4}) {
            PlanRequest request(models::buildModel("vgg16", 64), array);
            request.jobs = jobs;
            EXPECT_EQ(planner.plan(request).solvedNodes, c.solved)
                << c.array << " jobs " << jobs;
        }
    }
}

TEST(Solver, RecordedCostsMatchEvaluator)
{
    const graph::Graph model = models::buildAlexnet(128);
    const PartitionProblem problem(model);
    const hw::Hierarchy hier = smallHetero();
    SolverOptions options;
    const PartitionPlan plan = solveHierarchy(problem, hier, options);
    const PlanEvaluation eval =
        evaluatePlan(problem, hier, plan, options.cost);
    for (hw::NodeId id : hier.internalNodes()) {
        EXPECT_NEAR(plan.nodePlan(id).cost, eval.nodeCosts[id],
                    1e-9 * (1.0 + eval.nodeCosts[id]))
            << "node " << id;
    }
    EXPECT_GT(eval.worstPathCost, 0.0);
}

TEST(Solver, FixedPolicyKeepsHalfRatios)
{
    const graph::Graph model = models::buildLenet(64);
    SolverOptions options;
    options.ratioPolicy = RatioPolicy::Fixed;
    const hw::Hierarchy hier = smallHetero();
    const PartitionPlan plan = solveHierarchy(model, hier, options);
    for (hw::NodeId id : hier.internalNodes())
        EXPECT_DOUBLE_EQ(plan.nodePlan(id).alpha, 0.5);
}

TEST(Solver, AdaptiveRatioSkewsTowardsFasterGroup)
{
    const graph::Graph model = models::buildVgg(11, 128);
    SolverOptions options;
    options.ratioPolicy = RatioPolicy::PaperLinear;
    const hw::Hierarchy hier = smallHetero();
    const PartitionPlan plan = solveHierarchy(model, hier, options);
    // Root pairs tpu-v2 (left) against tpu-v3 (right): alpha < 0.5.
    EXPECT_LT(plan.nodePlan(hier.root()).alpha, 0.5);
    // Homogeneous children balance at ~0.5.
    const hw::NodeId left = hier.node(hier.root()).left;
    EXPECT_NEAR(plan.nodePlan(left).alpha, 0.5, 1e-6);
}

TEST(Solver, ForcedSingleTypeIsRespectedEverywhere)
{
    const graph::Graph model = models::buildResnet(18, 64);
    SolverOptions options;
    options.ratioPolicy = RatioPolicy::Fixed;
    options.allowedTypes = [](const CondensedNode &) {
        return std::vector<PT>{PT::TypeI};
    };
    const hw::Hierarchy hier = smallHetero();
    const PartitionPlan plan = solveHierarchy(model, hier, options);
    for (hw::NodeId id : hier.internalNodes())
        for (PT t : plan.nodePlan(id).types)
            EXPECT_EQ(t, PT::TypeI);
}

TEST(Solver, CommAmountObjectiveMatchesHyparSetup)
{
    const graph::Graph model = models::buildAlexnet(64);
    SolverOptions options;
    options.ratioPolicy = RatioPolicy::Fixed;
    options.cost.objective = ObjectiveKind::CommAmount;
    options.cost.reduce = PairReduce::Sum;
    options.cost.includeCompute = false;
    options.allowedTypes = [](const CondensedNode &) {
        return std::vector<PT>{PT::TypeI, PT::TypeII};
    };
    const hw::Hierarchy hier = smallHetero();
    const PartitionPlan plan = solveHierarchy(model, hier, options);
    for (hw::NodeId id : hier.internalNodes())
        for (PT t : plan.nodePlan(id).types)
            EXPECT_NE(t, PT::TypeIII);
}

TEST(Solver, DeepLevelsShiftVggFcToModelPartitioning)
{
    // Figure 7's qualitative trend: FC layers prefer Type-II/III.
    const graph::Graph model = models::buildVgg(11, 512);
    const hw::Hierarchy hier(hw::AcceleratorGroup(hw::tpuV3(), 16));
    const PartitionPlan plan =
        solveHierarchy(model, hier, SolverOptions{});
    const auto &types = plan.nodePlan(hier.root()).types;
    // The three FC layers are the last three condensed nodes.
    const std::size_t n = types.size();
    EXPECT_NE(types[n - 3], PT::TypeI);
    EXPECT_NE(types[n - 2], PT::TypeI);
}

TEST(Plan, LeftmostPathHasOneEntryPerLevel)
{
    const graph::Graph model = models::buildLenet(64);
    const hw::Hierarchy hier = smallHetero();
    const PartitionPlan plan =
        solveHierarchy(model, hier, SolverOptions{});
    EXPECT_EQ(plan.leftmostPath(hier).size(),
              static_cast<std::size_t>(hier.levelCount()));
    const std::string text = plan.toString(hier);
    EXPECT_NE(text.find("level 0"), std::string::npos);
    EXPECT_NE(text.find("level 2"), std::string::npos);
}

TEST(Plan, RejectsMalformedUpdates)
{
    PartitionPlan plan("s", "m", 3, {"a", "b"});
    NodePlan np;
    np.types = {PT::TypeI}; // wrong arity
    EXPECT_THROW(plan.setNodePlan(0, np), util::ConfigError);
    np.types = {PT::TypeI, PT::TypeII};
    EXPECT_NO_THROW(plan.setNodePlan(0, np));
    EXPECT_THROW(plan.setNodePlan(5, np), util::ConfigError);
    EXPECT_THROW(plan.nodePlan(1), util::ConfigError);
}

TEST(Solver, MinDimFloorForcesFallbackType)
{
    // A 2-channel FC chain on a deep hierarchy: Type-II/III quickly
    // become infeasible and the solver must stay with Type-I instead of
    // crashing or emitting sub-channel splits.
    graph::Graph g("narrow");
    auto x = g.addInput("data", graph::TensorShape(1024, 2));
    x = g.addFullyConnected("fc1", x, 2);
    g.addFullyConnected("fc2", x, 2);

    const hw::Hierarchy hier(hw::AcceleratorGroup(hw::tpuV3(), 16));
    SolverOptions options;
    const PartitionPlan plan = solveHierarchy(g, hier, options);
    // At the deepest level the channel dims (2) cannot split four times.
    const auto path = plan.leftmostPath(hier);
    for (PT t : path.back()->types)
        EXPECT_EQ(t, PT::TypeI);
}

} // namespace
