/**
 * @file
 * Plan-certificate tests: clean emission passes the independent
 * checker (with the brute-force oracle confirming DP optimality on
 * small graphs), serialization round-trips byte-identically, parallel
 * emission is bit-identical to sequential, and every class of
 * corruption — table cells, Bellman rows, parent pointers, type
 * assignments, ratio brackets, document structure — is rejected with
 * its distinct AC2xx / ACIO rule code.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "analysis/certificate_checker.h"
#include "analysis/diagnostic.h"
#include "core/certificate.h"
#include "core/certificate_io.h"
#include "core/chain_dp.h"
#include "core/hierarchical_solver.h"
#include "core/plan.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/zoo.h"
#include "support/graph_gen.h"
#include "util/rng.h"

namespace {

using namespace accpar;
using PT = core::PartitionType;

/** One solve with its evidence trail. */
struct Solved
{
    core::PartitionPlan plan;
    core::PlanCertificate cert;
};

Solved
solveWithCert(const core::PartitionProblem &problem,
              const hw::Hierarchy &hierarchy,
              const core::SolverOptions &options = {})
{
    Solved out;
    core::SolveContext context;
    context.certificate = &out.cert;
    out.plan = core::solveHierarchy(problem, hierarchy, options, context);
    return out;
}

/** Runs the checker and returns the sink for code assertions. */
analysis::DiagnosticSink
audit(const core::PartitionProblem &problem,
      const hw::Hierarchy &hierarchy, const Solved &solved,
      std::size_t exhaustive_max_layers = 0)
{
    analysis::DiagnosticSink sink;
    analysis::CheckOptions options;
    options.exhaustiveMaxLayers = exhaustive_max_layers;
    analysis::checkCertificate(problem, hierarchy, solved.plan,
                               solved.cert, options, sink);
    return sink;
}

/** Applies @p mutate to the root hierarchy node's certificate entry. */
template <typename Fn>
void
corruptRoot(Solved &solved, const hw::Hierarchy &hierarchy, Fn mutate)
{
    core::NodeCertificate nc =
        solved.cert.nodeCertificate(hierarchy.root());
    mutate(nc);
    solved.cert.setNodeCertificate(hierarchy.root(), std::move(nc));
}

/** The independent model rebuild the checker performs (tests that
 *  corrupt the assignment use it to keep AC201/AC206 self-consistent
 *  so the one-swap and oracle rules are what fires). */
core::PairCostModel
rootModel(const hw::Hierarchy &hierarchy,
          const core::PlanCertificate &cert, double alpha)
{
    const hw::HierarchyNode &root = hierarchy.node(hierarchy.root());
    const hw::AcceleratorGroup &lg = hierarchy.node(root.left).group;
    const hw::AcceleratorGroup &rg = hierarchy.node(root.right).group;
    core::PairCostModel model(
        {lg.computeDensity(), lg.linkBandwidth()},
        {rg.computeDensity(), rg.linkBandwidth()}, cert.searchCost());
    model.setAlpha(alpha);
    return model;
}

TEST(CertificateChecker, CleanLenetCertificatePassesWithOracle)
{
    const core::PartitionProblem problem(models::buildModel("lenet", 32));
    const hw::Hierarchy hierarchy(hw::parseArraySpec("tpu-v3:4"));
    for (core::RatioPolicy policy :
         {core::RatioPolicy::PaperLinear,
          core::RatioPolicy::ExactBalance, core::RatioPolicy::Fixed}) {
        core::SolverOptions options;
        options.ratioPolicy = policy;
        const Solved solved = solveWithCert(problem, hierarchy, options);
        // lenet condenses to 5 nodes, so the 3^N oracle also runs and
        // must agree with the DP at every hierarchy node.
        const analysis::DiagnosticSink sink =
            audit(problem, hierarchy, solved, 10);
        EXPECT_EQ(sink.errorCount(), 0u)
            << core::ratioPolicyName(policy) << "\n"
            << sink.renderText();
    }
}

TEST(CertificateChecker, ZooCertificatesPassAudit)
{
    for (const char *name : {"vgg16", "resnet50", "googlenet"}) {
        const core::PartitionProblem problem(
            models::buildModel(name, 64));
        const hw::Hierarchy hierarchy(
            hw::heterogeneousTpuArrayForLevels(3));
        const Solved solved = solveWithCert(problem, hierarchy);
        const analysis::DiagnosticSink sink =
            audit(problem, hierarchy, solved);
        EXPECT_EQ(sink.errorCount(), 0u)
            << name << "\n" << sink.renderText();
    }
}

TEST(CertificateChecker, ParallelEmissionByteIdenticalToSequential)
{
    const hw::AcceleratorGroup array =
        hw::heterogeneousTpuArrayForLevels(3);
    const hw::Hierarchy hierarchy(array);
    std::array<std::string, 2> dumps;
    for (int i = 0; i < 2; ++i) {
        PlanRequest request(models::buildModel("vgg16", 64), array);
        request.jobs = i == 0 ? 1 : 4;
        request.options.emitCertificate = true;
        Planner planner;
        const PlanResult result = planner.plan(request);
        ASSERT_NE(result.certificate, nullptr);
        dumps[static_cast<std::size_t>(i)] =
            core::certificateToJson(*result.certificate, hierarchy)
                .dump(2);
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(CertificateChecker, TwinSubtreeCertificatesMatchAcrossJobsAndAudit)
{
    // On the 128+128 array all but 15 of 255 node certificates are
    // copied from a twin subtree; the checker audits every one of them
    // independently, and parallel emission must still match serial.
    const hw::AcceleratorGroup array = hw::heterogeneousTpuArray();
    const hw::Hierarchy hierarchy(array);
    const core::PartitionProblem problem(models::buildModel("vgg16", 64));
    std::array<std::string, 2> dumps;
    for (int i = 0; i < 2; ++i) {
        PlanRequest request(models::buildModel("vgg16", 64), array);
        request.jobs = i == 0 ? 1 : 4;
        request.options.emitCertificate = true;
        Planner planner;
        const PlanResult result = planner.plan(request);
        ASSERT_NE(result.certificate, nullptr);
        EXPECT_EQ(result.solvedNodes, 15);
        dumps[static_cast<std::size_t>(i)] =
            core::certificateToJson(*result.certificate, hierarchy)
                .dump(2);
        analysis::DiagnosticSink sink;
        analysis::checkCertificate(problem, hierarchy, result.plan,
                                   *result.certificate,
                                   analysis::CheckOptions{}, sink);
        EXPECT_EQ(sink.errorCount(), 0u) << sink.renderText();
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(CertificateChecker, RandomSeriesParallelRoundTripsAndPasses)
{
    util::Rng rng(20260806);
    const hw::Hierarchy hierarchy(
        hw::heterogeneousTpuArrayForLevels(2));
    for (int trial = 0; trial < 8; ++trial) {
        const core::PartitionProblem problem(
            testsupport::randomSeriesParallel(rng, trial));
        const Solved solved = solveWithCert(problem, hierarchy);

        // Small graphs escalate to the exhaustive oracle.
        const std::size_t oracle =
            problem.condensed().size() <= 10 ? 10 : 0;
        const analysis::DiagnosticSink sink =
            audit(problem, hierarchy, solved, oracle);
        EXPECT_EQ(sink.errorCount(), 0u)
            << "trial " << trial << "\n" << sink.renderText();

        // emit -> serialize -> load -> re-emit is byte-identical, and
        // the reloaded certificate still audits clean.
        const util::Json doc =
            core::certificateToJson(solved.cert, hierarchy);
        Solved reloaded{solved.plan,
                        core::certificateFromJson(doc, hierarchy)};
        EXPECT_EQ(doc.dump(2),
                  core::certificateToJson(reloaded.cert, hierarchy)
                      .dump(2))
            << "trial " << trial;
        EXPECT_EQ(audit(problem, hierarchy, reloaded).errorCount(), 0u)
            << "trial " << trial;
    }
}

TEST(CertificateChecker, FingerprintIsStableAndSensitive)
{
    const core::PartitionProblem problem(models::buildModel("lenet", 32));
    const hw::Hierarchy hierarchy(hw::parseArraySpec("tpu-v3:2"));
    const Solved solved = solveWithCert(problem, hierarchy);
    util::Json doc = core::certificateToJson(solved.cert, hierarchy);
    const std::string fingerprint = core::certificateFingerprint(doc);
    EXPECT_EQ(fingerprint.size(), 16u);
    EXPECT_EQ(fingerprint, core::certificateFingerprint(doc));
    doc["model"] = "not-lenet";
    EXPECT_NE(fingerprint, core::certificateFingerprint(doc));
}

/** Fixture for the corruption tests: one internal hierarchy node, so
 *  every rule fires exactly where the corruption was planted. */
class CertificateCorruption : public ::testing::Test
{
  protected:
    CertificateCorruption()
        : problem(models::buildModel("lenet", 32)),
          hierarchy(hw::parseArraySpec("tpu-v3:2")),
          solved(solveWithCert(problem, hierarchy))
    {
    }

    core::PartitionProblem problem;
    hw::Hierarchy hierarchy;
    Solved solved;
};

TEST_F(CertificateCorruption, MetadataDriftFiresAC201)
{
    corruptRoot(solved, hierarchy,
                [](core::NodeCertificate &nc) { nc.cost += 1.0; });
    const analysis::DiagnosticSink sink =
        audit(problem, hierarchy, solved);
    EXPECT_TRUE(sink.hasCode("AC201")) << sink.renderText();
    EXPECT_GT(sink.errorCount(), 0u);
}

TEST_F(CertificateCorruption, NodeTableDriftFiresAC202)
{
    corruptRoot(solved, hierarchy, [](core::NodeCertificate &nc) {
        const auto ti = static_cast<std::size_t>(
            core::partitionTypeIndex(nc.types[0]));
        nc.nodeTable[0][ti] = nc.nodeTable[0][ti] * 1.5 + 1.0;
    });
    const analysis::DiagnosticSink sink =
        audit(problem, hierarchy, solved);
    EXPECT_TRUE(sink.hasCode("AC202")) << sink.renderText();
}

TEST_F(CertificateCorruption, EdgeCellDriftFiresAC203)
{
    corruptRoot(solved, hierarchy, [](core::NodeCertificate &nc) {
        ASSERT_FALSE(nc.edges.empty());
        core::CertificateEdge &edge = nc.edges[0];
        const auto fi = static_cast<std::size_t>(
            core::partitionTypeIndex(
                nc.types[static_cast<std::size_t>(edge.from)]));
        const auto ti = static_cast<std::size_t>(
            core::partitionTypeIndex(
                nc.types[static_cast<std::size_t>(edge.to)]));
        edge.cost[fi * 3 + ti] = edge.cost[fi * 3 + ti] * 1.5 + 1.0;
    });
    const analysis::DiagnosticSink sink =
        audit(problem, hierarchy, solved);
    EXPECT_TRUE(sink.hasCode("AC203")) << sink.renderText();
}

TEST_F(CertificateCorruption, BellmanCellDriftFiresAC204)
{
    corruptRoot(solved, hierarchy, [](core::NodeCertificate &nc) {
        const std::size_t last = nc.dpCost.size() - 1;
        const auto ti = static_cast<std::size_t>(nc.exitType);
        nc.dpCost[last][ti] = nc.dpCost[last][ti] * 1.5 + 1.0;
    });
    const analysis::DiagnosticSink sink =
        audit(problem, hierarchy, solved);
    EXPECT_TRUE(sink.hasCode("AC204")) << sink.renderText();
}

TEST_F(CertificateCorruption, ParentPointerFlipFiresAC205)
{
    corruptRoot(solved, hierarchy, [](core::NodeCertificate &nc) {
        const std::size_t last = nc.dpParent.size() - 1;
        const auto ti = static_cast<std::size_t>(nc.exitType);
        nc.dpParent[last][ti] = static_cast<std::int8_t>(
            (nc.dpParent[last][ti] + 1) % 3);
    });
    const analysis::DiagnosticSink sink =
        audit(problem, hierarchy, solved);
    EXPECT_TRUE(sink.hasCode("AC205")) << sink.renderText();
}

TEST_F(CertificateCorruption, ExitTypeFlipFiresAC206)
{
    corruptRoot(solved, hierarchy, [](core::NodeCertificate &nc) {
        nc.exitType = (nc.exitType + 1) % 3;
    });
    const analysis::DiagnosticSink sink =
        audit(problem, hierarchy, solved);
    EXPECT_TRUE(sink.hasCode("AC206")) << sink.renderText();
}

TEST_F(CertificateCorruption, SuboptimalAssignmentFiresOneSwapAndOracle)
{
    // Rewrite plan AND certificate to a deliberately suboptimal
    // assignment whose recorded cost is self-consistent (so the drift
    // rules stay quiet about it): flipping the layer back must lower
    // the cost, which is exactly what AC207 and — with the exhaustive
    // escalation — AC208 prove.
    const hw::NodeId root = hierarchy.root();
    core::NodeCertificate nc = solved.cert.nodeCertificate(root);

    // Pick a layer with an alternative allowed type whose flip
    // actually changes the cost.
    const core::PairCostModel model =
        rootModel(hierarchy, solved.cert, nc.alpha);
    std::size_t layer = 0;
    PT flipped = nc.types[0];
    double flipped_cost = nc.cost;
    bool found = false;
    for (std::size_t v = 0; v < nc.types.size() && !found; ++v) {
        for (PT t : nc.allowed[v]) {
            if (t == nc.types[v])
                continue;
            std::vector<PT> types = nc.types;
            types[v] = t;
            const double cost = core::evaluateAssignment(
                problem.condensed(), problem.baseDims(), model, types);
            if (cost > nc.cost * (1.0 + 1e-6)) {
                layer = v;
                flipped = t;
                flipped_cost = cost;
                found = true;
                break;
            }
        }
    }
    ASSERT_TRUE(found) << "no cost-increasing flip found";

    nc.types[layer] = flipped;
    nc.cost = flipped_cost;
    solved.cert.setNodeCertificate(root, std::move(nc));
    core::NodePlan np = solved.plan.nodePlan(root);
    np.types[layer] = flipped;
    np.cost = flipped_cost;
    solved.plan.setNodePlan(root, std::move(np));

    const analysis::DiagnosticSink one_swap =
        audit(problem, hierarchy, solved);
    EXPECT_TRUE(one_swap.hasCode("AC207")) << one_swap.renderText();

    const analysis::DiagnosticSink oracle =
        audit(problem, hierarchy, solved, 10);
    EXPECT_TRUE(oracle.hasCode("AC208")) << oracle.renderText();
}

TEST_F(CertificateCorruption, MalformedBracketFiresAC209)
{
    corruptRoot(solved, hierarchy, [](core::NodeCertificate &nc) {
        nc.alphaLo = 0.9;
        nc.alphaHi = 0.2;
    });
    EXPECT_TRUE(
        audit(problem, hierarchy, solved).hasCode("AC209"));

    solved = solveWithCert(problem, hierarchy);
    corruptRoot(solved, hierarchy, [](core::NodeCertificate &nc) {
        nc.alphaHistory.clear();
    });
    EXPECT_TRUE(
        audit(problem, hierarchy, solved).hasCode("AC209"));
}

TEST(CertificateIo, RejectsForeignAndMalformedDocuments)
{
    const core::PartitionProblem problem(models::buildModel("lenet", 32));
    const hw::Hierarchy hierarchy(hw::parseArraySpec("tpu-v3:2"));
    const Solved solved = solveWithCert(problem, hierarchy);
    const util::Json doc =
        core::certificateToJson(solved.cert, hierarchy);

    auto loadWith = [&](const util::Json &mutated,
                        const hw::Hierarchy &h) {
        analysis::DiagnosticSink sink;
        const std::optional<core::PlanCertificate> cert =
            core::certificateFromJson(mutated, h, sink);
        EXPECT_FALSE(cert.has_value());
        return sink;
    };

    {
        util::Json bad = doc;
        bad["format"] = "bogus-v0";
        EXPECT_TRUE(loadWith(bad, hierarchy).hasCode("ACIO01"));
    }
    {
        const hw::Hierarchy other(hw::parseArraySpec("tpu-v3:4"));
        EXPECT_TRUE(loadWith(doc, other).hasCode("ACIO02"));
    }
    {
        util::Json bad = doc;
        bad["search"] = util::Json();
        EXPECT_TRUE(loadWith(bad, hierarchy).hasCode("ACIO03"));
    }
    {
        util::Json bad = doc;
        util::Json::Array nodes = doc.at("nodes").asArray();
        nodes[0]["types"] = "bogus";
        bad["nodes"] = util::Json(nodes);
        EXPECT_TRUE(loadWith(bad, hierarchy).hasCode("ACIO04"));
    }
    {
        util::Json bad = doc;
        util::Json::Array nodes = doc.at("nodes").asArray();
        nodes[0]["node"] = 999;
        bad["nodes"] = util::Json(nodes);
        EXPECT_TRUE(loadWith(bad, hierarchy).hasCode("ACIO05"));
    }
    {
        util::Json bad = doc;
        util::Json::Array nodes = doc.at("nodes").asArray();
        nodes.push_back(nodes[0]); // duplicate hierarchy node entry
        bad["nodes"] = util::Json(nodes);
        EXPECT_TRUE(loadWith(bad, hierarchy).hasCode("ACIO05"));
    }
}

} // namespace
