/** @file Tests for partition-plan JSON serialization. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "analysis/plan_verifier.h"
#include "core/certificate_io.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/catalog.h"
#include "models/zoo.h"
#include "strategies/registry.h"
#include "util/error.h"

namespace {

using namespace accpar;

hw::Hierarchy
smallArray()
{
    return hw::Hierarchy(hw::AcceleratorGroup(
        {hw::GroupSlice{hw::tpuV2(), 2}, hw::GroupSlice{hw::tpuV3(),
                                                        2}}));
}

core::PartitionPlan
somePlan(const hw::Hierarchy &hier)
{
    const graph::Graph model = models::buildAlexnet(64);
    return strategies::makeStrategy("accpar")->plan(model, hier);
}

TEST(PlanIo, JsonRoundTripPreservesEverything)
{
    const hw::Hierarchy hier = smallArray();
    const core::PartitionPlan plan = somePlan(hier);

    const util::Json doc = core::planToJson(plan, hier);
    const core::PartitionPlan loaded = core::planFromJson(doc, hier);

    EXPECT_EQ(loaded.strategyName(), plan.strategyName());
    EXPECT_EQ(loaded.modelName(), plan.modelName());
    EXPECT_EQ(loaded.nodeNames(), plan.nodeNames());
    for (hw::NodeId id : hier.internalNodes()) {
        const core::NodePlan &a = plan.nodePlan(id);
        const core::NodePlan &b = loaded.nodePlan(id);
        EXPECT_DOUBLE_EQ(a.alpha, b.alpha);
        EXPECT_DOUBLE_EQ(a.cost, b.cost);
        EXPECT_EQ(a.types, b.types);
    }
}

TEST(PlanIo, TextualRoundTripThroughDump)
{
    const hw::Hierarchy hier = smallArray();
    const core::PartitionPlan plan = somePlan(hier);
    const std::string text = core::planToJson(plan, hier).dump(2);
    const core::PartitionPlan loaded =
        core::planFromJson(util::Json::parse(text), hier);
    EXPECT_EQ(loaded.nodePlan(hier.root()).types,
              plan.nodePlan(hier.root()).types);
}

TEST(PlanIo, FileSaveAndLoad)
{
    const hw::Hierarchy hier = smallArray();
    const core::PartitionPlan plan = somePlan(hier);
    const std::string path = "/tmp/accpar_plan_io_test.json";
    core::savePlan(plan, hier, path);
    const core::PartitionPlan loaded = core::loadPlan(path, hier);
    EXPECT_EQ(loaded.modelName(), plan.modelName());
    std::remove(path.c_str());
}

TEST(PlanIo, RejectsWrongHierarchy)
{
    const hw::Hierarchy hier = smallArray();
    const core::PartitionPlan plan = somePlan(hier);
    const util::Json doc = core::planToJson(plan, hier);

    const hw::Hierarchy other(hw::AcceleratorGroup(hw::tpuV3(), 4));
    EXPECT_THROW(core::planFromJson(doc, other), util::ConfigError);
}

TEST(PlanIo, RejectsForeignDocuments)
{
    const hw::Hierarchy hier = smallArray();
    EXPECT_THROW(
        core::planFromJson(util::Json::parse("{\"hello\": 1}"), hier),
        util::ConfigError);
}

TEST(PlanIo, RejectsIncompleteNodeSets)
{
    const hw::Hierarchy hier = smallArray();
    const core::PartitionPlan plan = somePlan(hier);
    util::Json doc = core::planToJson(plan, hier);
    // Drop one node entry.
    util::Json truncated = doc;
    util::Json nodes;
    const auto &arr = doc.at("nodes").asArray();
    for (std::size_t i = 0; i + 1 < arr.size(); ++i)
        nodes.push(arr[i]);
    truncated["nodes"] = std::move(nodes);
    EXPECT_THROW(core::planFromJson(truncated, hier),
                 util::ConfigError);
}

TEST(PlanIo, MissingFileThrows)
{
    const hw::Hierarchy hier = smallArray();
    EXPECT_THROW(core::loadPlan("/nonexistent/path.json", hier),
                 util::ConfigError);
}

TEST(PlanIo, ResnetMultiPathRoundTripIsByteIdentical)
{
    // The full serve-and-reload contract on a multi-path graph (ResNet
    // skip connections): serialize, load, re-verify against the
    // verifier, and re-serialize to the byte-identical document.
    const hw::Hierarchy hier = smallArray();
    const graph::Graph model = models::buildModel("resnet18", 64);
    const core::PartitionPlan plan =
        strategies::makeStrategy("accpar")->plan(model, hier);

    const std::string first = core::planToJson(plan, hier).dump(2);
    const core::PartitionPlan loaded =
        core::planFromJson(util::Json::parse(first), hier);

    analysis::DiagnosticSink sink;
    analysis::VerifyOptions options;
    options.cost = strategies::makeStrategy("accpar")->costConfig();
    const core::PartitionProblem problem(model);
    analysis::verifyPlan(problem, hier, loaded, options, sink);
    EXPECT_FALSE(sink.hasErrors()) << sink.renderText();

    EXPECT_EQ(core::planToJson(loaded, hier).dump(2), first);
}

TEST(PlanIo, TruncatedFileIsApio01WithByteOffset)
{
    // A cut-off plan file is a user error: one APIO01 diagnostic whose
    // message names the byte offset, never a failed-check condition
    // or a source path.
    const hw::Hierarchy hier = smallArray();
    const std::string text = core::planToJson(somePlan(hier), hier).dump();
    const std::string path = "/tmp/accpar_plan_io_truncated.json";
    // Cut after the first member: {"format":"accpar-plan-v1",
    std::ofstream(path) << text.substr(0, text.find(',') + 1);

    analysis::DiagnosticSink sink;
    EXPECT_FALSE(core::loadPlan(path, hier, sink).has_value());
    std::remove(path.c_str());
    ASSERT_EQ(sink.diagnostics().size(), 1u);
    const analysis::Diagnostic &d = sink.diagnostics().front();
    EXPECT_EQ(d.code, "APIO01");
    EXPECT_NE(d.message.find("unexpected end of JSON input at byte 27"),
              std::string::npos)
        << d.message;
    EXPECT_EQ(d.message.find("requirement failed"), std::string::npos);
    EXPECT_EQ(d.message.find(".cpp:"), std::string::npos);
}

/** FNV-1a 64 of @p text as 16 lowercase hex digits. */
std::string
fnv1aHex(const std::string &text)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (unsigned char byte : text) {
        hash ^= byte;
        hash *= 1099511628211ull;
    }
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[hash & 0xF];
        hash >>= 4;
    }
    return out;
}

struct GoldenCase
{
    const char *model;
    const char *array;
    /** Digests of planToJson(...).dump() and .dump(2). */
    const char *compact;
    const char *pretty;
    /** certificateFingerprint of the plan's certificate. */
    const char *certificate;
    core::RatioPolicy policy = core::RatioPolicy::PaperLinear;
};

TEST(PlanIo, GoldenSerializationBytes)
{
    // Pins plan and certificate bytes across commits. The digests were
    // recorded before util::Json moved to a std::variant and to_chars
    // number formatting; a change here means a serializer changed its
    // output, which breaks every stored plan, certificate and
    // fingerprint.
    const GoldenCase cases[] = {
        {"lenet", "tpu-v2:2+tpu-v3:2",
         "bcd34b9c83706760", "b8879a49811760a0", "9563faad5a478c5c"},
        {"vgg16", "tpu-v2:2+tpu-v3:2",
         "b1201080e0764437", "58c9d2a1bc4db21b", "c12c8839e59a19b0"},
        {"resnet50", "tpu-v2:2+tpu-v3:2",
         "d56edd39ee55918c", "ed8d3b59fea17fa8", "2fed05cb93ec1fba"},
        {"bert-base", "tpu-v2:2+tpu-v3:2",
         "55a1c21b3ed8218f", "94251b0b7b8a2b19", "b0c40fba1ee86186"},
        {"lenet", "tpu-v2:4+tpu-v3:7",
         "ae5b0decb1ddc5a0", "f862cee556963dec", "7a8bf0a238e8d048"},
        {"vgg16", "tpu-v2:4+tpu-v3:7",
         "5c8d0a791e8d52dd", "8cb62d928475060b", "35ad3c575c04fb51"},
        {"resnet50", "tpu-v2:4+tpu-v3:7",
         "fb21d4117972df18", "d15fcebd2491869c", "6dbff31fdadf8ba8"},
        {"bert-base", "tpu-v2:4+tpu-v3:7",
         "459a8ab40e68154d", "ebf8c718213bd5db", "c891c6564e8c19fd"},
        {"vgg16", "hetero",
         "b83bd16112d0a4de", "ce60376ecacf39ac", "a05949159b8cff36"},
        // ExactBalance pins the bisection's alphas and the bytes of
        // its alphaBracket evidence: two brackets at the floor, one at
        // the ceiling and four interior ones. Recorded from the
        // multisection solver that the sequential bisection replaced.
        {"googlenet", "tpu-v2:3+tpu-v3:5",
         "a53742d5ec600961", "77555e168108f3e9", "de4d6aa47764c658",
         core::RatioPolicy::ExactBalance},
    };
    for (const GoldenCase &c : cases) {
        SCOPED_TRACE(std::string(c.model) + " on " + c.array);
        const hw::AcceleratorGroup array = hw::parseArraySpec(c.array);
        PlanRequest request(models::catalog().build(c.model), array);
        // Named "accpar" runs its canonical PaperLinear policy; only
        // "custom" honours options.ratioPolicy.
        request.strategy =
            c.policy == core::RatioPolicy::PaperLinear ? "accpar" : "custom";
        request.jobs = 1;
        request.options.emitCertificate = true;
        request.options.ratioPolicy = c.policy;
        const PlanResult result = Planner().plan(request);
        ASSERT_TRUE(result.certificate);
        const hw::Hierarchy hierarchy(array);
        const util::Json plan = core::planToJson(result.plan, hierarchy);
        EXPECT_EQ(fnv1aHex(plan.dump()), c.compact);
        EXPECT_EQ(fnv1aHex(plan.dump(2)), c.pretty);
        EXPECT_EQ(core::certificateFingerprint(core::certificateToJson(
                      *result.certificate, hierarchy)),
                  c.certificate);
    }
}

} // namespace
