/**
 * @file
 * Model importer tests (models/import.h): DOT round-trips are
 * byte-identical down to the plan, the ONNX-JSON subset loads and
 * plans, importModel dispatches the three formats by content, and
 * every fixture of the malformed corpus is rejected with its stable
 * ADOT/AONX code instead of a crash.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "graph/dot_export.h"
#include "hw/topology.h"
#include "models/catalog.h"
#include "models/import.h"
#include "util/error.h"
#include "util/json.h"

namespace {

using namespace accpar;

std::string
dataPath(const std::string &file)
{
    return std::string(ACCPAR_TEST_DATA_DIR) + "/" + file;
}

std::string
planJson(Planner &planner, graph::Graph model)
{
    const hw::AcceleratorGroup array = hw::parseArraySpec("tpu-v3:2");
    const hw::Hierarchy hierarchy(array);
    const PlanResult result =
        planner.plan(PlanRequest(std::move(model), array));
    return core::planToJson(result.plan, hierarchy).dump();
}

TEST(ImportDot, RoundTripIsByteIdentical)
{
    models::ModelParams params;
    params.set("batch", "8");
    const graph::Graph original =
        models::catalog().build("resnet18", params);
    const std::string dot = graph::toDot(original);

    const graph::Graph imported = models::importDot(dot);
    EXPECT_EQ(imported.name(), original.name());
    EXPECT_EQ(imported.size(), original.size());
    // Re-exporting must reproduce the file byte for byte — operand
    // order, names and attributes all survived.
    EXPECT_EQ(graph::toDot(imported), dot);

    Planner planner;
    EXPECT_EQ(planJson(planner, imported), planJson(planner, original));
}

TEST(ImportDot, EveryZooExportReloads)
{
    models::ModelParams params;
    params.set("batch", "4");
    for (const char *name : {"lenet", "alexnet", "vgg11", "googlenet"}) {
        const graph::Graph original =
            models::catalog().build(name, params);
        const std::string dot = graph::toDot(original);
        const graph::Graph imported = models::importDot(dot);
        EXPECT_EQ(graph::toDot(imported), dot) << name;
    }
}

TEST(ImportOnnx, TinyConvnetLoadsAndPlans)
{
    const graph::Graph g =
        models::importModel(dataPath("import_tiny_convnet.json"));
    EXPECT_EQ(g.name(), "tiny-convnet");

    // Shapes flow: conv (pad 1, stride 1) keeps 8x8, the pool halves
    // it, the Gemm (transB weight [10, 256]) projects to 10 classes.
    const graph::TensorShape out = g.layer(g.sinkLayer()).outputShape;
    EXPECT_EQ(out.n, 8);
    EXPECT_EQ(out.c, 10);

    Planner planner;
    const PlanResult result = planner.plan(PlanRequest(
        g, hw::parseArraySpec("tpu-v3:2")));
    EXPECT_GT(result.rootCost, 0.0);
}

TEST(ImportModel, DispatchesNativeJsonDocuments)
{
    // tiny_mlp.json is the native model_io format: no "graph" object,
    // so importModel must route it through modelFromJson.
    const graph::Graph g =
        models::importModel(dataPath("tiny_mlp.json"));
    EXPECT_GT(g.size(), 1u);
}

TEST(ImportModel, UnreadablePathsReportStableCodes)
{
    analysis::DiagnosticSink dot_sink;
    EXPECT_FALSE(
        models::importModel("no_such_file.dot", dot_sink).has_value());
    EXPECT_TRUE(dot_sink.hasCode("ADOT01")) << dot_sink.renderText();

    analysis::DiagnosticSink json_sink;
    EXPECT_FALSE(
        models::importModel("no_such_file.json", json_sink)
            .has_value());
    EXPECT_TRUE(json_sink.hasCode("AMIO01")) << json_sink.renderText();
}

struct CorpusCase
{
    const char *file;
    const char *code;
};

TEST(ImportModel, MalformedCorpusRejectedWithStableCodes)
{
    const std::vector<CorpusCase> corpus = {
        {"import_bad_header.dot", "ADOT01"},
        {"import_missing_op.dot", "ADOT02"},
        {"import_backward_edge.dot", "ADOT01"},
        {"import_bad_semantics.dot", "ADOT03"},
        {"import_onnx_symbolic_dim.json", "AONX01"},
        {"import_onnx_missing_weight.json", "AONX03"},
        {"import_onnx_asym_pads.json", "AONX02"},
    };
    for (const CorpusCase &entry : corpus) {
        // A missing fixture would be rejected too ("cannot open" is
        // ADOT01/AMIO01), so the file must exist for the code to count.
        ASSERT_TRUE(std::ifstream(dataPath(entry.file)).is_open())
            << entry.file;
        analysis::DiagnosticSink sink;
        EXPECT_FALSE(
            models::importModel(dataPath(entry.file), sink)
                .has_value())
            << entry.file;
        EXPECT_TRUE(sink.hasCode(entry.code))
            << entry.file << ":\n"
            << sink.renderText();

        // The throwing variant reports the same code in its message.
        try {
            models::importModel(dataPath(entry.file));
            FAIL() << entry.file;
        } catch (const util::ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(entry.code),
                      std::string::npos)
                << entry.file << ": " << e.what();
        }
    }
}

TEST(ImportDot, TruncatedTextNeverCrashes)
{
    // Fuzz-style: every prefix of a valid export must either load or
    // fail with diagnostics — no crashes, no ACCPAR_ASSERT aborts.
    models::ModelParams params;
    params.set("batch", "4");
    const std::string dot =
        graph::toDot(models::catalog().build("lenet", params));
    for (std::size_t cut = 0; cut < dot.size(); cut += 17) {
        analysis::DiagnosticSink sink;
        const auto g = models::importDot(dot.substr(0, cut), sink);
        if (!g.has_value())
            EXPECT_GT(sink.errorCount(), 0u) << "cut " << cut;
    }
}

} // namespace
