#include "core/plan_io.h"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "util/csv.h"
#include "util/error.h"

namespace accpar::core {

std::string
hierarchySignature(const hw::Hierarchy &hierarchy)
{
    std::string out;
    for (std::size_t i = 0; i < hierarchy.nodeCount(); ++i) {
        out += std::to_string(i);
        out += ':';
        out += hierarchy.node(static_cast<hw::NodeId>(i)).group.toString();
        out += ';';
    }
    return out;
}

util::Json
planToJson(const PartitionPlan &plan, const hw::Hierarchy &hierarchy)
{
    util::Json doc;
    doc["format"] = "accpar-plan-v1";
    doc["strategy"] = plan.strategyName();
    doc["model"] = plan.modelName();
    doc["hierarchySignature"] = hierarchySignature(hierarchy);

    util::Json names{util::Json::Array{}};
    for (const std::string &name : plan.nodeNames())
        names.push(name);
    doc["layers"] = std::move(names);

    util::Json nodes{util::Json::Array{}};
    for (std::size_t i = 0; i < hierarchy.nodeCount(); ++i) {
        const auto id = static_cast<hw::NodeId>(i);
        if (!plan.hasNodePlan(id))
            continue;
        const NodePlan &np = plan.nodePlan(id);
        util::Json node;
        node["node"] = static_cast<std::int64_t>(id);
        node["alpha"] = np.alpha;
        util::Json ratios;
        ratios.push(np.alpha);
        ratios.push(1.0 - np.alpha);
        node["ratios"] = std::move(ratios);
        node["cost"] = np.cost;
        util::Json types;
        for (PartitionType t : np.types)
            types.push(partitionTypeTag(t));
        node["types"] = std::move(types);
        nodes.push(std::move(node));
    }
    doc["nodes"] = std::move(nodes);
    return doc;
}

namespace {

std::optional<PartitionType>
typeFromTag(const std::string &tag)
{
    for (PartitionType t : kAllPartitionTypes)
        if (tag == partitionTypeTag(t))
            return t;
    return std::nullopt;
}

std::string
nodeLocation(hw::NodeId id)
{
    return "plan node entry for hierarchy node " + std::to_string(id);
}

/**
 * Parses the ratio shares of one node entry: the "ratios" pair when
 * present (checked to be positive and to sum to 1), the legacy
 * "alpha" scalar otherwise. Reports APIO05 and returns nullopt on any
 * violation.
 */
std::optional<double>
parseShares(const util::Json &node, hw::NodeId id,
            analysis::DiagnosticSink &sink)
{
    if (node.contains("ratios")) {
        const util::Json &ratios = node.at("ratios");
        if (ratios.kind() != util::Json::Kind::Array ||
            ratios.asArray().size() != 2 ||
            ratios.asArray()[0].kind() != util::Json::Kind::Number ||
            ratios.asArray()[1].kind() != util::Json::Kind::Number) {
            sink.error("APIO05", nodeLocation(id),
                       "'ratios' must be an array of the two group "
                       "shares",
                       "write \"ratios\": [alpha, 1 - alpha]");
            return std::nullopt;
        }
        const double left = ratios.asArray()[0].asNumber();
        const double right = ratios.asArray()[1].asNumber();
        if (!(left > 0.0) || !(right > 0.0) ||
            std::abs(left + right - 1.0) > 1e-9) {
            std::ostringstream os;
            os << "ratio shares (" << left << ", " << right
               << ") must both be positive and sum to 1";
            sink.error("APIO05", nodeLocation(id), os.str(),
                       "the two sides of a bi-partition split the "
                       "whole tensor between them");
            return std::nullopt;
        }
        return left;
    }
    if (!node.contains("alpha") ||
        node.at("alpha").kind() != util::Json::Kind::Number) {
        sink.error("APIO03", nodeLocation(id),
                   "node entry carries neither 'ratios' nor a numeric "
                   "'alpha'");
        return std::nullopt;
    }
    const double alpha = node.at("alpha").asNumber();
    if (!(alpha > 0.0 && alpha < 1.0)) {
        std::ostringstream os;
        os << "ratio shares (" << alpha << ", " << 1.0 - alpha
           << ") must both be positive and sum to 1";
        sink.error("APIO05", nodeLocation(id), os.str());
        return std::nullopt;
    }
    return alpha;
}

} // namespace

std::optional<PartitionPlan>
planFromJson(const util::Json &json, const hw::Hierarchy &hierarchy,
             analysis::DiagnosticSink &sink)
{
    const std::size_t errors_before = sink.errorCount();

    if (json.kind() != util::Json::Kind::Object ||
        !json.contains("format") ||
        json.at("format").kind() != util::Json::Kind::String ||
        json.at("format").asString() != "accpar-plan-v1") {
        sink.error("APIO01", "plan document",
                   "not an accpar plan document (expected "
                   "\"format\": \"accpar-plan-v1\")",
                   "produce plans with `accpar plan --out` or "
                   "core::savePlan");
        return std::nullopt;
    }
    if (!json.contains("hierarchySignature") ||
        json.at("hierarchySignature").kind() !=
            util::Json::Kind::String ||
        json.at("hierarchySignature").asString() !=
            hierarchySignature(hierarchy)) {
        sink.error("APIO02", "plan document",
                   "plan was produced for a different accelerator "
                   "hierarchy",
                   "re-plan for this array, or validate against the "
                   "array the plan was searched on");
        return std::nullopt;
    }
    for (const char *key : {"strategy", "model"}) {
        if (!json.contains(key) ||
            json.at(key).kind() != util::Json::Kind::String) {
            sink.error("APIO03", "plan document",
                       std::string("missing or non-string '") + key +
                           "' field");
            return std::nullopt;
        }
    }
    if (!json.contains("layers") ||
        json.at("layers").kind() != util::Json::Kind::Array ||
        !json.contains("nodes") ||
        json.at("nodes").kind() != util::Json::Kind::Array) {
        sink.error("APIO03", "plan document",
                   "missing 'layers' or 'nodes' array");
        return std::nullopt;
    }

    std::vector<std::string> names;
    for (const util::Json &n : json.at("layers").asArray()) {
        if (n.kind() != util::Json::Kind::String) {
            sink.error("APIO03", "plan document",
                       "'layers' entries must be layer-name strings");
            return std::nullopt;
        }
        names.push_back(n.asString());
    }

    PartitionPlan plan(json.at("strategy").asString(),
                       json.at("model").asString(),
                       hierarchy.nodeCount(), names);

    std::set<hw::NodeId> covered;
    for (const util::Json &node : json.at("nodes").asArray()) {
        if (node.kind() != util::Json::Kind::Object ||
            !node.contains("node") ||
            node.at("node").kind() != util::Json::Kind::Number) {
            sink.error("APIO03", "plan document",
                       "every 'nodes' entry must be an object with a "
                       "numeric 'node' id");
            continue;
        }
        const auto id =
            static_cast<hw::NodeId>(node.at("node").asInt());
        if (id < 0 ||
            static_cast<std::size_t>(id) >= hierarchy.nodeCount()) {
            sink.error("APIO07", nodeLocation(id),
                       "hierarchy node id is out of range (the array "
                       "has " +
                           std::to_string(hierarchy.nodeCount()) +
                           " nodes)");
            continue;
        }
        if (hierarchy.node(id).isLeaf()) {
            sink.error("APIO07", nodeLocation(id),
                       "hierarchy node is a leaf; leaves carry no "
                       "decisions",
                       "only internal (pair) nodes appear in 'nodes'");
            continue;
        }
        if (!covered.insert(id).second) {
            sink.error("APIO06", nodeLocation(id),
                       "duplicate entry for this hierarchy node",
                       "each internal node appears exactly once");
            continue;
        }

        NodePlan np;
        const std::optional<double> alpha =
            parseShares(node, id, sink);
        if (!alpha)
            continue;
        np.alpha = *alpha;

        if (!node.contains("cost") ||
            node.at("cost").kind() != util::Json::Kind::Number) {
            sink.error("APIO03", nodeLocation(id),
                       "missing or non-numeric 'cost' field");
            continue;
        }
        np.cost = node.at("cost").asNumber();

        if (!node.contains("types") ||
            node.at("types").kind() != util::Json::Kind::Array) {
            sink.error("APIO03", nodeLocation(id),
                       "missing 'types' array");
            continue;
        }
        bool types_ok = true;
        for (const util::Json &t : node.at("types").asArray()) {
            const std::string tag =
                t.kind() == util::Json::Kind::String ? t.asString()
                                                     : t.dump();
            const std::optional<PartitionType> type = typeFromTag(tag);
            if (!type) {
                sink.error("APIO04", nodeLocation(id),
                           "partition type tag '" + tag +
                               "' is not a legal Table 5 endpoint; "
                               "every transition through it falls "
                               "outside the nine legal patterns",
                           "use \"I\", \"II\" or \"III\"");
                types_ok = false;
                continue;
            }
            np.types.push_back(*type);
        }
        if (!types_ok)
            continue;
        if (np.types.size() != names.size()) {
            sink.error("APIO03", nodeLocation(id),
                       "'types' lists " +
                           std::to_string(np.types.size()) +
                           " entries but the plan has " +
                           std::to_string(names.size()) + " layers");
            continue;
        }
        plan.setNodePlan(id, std::move(np));
    }

    for (hw::NodeId id : hierarchy.internalNodes()) {
        if (!plan.hasNodePlan(id)) {
            sink.error("APIO03", nodeLocation(id),
                       "plan document misses this hierarchy node",
                       "every internal node needs one 'nodes' entry");
        }
    }

    if (sink.errorCount() != errors_before)
        return std::nullopt;
    return plan;
}

PartitionPlan
planFromJson(const util::Json &json, const hw::Hierarchy &hierarchy)
{
    analysis::DiagnosticSink sink;
    std::optional<PartitionPlan> plan =
        planFromJson(json, hierarchy, sink);
    if (!plan) {
        sink.sort();
        throw util::ConfigError("invalid plan document:\n" +
                                sink.renderText());
    }
    return *std::move(plan);
}

void
savePlan(const PartitionPlan &plan, const hw::Hierarchy &hierarchy,
         const std::string &path)
{
    std::ofstream out(path);
    ACCPAR_REQUIRE(out.is_open(), "cannot open " << path
                                                 << " for writing");
    out << planToJson(plan, hierarchy).dump(2) << '\n';
}

std::optional<PartitionPlan>
loadPlan(const std::string &path, const hw::Hierarchy &hierarchy,
         analysis::DiagnosticSink &sink)
{
    std::ifstream in(path);
    if (!in.is_open()) {
        sink.error("APIO01", path, "cannot open plan file for reading",
                   "check the path and permissions");
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    util::Json doc;
    try {
        doc = util::Json::parse(text.str());
    } catch (const util::Error &e) {
        sink.error("APIO01", path,
                   std::string("file is not valid JSON: ") + e.what());
        return std::nullopt;
    }
    return planFromJson(doc, hierarchy, sink);
}

PartitionPlan
loadPlan(const std::string &path, const hw::Hierarchy &hierarchy)
{
    analysis::DiagnosticSink sink;
    std::optional<PartitionPlan> plan =
        loadPlan(path, hierarchy, sink);
    if (!plan) {
        sink.sort();
        throw util::ConfigError("invalid plan file " + path + ":\n" +
                                sink.renderText());
    }
    return *std::move(plan);
}

void
writeTypeMatrixCsv(const PartitionPlan &plan,
                   const hw::Hierarchy &hierarchy,
                   const std::string &path)
{
    std::vector<std::string> header = {"level", "alpha"};
    for (const std::string &name : plan.nodeNames())
        header.push_back(name);
    util::CsvWriter csv(header);

    const auto levels = plan.leftmostPath(hierarchy);
    for (std::size_t level = 0; level < levels.size(); ++level) {
        std::vector<std::string> row = {std::to_string(level + 1)};
        std::ostringstream alpha;
        alpha.precision(6);
        alpha << levels[level]->alpha;
        row.push_back(alpha.str());
        for (PartitionType t : levels[level]->types)
            row.push_back(partitionTypeTag(t));
        csv.addRow(std::move(row));
    }
    csv.writeFile(path);
}

} // namespace accpar::core
