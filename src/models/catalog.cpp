#include "models/catalog.h"

#include <algorithm>

#include "models/import.h"
#include "models/transformer.h"
#include "models/zoo.h"
#include "util/error.h"
#include "util/string_util.h"

namespace accpar::models {

ModelParams
ModelParams::fromKeyValues(const std::vector<std::string> &pairs)
{
    ModelParams params;
    for (const std::string &pair : pairs) {
        const std::size_t eq = pair.find('=');
        ACCPAR_REQUIRE(eq != std::string::npos && eq > 0,
                       "model parameter '"
                           << pair << "' is not of the form key=value");
        const std::string key = util::trim(pair.substr(0, eq));
        ACCPAR_REQUIRE(!params.has(key),
                       "model parameter '" << key
                                           << "' given more than once");
        params.set(key, util::trim(pair.substr(eq + 1)));
    }
    return params;
}

void
ModelParams::set(const std::string &key, std::string value)
{
    _values[key] = std::move(value);
}

bool
ModelParams::has(const std::string &key) const
{
    return _values.count(key) > 0;
}

std::optional<std::string>
ModelParams::get(const std::string &key) const
{
    auto it = _values.find(key);
    if (it == _values.end())
        return std::nullopt;
    return it->second;
}

std::int64_t
ModelParams::getIntOr(const std::string &key, std::int64_t fallback) const
{
    const auto value = get(key);
    if (!value)
        return fallback;
    try {
        std::size_t used = 0;
        const std::int64_t out = std::stoll(*value, &used);
        ACCPAR_REQUIRE(used == value->size(), "trailing characters");
        return out;
    } catch (const std::exception &) {
        throw util::ConfigError("model parameter " + key +
                                " expects an integer, got '" + *value +
                                "'");
    }
}

std::string
ModelParams::toString() const
{
    std::string out;
    for (const auto &[key, value] : _values) {
        if (!out.empty())
            out += ',';
        out += key + '=' + value;
    }
    return out;
}

void
ModelCatalog::add(ModelEntry entry)
{
    ACCPAR_REQUIRE(!entry.name.empty(), "catalog entry needs a name");
    ACCPAR_REQUIRE(!_index.count(entry.name),
                   "model '" << entry.name
                             << "' is already registered");
    ACCPAR_REQUIRE(entry.build != nullptr,
                   "catalog entry " << entry.name << " needs a builder");
    _index[entry.name] = _entries.size();
    _entries.push_back(std::move(entry));
}

void
ModelCatalog::registerImportFile(const std::string &name,
                                 const std::string &path)
{
    ModelEntry entry;
    entry.name = name;
    entry.family = "imported";
    entry.description = "imported from " + path;
    entry.params = {};
    entry.build = [path](const ModelParams &) {
        return importModel(path);
    };
    add(std::move(entry));
}

bool
ModelCatalog::contains(const std::string &name) const
{
    return _index.count(util::toLower(util::trim(name))) > 0;
}

const ModelEntry &
ModelCatalog::entry(const std::string &name) const
{
    const std::string key = util::toLower(util::trim(name));
    auto it = _index.find(key);
    if (it == _index.end()) {
        std::string known;
        for (const ModelEntry &e : _entries) {
            if (!known.empty())
                known += ", ";
            known += e.name;
        }
        throw util::ConfigError("unknown model name: " + name +
                                " (catalog: " + known + ")");
    }
    return _entries[it->second];
}

graph::Graph
ModelCatalog::build(const std::string &name,
                    const ModelParams &params) const
{
    const ModelEntry &e = entry(name);
    for (const auto &[key, value] : params.values()) {
        ACCPAR_REQUIRE(
            std::find(e.params.begin(), e.params.end(), key) !=
                e.params.end(),
            "model " << e.name << " does not take parameter '" << key
                     << "'"
                     << (e.params.empty()
                             ? std::string(" (it takes none)")
                             : " (known: " +
                                   util::join(e.params, ", ") + ")"));
    }
    return e.build(params);
}

std::vector<std::string>
ModelCatalog::names() const
{
    std::vector<std::string> out;
    out.reserve(_entries.size());
    for (const ModelEntry &e : _entries)
        out.push_back(e.name);
    return out;
}

namespace {

std::int64_t
batchOf(const ModelParams &params, std::int64_t fallback)
{
    const std::int64_t batch = params.getIntOr("batch", fallback);
    if (batch < 1)
        throw util::ConfigError(
            "model parameter batch must be a positive integer, got " +
            std::to_string(batch));
    return batch;
}

TransformerConfig
transformerConfig(const ModelParams &params, TransformerConfig cfg)
{
    cfg.batch = batchOf(params, cfg.batch);
    cfg.seq = params.getIntOr("seq", cfg.seq);
    cfg.hidden = params.getIntOr("hidden", cfg.hidden);
    cfg.depth = params.getIntOr("depth", cfg.depth);
    cfg.heads = params.getIntOr("heads", cfg.heads);
    cfg.mlpRatio = params.getIntOr("mlp-ratio", cfg.mlpRatio);
    cfg.vocab = params.getIntOr("vocab", cfg.vocab);
    return cfg;
}

const std::vector<std::string> kTransformerParams = {
    "batch", "seq", "hidden", "depth", "heads", "mlp-ratio", "vocab"};

void
addBuiltins(ModelCatalog &cat)
{
    const auto cnn = [&](const std::string &name,
                         const std::string &description,
                         graph::Graph (*build)(std::int64_t)) {
        cat.add({name, "cnn", description, {"batch"},
                 [build](const ModelParams &p) {
                     return build(batchOf(p, 512));
                 }});
    };
    cnn("lenet", "LeNet-5 on MNIST shapes (paper eval)", &buildLenet);
    cnn("alexnet", "AlexNet, single tower (paper eval)", &buildAlexnet);
    for (int depth : {11, 13, 16, 19}) {
        cat.add({"vgg" + std::to_string(depth), "cnn",
                 "VGG-" + std::to_string(depth) +
                     " on ImageNet shapes (paper eval)",
                 {"batch"},
                 [depth](const ModelParams &p) {
                     return buildVgg(depth, batchOf(p, 512));
                 }});
    }
    for (int depth : {18, 34, 50}) {
        cat.add({"resnet" + std::to_string(depth), "cnn",
                 "ResNet-" + std::to_string(depth) +
                     " with residual fork/join blocks (paper eval)",
                 {"batch"},
                 [depth](const ModelParams &p) {
                     return buildResnet(depth, batchOf(p, 512));
                 }});
    }
    cnn("googlenet", "GoogLeNet v1: four-way Inception concats",
        &buildGooglenet);
    cat.add({"mlp", "mlp",
             "plain MLP; widths=comma-separated feature sizes",
             {"batch", "widths"},
             [](const ModelParams &p) {
                 std::vector<std::int64_t> widths;
                 const std::string spec =
                     p.get("widths").value_or("784,4096,4096,10");
                 for (const std::string &tok :
                      util::split(spec, ',')) {
                     try {
                         widths.push_back(std::stoll(tok));
                     } catch (const std::exception &) {
                         throw util::ConfigError(
                             "mlp widths expects integers, got '" +
                             spec + "'");
                     }
                 }
                 return buildMlp(batchOf(p, 512), widths);
             }});

    cat.add({"bert-base", "transformer",
             "BERT-base encoder: depth 12, hidden 768, 12 heads",
             kTransformerParams, [](const ModelParams &p) {
                 TransformerConfig cfg;
                 return buildTransformer(
                     "bert-base", transformerConfig(p, cfg));
             }});
    cat.add({"bert-large", "transformer",
             "BERT-large encoder: depth 24, hidden 1024, 16 heads",
             kTransformerParams, [](const ModelParams &p) {
                 TransformerConfig cfg;
                 cfg.depth = 24;
                 cfg.hidden = 1024;
                 cfg.heads = 16;
                 return buildTransformer(
                     "bert-large", transformerConfig(p, cfg));
             }});
    cat.add({"gpt-decoder", "transformer",
             "GPT-style decoder: depth 12, hidden 768, LM head",
             kTransformerParams, [](const ModelParams &p) {
                 TransformerConfig cfg;
                 cfg.vocab = 50257;
                 return buildTransformer(
                     "gpt-decoder", transformerConfig(p, cfg));
             }});
}

} // namespace

ModelCatalog &
catalog()
{
    static ModelCatalog instance = [] {
        ModelCatalog cat;
        addBuiltins(cat);
        return cat;
    }();
    return instance;
}

} // namespace accpar::models
