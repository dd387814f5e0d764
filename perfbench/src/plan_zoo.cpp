/**
 * @file
 * Workload `plan-zoo`: a closed loop with one client. Each request
 * builds a fresh Planner and plans one zoo model on the default
 * 128 x TPU-v2 + 128 x TPU-v3 array with strategy accpar, one job and
 * verification on — what `accpar plan --model M` does. Below the root
 * the halves are homogeneous, so the DP repeats nearly identical work
 * on 255 internal nodes; the service layer is not used.
 *
 * Every plan's JSON digest must equal the committed reference in
 * data/plan_digests.txt (cross-checked against the frozen legacy
 * solver when it was generated) and its verifier findings must be
 * empty.
 */

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/catalog.h"
#include "probes.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace accpar;

const std::vector<std::string> kModels = {"vgg16", "resnet50", "googlenet",
                                          "bert-base"};
constexpr char kArray[] = "hetero";
constexpr int kMinRounds = 2;

std::string
configName(const std::string &model)
{
    return "Plan-accpar-" + model + "-" + kArray + "-j1-verify";
}

/** Reads "model array digest" lines; '#' starts a comment line. */
std::map<std::string, std::string>
loadDigests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open reference digests " + path);
    std::map<std::string, std::string> digests;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string model, array, digest;
        if (fields >> model >> array >> digest && array == kArray)
            digests[model] = digest;
    }
    for (const std::string &model : kModels)
        if (!digests.count(model))
            throw std::runtime_error("no reference digest for " + model +
                                     " in " + path);
    return digests;
}

struct Inputs
{
    hw::AcceleratorGroup array;
    std::unique_ptr<hw::Hierarchy> hierarchy;
    std::map<std::string, std::string> digests;
};

Inputs
setUp(const RunConfig &config)
{
    Inputs inputs;
    inputs.array = hw::parseArraySpec(kArray);
    inputs.hierarchy = std::make_unique<hw::Hierarchy>(inputs.array);
    inputs.digests = loadDigests(config.dataDir + "/plan_digests.txt");
    // Priming: one request of the smallest model, so first use of the
    // catalog, the strategy registry and the allocator is not timed.
    PlanRequest prime(models::catalog().build(kModels.front()),
                      inputs.array);
    Planner().plan(prime);
    return inputs;
}

struct Outcome
{
    double ms = 0.0;
    std::string planJson;
    std::size_t diagnostics = 0;
};

Outcome
planOnce(const std::string &model, const Inputs &inputs, Tracer &tracer,
         std::uint64_t id)
{
    Outcome out;
    Timed total(tracer, "request", id);
    Timed build(tracer, "models.build", id);
    PlanRequest request(models::catalog().build(model), inputs.array);
    build.stopMs();
    request.strategy = "accpar";
    request.jobs = 1;
    request.options.verify = true;

    Timed plan(tracer, "core.plan", id);
    const PlanResult result = Planner().plan(request);
    plan.stopMs();

    Timed io(tracer, "core.plan_io", id);
    out.planJson = core::planToJson(result.plan, *inputs.hierarchy).dump();
    io.stopMs();
    out.ms = total.stopMs();
    out.diagnostics = result.diagnostics.size();
    return out;
}

std::string
protocolLine(const std::string &model)
{
    util::Json doc = util::Json::Object{};
    doc["kind"] = "plan";
    doc["model"] = model;
    doc["array"] = kArray;
    doc["strategy"] = "accpar";
    doc["verify"] = true;
    return doc.dump();
}

} // namespace

WorkloadResult
runPlanZoo(const RunConfig &config)
{
    WorkloadResult result;
    Inputs inputs;
    while (moreSetUps(result.setupSeconds)) {
        const Clock::time_point start = Clock::now();
        inputs = setUp(config);
        result.setupSeconds.push_back(secondsSince(start));
    }

    ReferenceKernel host_speed;
    Tracer tracer(false);
    SplitMix order_rng(mixSeed(config.seed, 1));
    std::map<std::string, std::vector<double>> traced, untraced;
    const double traffic_seconds =
        config.trace ? config.seconds / 2 : config.seconds;
    std::uint64_t id = 0;
    int rounds = 0;
    double host_speed_seconds = 0; // not measured time
    const double cpu_start = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    while (rounds < kMinRounds ||
           secondsSince(start) - host_speed_seconds < traffic_seconds) {
        for (std::size_t index : permutation(kModels.size(), order_rng)) {
            const std::string &model = kModels[index];
            const bool trace_this = config.trace && id % 2 == 1;
            tracer.setEnabled(trace_this);
            ++result.attempted;
                Outcome out;
            try {
                out = planOnce(model, inputs, tracer, id++);
            } catch (const std::exception &e) {
                result.fail(model + ": " + e.what());
                continue;
            }
            ++result.completed;
            result.classLatencyMs[model].push_back(out.ms);
            result.allLatencyMs.push_back(out.ms);
            (trace_this ? traced : untraced)[model].push_back(out.ms);

            if (fnv1aHex(out.planJson) != inputs.digests.at(model))
                result.fail(model + ": plan digest " +
                            fnv1aHex(out.planJson) +
                            " differs from the reference " +
                            inputs.digests.at(model));
            else if (out.diagnostics != 0)
                result.fail(model + ": verifier reported " +
                            std::to_string(out.diagnostics) +
                            " finding(s)");
        }
        ++rounds;
        const Clock::time_point host_speed_start = Clock::now();
        host_speed.sample();
        host_speed_seconds += secondsSince(host_speed_start);
    }
    const double wall_seconds = secondsSince(start);
    const double cpu_seconds = processCpuSeconds() - cpu_start;
    result.measuredSeconds = wall_seconds - host_speed_seconds;
    result.referenceMs = host_speed.medianMs();
    result.referenceSamples = host_speed.samples();

    for (const std::string &model : kModels) {
        const std::vector<double> &ms = result.classLatencyMs[model];
        result.rows.push_back({"plan_ms." + model, median(ms), "ms",
                               ms.size(), configName(model)});
    }

    if (config.trace) {
        tracer.setEnabled(true);
        setLayer(result, "util.cpu_per_wall", cpu_seconds / wall_seconds,
                 "ratio");
        setLayer(result, "tracing.overhead_pct",
                 tracingOverheadPct(traced, untraced), "%");
        std::vector<ProbeInput> probe_inputs;
        for (const std::string &model : kModels)
            probe_inputs.push_back({model, {}, kArray, 1,
                                    protocolLine(model)});
        runLayerProbes(probe_inputs, config.seconds / 2, tracer, id,
                       result);
        finishTrace(config, {&tracer}, result);
    }
    return result;
}

} // namespace perfbench
