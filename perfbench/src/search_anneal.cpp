/**
 * @file
 * Workload `search-anneal`: Planner::plan with an outer-search budget
 * counted in iterations (never milliseconds, so every search is a pure
 * function of its request) on the 8 + 8 board array, two jobs so the
 * speculative lookahead runs on the thread pool. The time goes into
 * many small oracle solves on mutated, asymmetric hierarchies — the
 * only workload that exercises the annealer and util::ThreadPool.
 *
 * Winners are checked by property, not golden bytes, so a change to
 * search quality stays measurable: best cost no higher than baseline,
 * a certificate that audits clean, and a reported best cost equal to
 * core::evaluatePlan of the winning plan.
 */

#include <cmath>
#include <stdexcept>

#include "analysis/certificate_checker.h"
#include "core/plan_evaluator.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/catalog.h"
#include "probes.h"
#include "search/annealing.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace accpar;

const std::vector<std::string> kModels = {"vgg16", "resnet50",
                                          "bert-base"};
/** Bi-partition levels of the array: 2^(4-1) boards of each type. */
constexpr int kLevels = 4;
constexpr char kArraySpec[] = "tpu-v2:8+tpu-v3:8";
constexpr int kBudgetIters = 8;
constexpr int kJobs = 2;
/** Leading rounds whose searches define the deterministic figures
 *  (cost ratio, oracle solves, acceptances); always completed. */
constexpr int kReferenceRounds = 2;

std::string
configName(const std::string &model)
{
    return "Search-accpar-" + model + "-" + kArraySpec + "-j" +
           std::to_string(kJobs) + "-it" + std::to_string(kBudgetIters) +
           "-verify-cert";
}

hw::AcceleratorGroup
setUp()
{
    const hw::AcceleratorGroup array =
        hw::heterogeneousTpuArrayForLevels(kLevels);
    if (array.toString() != hw::parseArraySpec(kArraySpec).toString())
        throw std::runtime_error("array " + array.toString() +
                                 " is not " + kArraySpec);
    // Priming: a one-iteration search of the smallest model, so first
    // use of the catalog and the strategy registry is not timed. It
    // runs on one job: every request builds its own thread pool anyway,
    // and a two-thread set-up time drifts with the host's load far more
    // than the single-thread host-speed reference can follow.
    PlanRequest prime(models::catalog().build(kModels.front()), array);
    prime.jobs = 1;
    prime.options.search.budgetIters = 1;
    Planner().plan(prime);
    return array;
}

struct Outcome
{
    double ms = 0.0;
    std::unique_ptr<PlanRequest> request;
    PlanResult result;
};

Outcome
searchOnce(const std::string &model, const hw::AcceleratorGroup &array,
           std::uint64_t seed, Tracer &tracer, std::uint64_t id)
{
    Outcome out;
    Timed total(tracer, "request", id);
    Timed build(tracer, "models.build", id);
    out.request = std::make_unique<PlanRequest>(
        models::catalog().build(model), array);
    build.stopMs();
    PlanRequest &request = *out.request;
    request.strategy = "accpar";
    request.jobs = kJobs;
    request.options.verify = true;
    request.options.emitCertificate = true;
    request.options.search.budgetIters = kBudgetIters;
    request.options.search.seed = seed;

    Timed plan(tracer, "core.plan", id);
    out.result = Planner().plan(request);
    plan.stopMs();

    Timed io(tracer, "core.plan_io", id);
    const std::string text =
        core::planToJson(out.result.plan, *out.result.searchedHierarchy)
            .dump();
    io.stopMs();
    out.ms = total.stopMs();
    if (text.empty())
        throw std::runtime_error("empty plan document");
    return out;
}

/** Empty when the winner passes every property check. */
std::string
checkWinner(const Outcome &out)
{
    const PlanResult &result = out.result;
    if (!result.searchReport || !result.searchedHierarchy ||
        !result.certificate)
        return "search returned no report, hierarchy or certificate";
    const search::SearchReport &report = *result.searchReport;
    if (!(report.bestCost <= report.baselineCost))
        return "best cost above baseline";
    if (!result.diagnostics.empty())
        return "verifier findings on the winner";

    const core::PartitionProblem problem(out.request->model);
    analysis::DiagnosticSink sink;
    analysis::checkCertificate(problem, *result.searchedHierarchy,
                               result.plan, *result.certificate,
                               analysis::CheckOptions{}, sink);
    if (sink.errorCount() != 0)
        return "certificate audit failed: " + sink.renderText();

    const double evaluated =
        core::evaluatePlan(problem, *result.searchedHierarchy, result.plan,
                           PlanOptions().toSolverOptions("accpar").cost)
            .worstPathCost;
    if (evaluated != report.bestCost)
        return "reported best cost differs from evaluatePlan";
    return {};
}

std::string
protocolLine(const std::string &model, std::uint64_t seed)
{
    util::Json doc = util::Json::Object{};
    doc["kind"] = "search";
    doc["model"] = model;
    doc["array"] = kArraySpec;
    doc["strategy"] = "accpar";
    doc["budget_iters"] = kBudgetIters;
    doc["seed"] = static_cast<std::int64_t>(seed % (1ull << 52));
    return doc.dump();
}

} // namespace

WorkloadResult
runSearchAnneal(const RunConfig &config)
{
    WorkloadResult result;
    hw::AcceleratorGroup array;
    while (moreSetUps(result.setupSeconds)) {
        const Clock::time_point start = Clock::now();
        array = setUp();
        result.setupSeconds.push_back(secondsSince(start));
    }

    ReferenceKernel host_speed;
    Tracer tracer(false);
    SplitMix order_rng(mixSeed(config.seed, 2));
    std::map<std::string, std::vector<double>> traced, untraced;
    std::vector<double> reference_ratios;
    double reference_solves = 0, reference_improved = 0;
    double reference_accepted = 0, reference_iterations = 0;
    double all_solves = 0, search_seconds = 0;
    // The winners are audited and the host-speed reference runs
    // between requests; that time is the benchmark's, not the planner's.
    double check_seconds = 0, host_speed_seconds = 0;
    const double traffic_seconds =
        config.trace ? config.seconds / 2 : config.seconds;

    std::uint64_t id = 0;
    int rounds = 0;
    const double cpu_start = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    while (rounds < kReferenceRounds ||
           secondsSince(start) - check_seconds - host_speed_seconds <
               traffic_seconds) {
        for (std::size_t index : permutation(kModels.size(), order_rng)) {
            const std::string &model = kModels[index];
            const bool trace_this = config.trace && id % 2 == 1;
            tracer.setEnabled(trace_this);
            const std::uint64_t seed = mixSeed(config.seed, 1000 + id);
            ++result.attempted;
                Outcome out;
            try {
                out = searchOnce(model, array, seed, tracer, id++);
            } catch (const std::exception &e) {
                result.fail(model + ": " + e.what());
                continue;
            }
            ++result.completed;
            result.classLatencyMs[model].push_back(out.ms);
            result.allLatencyMs.push_back(out.ms);
            (trace_this ? traced : untraced)[model].push_back(out.ms);

            const Clock::time_point check_start = Clock::now();
            const std::string defect = checkWinner(out);
            check_seconds += secondsSince(check_start);
            const Clock::time_point host_speed_start = Clock::now();
            host_speed.sample();
            host_speed_seconds += secondsSince(host_speed_start);
            if (!defect.empty()) {
                result.fail(model + " seed " + std::to_string(seed) +
                            ": " + defect);
                continue;
            }
            const search::SearchReport &report = *out.result.searchReport;
            all_solves += report.oracleSolves;
            search_seconds += out.ms * 1e-3;
            if (rounds < kReferenceRounds) {
                reference_ratios.push_back(report.bestCost /
                                           report.baselineCost);
                reference_solves += report.oracleSolves;
                reference_improved += report.improved;
                reference_accepted += report.accepted;
                reference_iterations += report.iterations;
            }
        }
        ++rounds;
    }
    const double wall_seconds = secondsSince(start);
    const double cpu_seconds = processCpuSeconds() - cpu_start;
    result.measuredSeconds =
        wall_seconds - check_seconds - host_speed_seconds;
    result.referenceMs = host_speed.medianMs();
    result.referenceSamples = host_speed.samples();
    result.costRatio =
        reference_ratios.empty() ? 1.0 : geomean(reference_ratios);

    for (const std::string &model : kModels) {
        const std::vector<double> &ms = result.classLatencyMs[model];
        result.rows.push_back({"search_s." + model, median(ms) * 1e-3,
                               "s", ms.size(), configName(model)});
    }
    result.rows.push_back({"check_s", check_seconds, "s", 0,
                           "winner audits, not timed"});
    result.rows.push_back({"search_cost_ratio", result.costRatio,
                           "ratio", reference_ratios.size(),
                           "first " + std::to_string(kReferenceRounds) +
                               " rounds"});

    if (config.trace) {
        tracer.setEnabled(true);
        setLayer(result, "search.oracle_solves", reference_solves, "count",
                 reference_ratios.size());
        setLayer(result, "search.oracle_solves_per_s",
                 search_seconds > 0 ? all_solves / search_seconds : 0.0,
                 "1/s");
        setLayer(result, "search.accept_ratio",
                 reference_iterations > 0
                     ? reference_accepted / reference_iterations
                     : 0.0,
                 "ratio", reference_ratios.size());
        setLayer(result, "search.improved", reference_improved, "count",
                 reference_ratios.size());
        setLayer(result, "util.cpu_per_wall", cpu_seconds / wall_seconds,
                 "ratio");
        setLayer(result, "tracing.overhead_pct",
                 tracingOverheadPct(traced, untraced), "%");
        std::vector<ProbeInput> probe_inputs;
        for (const std::string &model : kModels)
            probe_inputs.push_back({model, {}, kArraySpec, kJobs,
                                    protocolLine(model, config.seed)});
        runLayerProbes(probe_inputs, config.seconds / 2, tracer, id,
                       result);
        finishTrace(config, {&tracer}, result);
    }
    return result;
}

} // namespace perfbench
