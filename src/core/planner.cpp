#include "core/planner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>

#include "analysis/plan_verifier.h"
#include "search/annealing.h"
#include "strategies/registry.h"
#include "util/error.h"

namespace accpar {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double>(elapsed).count();
}

/** Appends a double as its exact shortest round-trippable decimal. */
void
appendDouble(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

void
appendShape(std::string &out, const graph::TensorShape &shape)
{
    out += std::to_string(shape.n) + 'x' + std::to_string(shape.c) +
           'x' + std::to_string(shape.h) + 'x' +
           std::to_string(shape.w);
}

/**
 * Appends the canonical encoding of a model graph (layers, attributes,
 * wiring, shapes). Shared between planRequestCanonicalKey and
 * Planner::planBatch's problem deduplication: two requests whose model
 * keys match build identical PartitionProblems.
 */
void
appendModelKey(std::string &key, const graph::Graph &model)
{
    key += model.name();
    for (const graph::Layer &layer : model.layers()) {
        key += ';';
        key += graph::layerKindName(layer.kind);
        key += ':';
        key += layer.name;
        key += ':';
        for (graph::LayerId input : layer.inputs) {
            key += std::to_string(input);
            key += ',';
        }
        key += ':';
        appendShape(key, layer.outputShape);
        if (const auto *conv =
                std::get_if<graph::ConvAttrs>(&layer.attrs)) {
            key += ":c";
            for (std::int64_t v :
                 {conv->outChannels, conv->kernelH, conv->kernelW,
                  conv->strideH, conv->strideW, conv->padH,
                  conv->padW}) {
                key += std::to_string(v);
                key += ',';
            }
        } else if (const auto *fc =
                       std::get_if<graph::FcAttrs>(&layer.attrs)) {
            key += ":f";
            key += std::to_string(fc->outFeatures);
        } else if (const auto *pool =
                       std::get_if<graph::PoolAttrs>(&layer.attrs)) {
            key += ":p";
            for (std::int64_t v :
                 {pool->kernelH, pool->kernelW, pool->strideH,
                  pool->strideW, pool->padH, pool->padW}) {
                key += std::to_string(v);
                key += ',';
            }
        }
    }
}

} // namespace

PlanRequest::PlanRequest(const std::string &modelName,
                         const models::ModelParams &params,
                         hw::AcceleratorGroup array_)
    : model(models::catalog().build(modelName, params)),
      array(std::move(array_))
{
}

std::string
planRequestCanonicalKey(const PlanRequest &request)
{
    std::string key;
    key.reserve(1024);

    key += "v1;strategy=";
    key += request.strategy;

    // The search options only steer the solve for "custom"; named
    // strategies carry their own canonical knobs, so folding the
    // options in would needlessly split their cache entries.
    if (request.strategy == "custom") {
        const PlanOptions &o = request.options;
        key += ";opts=";
        key += std::to_string(static_cast<int>(o.objective));
        key += ',';
        key += std::to_string(static_cast<int>(o.reduce));
        key += ',';
        key += o.includeCompute ? '1' : '0';
        key += ',';
        appendDouble(key, o.bytesPerElement);
        key += ',';
        key += std::to_string(static_cast<int>(o.ratioPolicy));
        key += ',';
        key += std::to_string(o.ratioIterations);
        key += ',';
        appendDouble(key, o.minDimPerSide);
        if (o.allowedTypes)
            key += ",allowed-types:opaque";
    }
    key += ";verify=";
    key += request.options.verify ? '1' : '0';
    key += request.options.strict ? 'S' : '-';

    // The outer-search budget changes the produced plan for every
    // strategy that supports it, so it lives outside the "custom"-only
    // opts block above.
    if (request.options.search.enabled()) {
        const PlanOptions::SearchBudget &s = request.options.search;
        key += ";search=";
        key += std::to_string(s.budgetIters);
        key += ',';
        appendDouble(key, s.budgetMs);
        key += ",seed:";
        key += std::to_string(s.seed);
    }

    key += ";array=";
    for (const hw::GroupSlice &slice : request.array.slices()) {
        key += slice.spec.name;
        key += ':';
        key += std::to_string(slice.count);
        key += ':';
        appendDouble(key, slice.spec.computeDensity);
        key += ':';
        appendDouble(key, slice.spec.memoryCapacity);
        key += ':';
        appendDouble(key, slice.spec.memoryBandwidth);
        key += ':';
        appendDouble(key, slice.spec.linkBandwidth);
        key += '|';
    }
    key += "agg=";
    key += std::to_string(
        static_cast<int>(request.array.linkAggregation()));

    key += ";model=";
    appendModelKey(key, request.model);
    return key;
}

std::uint64_t
planRequestFingerprint(const PlanRequest &request)
{
    const std::string key = planRequestCanonicalKey(request);
    std::uint64_t hash = 14695981039346656037ull;
    for (char c : key) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

core::SolverOptions
PlanOptions::toSolverOptions(const std::string &strategy) const
{
    core::SolverOptions opts;
    opts.cost.objective = objective;
    opts.cost.reduce = reduce;
    opts.cost.includeCompute = includeCompute;
    opts.cost.bytesPerElement = bytesPerElement;
    opts.ratioPolicy = ratioPolicy;
    opts.ratioIterations = ratioIterations;
    opts.allowedTypes = allowedTypes;
    opts.minDimPerSide = minDimPerSide;
    opts.strategyName = strategy;
    return opts;
}

PlanOptions
PlanOptions::fromSolverOptions(const core::SolverOptions &opts)
{
    PlanOptions out;
    out.objective = opts.cost.objective;
    out.reduce = opts.cost.reduce;
    out.includeCompute = opts.cost.includeCompute;
    out.bytesPerElement = opts.cost.bytesPerElement;
    out.ratioPolicy = opts.ratioPolicy;
    out.ratioIterations = opts.ratioIterations;
    out.allowedTypes = opts.allowedTypes;
    out.minDimPerSide = opts.minDimPerSide;
    return out;
}

Planner::Planner() = default;
Planner::~Planner() = default;

int
Planner::effectiveJobs(int jobs)
{
    ACCPAR_REQUIRE(jobs >= 0, "jobs must be >= 0 (0 = all hardware "
                              "threads), got "
                                  << jobs);
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

util::ThreadPool *
Planner::poolFor(int jobs)
{
    const int effective = effectiveJobs(jobs);
    if (effective <= 1)
        return nullptr;
    if (!_pool || _poolJobs != effective) {
        _pool = std::make_unique<util::ThreadPool>(effective);
        _poolJobs = effective;
    }
    return _pool.get();
}

PlanResult
Planner::planOne(const PlanRequest &request,
                 const core::PartitionProblem &problem,
                 const hw::Hierarchy &hierarchy,
                 const core::SolveContext &context)
{
    const auto start = std::chrono::steady_clock::now();

    PlanResult result;

    // Outer-loop search: anneal over hierarchy shapes and device
    // assignments first, then let the request's strategy re-solve the
    // winning hierarchy below — that final solve is the one that gets
    // verified and certified, and it is bit-identical to the search's
    // own evaluation of the winner.
    const hw::Hierarchy *solve_hierarchy = &hierarchy;
    if (request.options.search.enabled()) {
        if (request.strategy != "accpar" && request.strategy != "custom")
            throw util::ConfigError(
                "outer search supports strategies 'accpar' and "
                "'custom' only, got '" +
                request.strategy + "'");
        search::SearchOptions search_options;
        search_options.seed = request.options.search.seed;
        search_options.budgetIters = request.options.search.budgetIters;
        search_options.budgetMs = request.options.search.budgetMs;
        // Named "accpar" carries its canonical knobs; only "custom"
        // honors the request's PlanOptions (mirrors the solve below).
        search_options.solver =
            (request.strategy == "custom" ? request.options
                                          : PlanOptions())
                .toSolverOptions(request.strategy);
        search::SearchOutcome outcome =
            search::AnnealingDriver(problem, request.array,
                                    search_options)
                .run(context);
        result.searchedHierarchy = std::make_shared<hw::Hierarchy>(
            std::move(outcome.bestHierarchy));
        result.searchReport = std::make_shared<search::SearchReport>(
            std::move(outcome.report));
        solve_hierarchy = result.searchedHierarchy.get();
    }

    core::SolveContext solve_context = context;
    if (request.options.emitCertificate) {
        result.certificate = std::make_shared<core::PlanCertificate>();
        solve_context.certificate = result.certificate.get();
    }
    core::CostModelConfig search_cost;
    if (request.strategy == "custom") {
        const core::SolverOptions opts =
            request.options.toSolverOptions(request.strategy);
        search_cost = opts.cost;
        result.plan = core::solveHierarchy(problem, *solve_hierarchy,
                                           opts, solve_context);
    } else {
        const strategies::StrategyPtr strategy =
            strategies::makeStrategy(request.strategy);
        search_cost = strategy->costConfig();
        result.plan =
            strategy->plan(problem, *solve_hierarchy, solve_context);
    }

    if (request.options.verify) {
        analysis::DiagnosticSink sink;
        analysis::VerifyOptions verify;
        verify.cost = search_cost;
        analysis::verifyPlan(problem, *solve_hierarchy, result.plan,
                             verify, sink);
        sink.sort();
        result.diagnostics = sink.diagnostics();
        if (sink.failsStrict(request.options.strict)) {
            throw util::ConfigError(
                "plan verification failed (strategy '" +
                result.plan.strategyName() + "', model '" +
                request.model.name() + "'):\n" + sink.renderText());
        }
    }

    result.strategy = result.plan.strategyName();
    result.model = request.model.name();
    const hw::NodeId root = solve_hierarchy->root();
    if (result.plan.hasNodePlan(root))
        result.rootCost = result.plan.nodePlan(root).cost;
    for (const core::NodePlan *node :
         result.plan.leftmostPath(*solve_hierarchy))
        result.levelCosts.push_back(node->cost);
    result.planSeconds = secondsSince(start);
    result.jobs = context.pool ? context.pool->concurrency() : 1;
    return result;
}

PlanResult
Planner::plan(const PlanRequest &request)
{
    const core::PartitionProblem problem(request.model);
    const hw::Hierarchy hierarchy(request.array);
    const core::SolveContext context{poolFor(request.jobs)};
    return planOne(request, problem, hierarchy, context);
}

std::vector<PlanResult>
Planner::planBatch(const std::vector<PlanRequest> &requests)
{
    if (requests.empty())
        return {};

    int jobs = 1;
    for (const PlanRequest &request : requests)
        jobs = std::max(jobs, effectiveJobs(request.jobs));
    util::ThreadPool *pool = poolFor(jobs);
    const core::SolveContext context{pool};

    // Build each distinct model's PartitionProblem exactly once, up
    // front and serially: condensation, the series-parallel
    // decomposition and the compiled DP structure (DpStructure — the
    // edge CSR and chain mirror every DpKernel borrows) are the
    // per-request setup cost a sweep repeats, and the finished
    // problems are read-only during the solves so requests sharing a
    // model can safely share one instance across threads.
    std::vector<std::unique_ptr<core::PartitionProblem>> problems;
    std::vector<std::size_t> problem_of(requests.size());
    std::unordered_map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::string model_key;
        appendModelKey(model_key, requests[i].model);
        const auto [it, inserted] =
            index.emplace(std::move(model_key), problems.size());
        if (inserted)
            problems.push_back(std::make_unique<core::PartitionProblem>(
                requests[i].model));
        problem_of[i] = it->second;
    }

    std::vector<PlanResult> results(requests.size());
    util::parallelFor(pool, requests.size(), [&](std::size_t i) {
        const hw::Hierarchy hierarchy(requests[i].array);
        results[i] = planOne(requests[i], *problems[problem_of[i]],
                             hierarchy, context);
    });
    return results;
}

StrategyComparison
Planner::compare(const PlanRequest &request)
{
    const core::PartitionProblem problem(request.model);
    const hw::Hierarchy hierarchy(request.array);
    util::ThreadPool *pool = poolFor(request.jobs);
    const core::SolveContext context{pool};

    const std::vector<strategies::StrategyPtr> strategies =
        strategies::defaultStrategies();

    StrategyComparison comparison;
    comparison.plans.resize(strategies.size());
    util::parallelFor(pool, strategies.size(), [&](std::size_t i) {
        PlanRequest one = request;
        one.strategy = strategies[i]->name();
        comparison.plans[i] =
            planOne(one, problem, hierarchy, context);
    });

    const std::int64_t batch =
        request.model.layer(request.model.inputLayer()).outputShape.n;
    for (const PlanResult &plan : comparison.plans)
        comparison.runs.push_back(sim::simulatePlan(
            problem, batch, hierarchy, plan.plan, request.sim));

    const double base = comparison.runs.front().throughput;
    for (const sim::TrainingRunResult &run : comparison.runs)
        comparison.speedup.push_back(
            base > 0.0 ? run.throughput / base : 0.0);
    return comparison;
}

SimulationResult
Planner::simulate(const PlanRequest &request)
{
    const core::PartitionProblem problem(request.model);
    const hw::Hierarchy hierarchy(request.array);
    const core::SolveContext context{poolFor(request.jobs)};

    SimulationResult result;
    result.plan = planOne(request, problem, hierarchy, context);

    const std::int64_t batch =
        request.model.layer(request.model.inputLayer()).outputShape.n;
    result.run = sim::simulatePlan(problem, batch, hierarchy,
                                   result.plan.plan, request.sim);
    return result;
}

} // namespace accpar
