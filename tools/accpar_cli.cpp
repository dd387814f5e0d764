/**
 * @file
 * The `accpar` command-line tool: plan, simulate and compare tensor
 * partitionings without writing C++.
 *
 * Subcommands:
 *   models   [--json]
 *            list the model catalog: every name `--model` accepts,
 *            its family, and its build parameters
 *   info     --model NAME [--batch N]
 *            model summary (layers, weights, FLOPs) and DOT export
 *   plan     --model NAME [--batch N] [--array SPEC] [--jobs N]
 *            [--strategy dp|owt|hypar|accpar] [--out plan.json]
 *            [--search-budget N] [--search-ms MS] [--seed S]
 *            search a partition plan; print per-level types. With a
 *            search budget the outer-loop annealer (DESIGN.md §16)
 *            optimizes the hierarchy first and the plan is reported
 *            on the winning hierarchy
 *   search   --model NAME (--budget-iters N | --budget-ms MS)
 *            [--seed S] [--batch N] [--array SPEC] [--jobs N]
 *            [--strategy accpar|custom] [--out plan.json]
 *            [--cert cert.json]
 *            anytime outer-loop search over hierarchy shapes and
 *            device assignments with the exact DP as inner oracle;
 *            prints baseline vs best cost, the anytime improvement
 *            curve, and the winning plan. Never reports a plan worse
 *            than `accpar plan`'s; --budget-iters runs are
 *            deterministic for a fixed --seed (any --jobs)
 *   simulate --model NAME [--batch N] [--array SPEC] [--jobs N]
 *            (--strategy S | --plan plan.json) [--optimizer OPT]
 *            simulate one training step and report timing
 *   compare  [--models a,b,c] [--batch N] [--array SPEC] [--jobs N]
 *            [--optimizer OPT] [--csv FILE]
 *            the Figure 5/6 style strategy comparison. With
 *            --search-budget N (and optionally --search-ms/--seed) it
 *            instead diffs the outer-searched plan against the
 *            baseline DP plan per model: level-by-level type
 *            disagreements (core/plan_diff.h) plus the total cost
 *            delta
 *   sweep    --model NAME [--min-levels 2] [--max-levels 9] [--jobs N]
 *            [--optimizer OPT]
 *            the Figure 8 style hierarchy sweep
 *   diff     compare two plans (by strategy or plan file)
 *   validate (--model NAME | --model-file FILE) [--plan plan.json]
 *            [--array SPEC] [--strategy S] [--strict] [--json]
 *            statically check a model description (graph linter) or a
 *            saved plan (plan verifier) and print diagnostics; exits
 *            nonzero when errors (or, with --strict, warnings) are
 *            found
 *   audit    <plan.json> --cert cert.json (--model NAME | --model-file
 *            FILE) [--batch N] [--array SPEC]
 *            [--exhaustive-max-layers N] [--alpha-eps E] [--strict]
 *            [--json]
 *            audit a plan against its certificate: re-derive every
 *            cost-table cell, replay the Bellman recurrence, run the
 *            one-swap optimality linter, and (for graphs up to
 *            --exhaustive-max-layers) cross-check against the
 *            brute-force oracle; exits nonzero on findings
 *   serve    [--host 127.0.0.1] [--port 7411] [--jobs N]
 *            [--cache-entries N] [--max-queue N] [--planner-jobs N]
 *            long-running planning daemon speaking the
 *            newline-delimited JSON protocol (DESIGN.md §10); drains
 *            gracefully on SIGINT/SIGTERM or a `shutdown` request and
 *            dumps its metrics on exit
 *   load     [--host H] [--port P | --loopback] [--requests N]
 *            [--concurrency K] [--mix plan,validate] [--model NAME]
 *            [--batch N] [--array SPEC] [--strategy S] [--shutdown]
 *            closed-loop load generator against a running server (or
 *            an in-process service with --loopback); exits nonzero
 *            when any request failed
 *
 * `accpar --version` prints the library version. Every subcommand
 * accepts --log-level {debug,info,warn,error,off} (the
 * ACCPAR_LOG_LEVEL environment variable sets the default, else info).
 *
 * Model selection (info, plan, simulate, sweep, diff, validate,
 * audit): `--model NAME` picks a catalog entry (`accpar models` lists
 * them) built with repeatable `--param key=value` flags — e.g.
 * `--model bert-base --param depth=6 --param batch=16`; `--batch N`
 * is shorthand for `--param batch=N`. `--import FILE` instead loads a
 * model file: `.dot` in the graph::toDot dialect, an ONNX-as-JSON
 * shape dump, or the native JSON description (`--model-file` is the
 * older spelling that only accepts the native JSON format).
 *
 * --jobs N runs the planning engine with N concurrency lanes (0 = all
 * hardware threads, default 1). Plans are bit-identical for any value.
 *
 * Array SPEC: "hetero" (default; 128 TPU-v2 + 128 TPU-v3), "homo"
 * (128 TPU-v3), or slices like "tpu-v2:96+tpu-v3:32"; custom
 * accelerators use name:count:tflops:mem_gb:mem_gbps:link_gbit.
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/certificate_checker.h"
#include "analysis/graph_linter.h"
#include "analysis/plan_verifier.h"
#include "core/certificate_io.h"
#include "core/plan_diff.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "graph/dot_export.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/catalog.h"
#include "models/import.h"
#include "models/model_io.h"
#include "models/summary.h"
#include "models/zoo.h"
#include "search/annealing.h"
#include "service/load_gen.h"
#include "service/plan_service.h"
#include "service/tcp_server.h"
#include "sim/optimizer.h"
#include "sim/report.h"
#include "strategies/registry.h"
#include "util/args.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace accpar;

/** Build parameters from repeated --param flags, with --batch as
 *  shorthand for batch=N (an explicit --param batch wins). */
models::ModelParams
modelParams(const util::Args &args)
{
    models::ModelParams params =
        models::ModelParams::fromKeyValues(args.getAll("param"));
    if (!params.has("batch") && args.has("batch"))
        params.set("batch",
                   std::to_string(args.getIntOr("batch", 512)));
    return params;
}

/** Builds the --model catalog entry with the --param/--batch flags. */
graph::Graph
buildCatalogModel(const util::Args &args)
{
    return models::catalog().build(args.getOr("model", "vgg16"),
                                   modelParams(args));
}

/**
 * Resolves the model under test: --import loads a model file (DOT,
 * ONNX-as-JSON, or native JSON — see models/import.h), --model-file
 * loads the native JSON description, and otherwise --model picks a
 * catalog entry built with --param/--batch.
 */
graph::Graph
resolveModel(const util::Args &args)
{
    if (const auto path = args.get("import"))
        return models::importModel(*path);
    if (const auto path = args.get("model-file"))
        return models::loadModelFile(*path);
    return buildCatalogModel(args);
}

int
jobsArg(const util::Args &args)
{
    return static_cast<int>(args.getIntOr("jobs", 1));
}

sim::TrainingSimConfig
simConfig(const util::Args &args)
{
    sim::TrainingSimConfig config;
    if (const auto name = args.get("optimizer"))
        config.trace.optimizer = sim::parseOptimizer(*name);
    return config;
}

/**
 * Applies the --log-level flag (or, when absent, leaves whatever
 * ACCPAR_LOG_LEVEL / the info default established at startup).
 */
void
applyLogLevel(const util::Args &args)
{
    if (const auto level = args.get("log-level"))
        util::Logger::instance().setLevel(
            util::parseLogLevel(*level));
}

int
usage()
{
    std::cerr
        << "usage: accpar "
           "<models|info|plan|search|simulate|compare|sweep|diff|"
           "validate|audit|serve|load> [flags]\n"
        << "       accpar --version\n"
        << "run 'accpar' with a subcommand; see tools/accpar_cli.cpp "
           "header for flags\n";
    return 2;
}

int
cmdModels(const util::Args &args)
{
    args.checkKnown({"json", "log-level"});
    const std::vector<models::ModelEntry> &entries =
        models::catalog().entries();
    if (args.has("json")) {
        util::Json::Array list;
        for (const models::ModelEntry &e : entries) {
            util::Json entry = util::Json::Object{};
            entry["name"] = e.name;
            entry["family"] = e.family;
            entry["description"] = e.description;
            util::Json::Array params;
            for (const std::string &p : e.params)
                params.push_back(p);
            entry["params"] = std::move(params);
            list.push_back(std::move(entry));
        }
        util::Json doc = util::Json::Object{};
        doc["tool"] = "accpar";
        doc["version"] = kAccParVersion;
        doc["models"] = std::move(list);
        std::cout << doc.dump(2) << '\n';
        return 0;
    }
    std::size_t name_width = 0;
    std::size_t family_width = 0;
    for (const models::ModelEntry &e : entries) {
        name_width = std::max(name_width, e.name.size());
        family_width = std::max(family_width, e.family.size());
    }
    for (const models::ModelEntry &e : entries) {
        std::cout << e.name
                  << std::string(name_width - e.name.size() + 2, ' ')
                  << e.family
                  << std::string(family_width - e.family.size() + 2,
                                 ' ')
                  << e.description;
        if (!e.params.empty())
            std::cout << " [params: " << util::join(e.params, ", ")
                      << "]";
        std::cout << '\n';
    }
    std::cout << entries.size()
              << " models; build one with `accpar plan --model NAME "
                 "--param key=value`\n";
    return 0;
}

int
cmdInfo(const util::Args &args)
{
    args.checkKnown({"model", "model-file", "import", "param",
                     "batch", "dot", "log-level"});
    const graph::Graph model = resolveModel(args);
    std::cout << models::formatSummary(models::summarizeModel(model));
    if (const auto path = args.get("dot")) {
        std::ofstream out(*path);
        if (!out.is_open()) {
            std::cerr << "error: cannot open " << *path
                      << " for writing\n";
            return 1;
        }
        out << graph::toDot(model);
        if (!out.good()) {
            std::cerr << "error: write to " << *path << " failed\n";
            return 1;
        }
        std::cout << "[dot written to " << *path << "]\n";
    }
    return 0;
}

/** One line summarizing what the outer search did. */
void
printSearchSummary(const search::SearchReport &report)
{
    std::ostringstream os;
    os.precision(6);
    os << "search: baseline " << report.baselineCost << " -> best "
       << report.bestCost;
    if (report.improvedOverBaseline()) {
        os.precision(3);
        os << " ("
           << (1.0 - report.bestCost / report.baselineCost) * 100.0
           << "% better)";
    } else {
        os << " (kept the seed hierarchy)";
    }
    os << " after " << report.iterations << " iteration(s), seed "
       << report.seed << '\n';
    std::cout << os.str();
}

/**
 * Reads the outer-search flags into @p options. `plan` spells them
 * --search-budget/--search-ms so a budget-less `accpar plan` stays
 * the pure DP path; `search` spells them --budget-iters/--budget-ms
 * and requires one to be set.
 */
void
applySearchFlags(const util::Args &args, const char *iters_flag,
                 const char *ms_flag, PlanOptions &options)
{
    options.search.budgetIters =
        static_cast<int>(args.getIntOr(iters_flag, 0));
    options.search.budgetMs = args.getDoubleOr(ms_flag, 0.0);
    options.search.seed =
        static_cast<std::uint64_t>(args.getIntOr("seed", 1));
}

int
cmdPlan(const util::Args &args)
{
    args.checkKnown({"model", "model-file", "import", "param",
                     "batch", "array", "strategy", "out", "cert",
                     "jobs", "no-verify", "strict", "search-budget",
                     "search-ms", "seed", "log-level"});
    const hw::AcceleratorGroup array =
        hw::parseArraySpec(args.getOr("array", "hetero"));

    PlanRequest request(resolveModel(args), array);
    request.strategy = args.getOr("strategy", "accpar");
    request.jobs = jobsArg(args);
    request.options.verify = !args.has("no-verify");
    request.options.strict = args.has("strict");
    request.options.emitCertificate = args.has("cert");
    applySearchFlags(args, "search-budget", "search-ms",
                     request.options);

    Planner planner;
    const PlanResult result = planner.plan(request);

    // A searched plan's node ids index the winning hierarchy, not the
    // seed one — render and save against whichever produced the plan.
    const hw::Hierarchy seed_hierarchy(array);
    const hw::Hierarchy &hierarchy = result.searchedHierarchy
                                         ? *result.searchedHierarchy
                                         : seed_hierarchy;
    std::cout << "array: " << array.toString() << '\n';
    std::cout << result.plan.toString(hierarchy);
    if (result.searchReport)
        printSearchSummary(*result.searchReport);
    std::cout << "planned in " << util::humanSeconds(result.planSeconds)
              << " with " << result.jobs << " job(s)\n";
    if (const auto path = args.get("out")) {
        core::savePlan(result.plan, hierarchy, *path);
        std::cout << "[plan written to " << *path << "]\n";
    }
    if (const auto path = args.get("cert")) {
        core::saveCertificate(*result.certificate, hierarchy, *path);
        std::cout << "[certificate written to " << *path << "]\n";
    }
    return 0;
}

int
cmdSearch(const util::Args &args)
{
    args.checkKnown({"model", "model-file", "import", "param",
                     "batch", "array", "strategy", "out", "cert",
                     "jobs", "no-verify", "strict", "budget-iters",
                     "budget-ms", "seed", "log-level"});
    const hw::AcceleratorGroup array =
        hw::parseArraySpec(args.getOr("array", "hetero"));

    PlanRequest request(resolveModel(args), array);
    request.strategy = args.getOr("strategy", "accpar");
    request.jobs = jobsArg(args);
    request.options.verify = !args.has("no-verify");
    request.options.strict = args.has("strict");
    request.options.emitCertificate = args.has("cert");
    applySearchFlags(args, "budget-iters", "budget-ms",
                     request.options);
    if (!request.options.search.enabled()) {
        std::cerr << "error: search needs --budget-iters N or "
                     "--budget-ms MS\n";
        return 2;
    }

    Planner planner;
    const PlanResult result = planner.plan(request);
    const hw::Hierarchy &hierarchy = *result.searchedHierarchy;
    const search::SearchReport &report = *result.searchReport;

    std::cout << "array:     " << array.toString() << '\n';
    std::cout << "hierarchy: " << report.bestSignature << '\n';
    std::cout << result.plan.toString(hierarchy);
    printSearchSummary(report);
    std::cout << "anytime curve (iteration -> best cost):\n";
    {
        std::ostringstream os;
        os.precision(6);
        for (const search::AnytimePoint &point : report.anytime)
            os << "  " << point.iteration << " -> " << point.bestCost
               << '\n';
        std::cout << os.str();
    }
    std::cout << "planned in " << util::humanSeconds(result.planSeconds)
              << " with " << result.jobs << " job(s)\n";
    if (const auto path = args.get("out")) {
        core::savePlan(result.plan, hierarchy, *path);
        std::cout << "[plan written to " << *path << "]\n";
    }
    if (const auto path = args.get("cert")) {
        core::saveCertificate(*result.certificate, hierarchy, *path);
        std::cout << "[certificate written to " << *path << "]\n";
    }
    return 0;
}

int
cmdSimulate(const util::Args &args)
{
    args.checkKnown({"model", "model-file", "import", "param",
                     "batch", "array", "strategy", "plan", "jobs",
                     "optimizer", "log-level"});
    const hw::AcceleratorGroup array =
        hw::parseArraySpec(args.getOr("array", "hetero"));
    const hw::Hierarchy hierarchy(array);

    const sim::TrainingRunResult run = [&] {
        if (const auto path = args.get("plan")) {
            const graph::Graph model = resolveModel(args);
            const std::int64_t batch =
                model.layer(model.inputLayer()).outputShape.n;
            const core::PartitionProblem problem(model);
            const core::PartitionPlan plan =
                core::loadPlan(*path, hierarchy);
            return sim::simulatePlan(problem, batch, hierarchy, plan,
                                     simConfig(args));
        }
        PlanRequest request(resolveModel(args), array);
        request.strategy = args.getOr("strategy", "accpar");
        request.jobs = jobsArg(args);
        request.sim = simConfig(args);
        Planner planner;
        return planner.simulate(request).run;
    }();

    std::cout << "array:            " << array.toString() << '\n'
              << "strategy:         " << run.strategyName << '\n'
              << "step time:        "
              << util::humanSeconds(run.stepTime) << '\n'
              << "throughput:       " << run.throughput
              << " samples/s\n"
              << "worst execute:    "
              << util::humanSeconds(run.timing.maxExecuteTime) << '\n'
              << "worst network:    "
              << util::humanSeconds(run.timing.maxNetworkTime) << '\n'
              << "total FLOPs:      "
              << util::humanFlops(run.timing.totalFlops) << '\n'
              << "network traffic:  "
              << util::humanBytes(run.timing.totalNetworkBytes) << '\n'
              << "peak board memory: "
              << util::humanBytes(run.peakLeafMemory)
              << (run.fitsMemory ? " (fits HBM)"
                                 : " (EXCEEDS HBM CAPACITY)")
              << '\n'
              << '\n'
              << sim::formatRunBreakdown(run);
    return 0;
}

/**
 * The --search-budget mode of `accpar compare`: for each model, plan
 * the baseline DP on the seed hierarchy and the outer-searched plan,
 * then report the level-by-level type disagreements and the total
 * cost delta.
 */
int
compareSearched(const util::Args &args,
                const std::vector<std::string> &names)
{
    const hw::AcceleratorGroup array =
        hw::parseArraySpec(args.getOr("array", "hetero"));
    const hw::Hierarchy seed_hierarchy(array);
    const models::ModelParams params = modelParams(args);

    Planner planner;
    int improved = 0;
    for (const std::string &name : names) {
        const graph::Graph model =
            models::catalog().build(name, params);
        PlanRequest baseline(model, array);
        baseline.jobs = jobsArg(args);
        PlanRequest searched(model, array);
        searched.jobs = jobsArg(args);
        applySearchFlags(args, "search-budget", "search-ms",
                         searched.options);

        const std::vector<PlanResult> results =
            planner.planBatch({baseline, searched});
        const PlanResult &base = results[0];
        const PlanResult &best = results[1];
        const hw::Hierarchy &best_hierarchy =
            best.searchedHierarchy ? *best.searchedHierarchy
                                   : seed_hierarchy;

        const core::PlanDiff diff = core::diffPlansByLevel(
            base.plan, seed_hierarchy, best.plan, best_hierarchy);
        std::cout << name << ": "
                  << core::formatPlanDiff(diff, "baseline dp",
                                          "searched");
        // The search objective is the worst root-to-leaf path cost
        // (what SearchReport records for both sides), not the
        // root-level DP cost — the two can move in opposite
        // directions across different hierarchies.
        const search::SearchReport &report = *best.searchReport;
        std::ostringstream os;
        os.precision(6);
        os << name << ": worst-path cost " << report.baselineCost
           << " -> " << report.bestCost;
        if (report.improvedOverBaseline()) {
            ++improved;
            os.precision(3);
            os << " ("
               << (1.0 - report.bestCost / report.baselineCost) * 100.0
               << "% better)";
        } else {
            os << " (no improvement)";
        }
        std::cout << os.str() << "\n\n";
    }
    std::cout << "search improved " << improved << " of "
              << names.size() << " model(s)\n";
    return 0;
}

int
cmdCompare(const util::Args &args)
{
    args.checkKnown({"models", "model", "param", "batch", "array",
                     "csv", "jobs", "optimizer", "search-budget",
                     "search-ms", "seed", "log-level"});
    std::vector<std::string> names;
    if (const auto list = args.get("models")) {
        for (const std::string &part : util::split(*list, ','))
            names.push_back(util::trim(part));
    } else if (const auto one = args.get("model")) {
        names.push_back(*one);
    } else {
        names = models::modelNames();
    }
    if (args.has("search-budget") || args.has("search-ms"))
        return compareSearched(args, names);
    const hw::AcceleratorGroup array =
        hw::parseArraySpec(args.getOr("array", "hetero"));
    const models::ModelParams params = modelParams(args);

    Planner planner;
    sim::SpeedupTable table;
    for (const strategies::StrategyPtr &s :
         strategies::defaultStrategies())
        table.strategyLabels.push_back(s->label());

    double solve_seconds = 0.0;
    for (const std::string &name : names) {
        PlanRequest request(name, params, array);
        request.jobs = jobsArg(args);
        request.sim = simConfig(args);
        const StrategyComparison comparison = planner.compare(request);

        sim::SpeedupRow row;
        row.model = name;
        for (const sim::TrainingRunResult &run : comparison.runs)
            row.throughput.push_back(run.throughput);
        for (const PlanResult &plan : comparison.plans)
            solve_seconds += plan.planSeconds;
        row.speedup = comparison.speedup;
        table.rows.push_back(std::move(row));
    }
    for (std::size_t s = 0; s < table.strategyLabels.size(); ++s) {
        std::vector<double> column;
        for (const sim::SpeedupRow &row : table.rows)
            column.push_back(row.speedup[s]);
        table.geomean.push_back(util::geometricMean(column));
    }

    std::cout << sim::formatSpeedupTable(
        table,
        "speedup over data parallelism on " + array.toString());
    std::cout << "solved " << table.rows.size() << " model(s) x "
              << table.strategyLabels.size() << " strategies in "
              << util::humanSeconds(solve_seconds)
              << " of solver time\n";
    if (const auto path = args.get("csv")) {
        sim::writeSpeedupCsv(table, *path);
        std::cout << "[csv written to " << *path << "]\n";
    }
    return 0;
}

int
cmdSweep(const util::Args &args)
{
    args.checkKnown({"model", "param", "batch", "min-levels",
                     "max-levels", "jobs", "optimizer", "log-level"});
    const std::string model_name = args.getOr("model", "vgg19");
    const auto min_levels =
        static_cast<int>(args.getIntOr("min-levels", 2));
    const auto max_levels =
        static_cast<int>(args.getIntOr("max-levels", 9));

    const std::vector<strategies::StrategyPtr> sweep_strategies =
        strategies::defaultStrategies();
    std::vector<std::string> header = {"h"};
    for (const auto &s : sweep_strategies)
        header.push_back(s->label());

    // The whole sweep is one planBatch call: the model is built once
    // and every (level, strategy) point shares one PartitionProblem,
    // instead of rebuilding model and problem per level.
    const graph::Graph model =
        models::catalog().build(model_name, modelParams(args));
    const std::int64_t batch =
        model.layer(model.inputLayer()).outputShape.n;
    const sim::TrainingSimConfig sim_config = simConfig(args);
    std::vector<PlanRequest> requests;
    for (int levels = min_levels; levels <= max_levels; ++levels) {
        for (const auto &s : sweep_strategies) {
            PlanRequest request(
                model, hw::heterogeneousTpuArrayForLevels(levels));
            request.strategy = s->name();
            request.jobs = jobsArg(args);
            request.sim = sim_config;
            requests.push_back(std::move(request));
        }
    }

    Planner planner;
    const std::vector<PlanResult> results = planner.planBatch(requests);

    const core::PartitionProblem problem(model);
    util::Table table(header);
    std::size_t next = 0;
    for (int levels = min_levels; levels <= max_levels; ++levels) {
        const hw::Hierarchy hierarchy(
            hw::heterogeneousTpuArrayForLevels(levels));
        std::vector<double> throughput;
        for (std::size_t s = 0; s < sweep_strategies.size();
             ++s, ++next) {
            throughput.push_back(
                sim::simulatePlan(problem, batch, hierarchy,
                                  results[next].plan, sim_config)
                    .throughput);
        }
        const double base = throughput.front();
        std::vector<double> speedup;
        for (double t : throughput)
            speedup.push_back(base > 0.0 ? t / base : 0.0);
        table.addRow("h=" + std::to_string(levels), speedup, 4);
    }
    std::cout << model_name
              << ": speedup vs hierarchy level (normalized to DP)\n";
    table.print(std::cout);
    return 0;
}


int
cmdDiff(const util::Args &args)
{
    args.checkKnown({"model", "model-file", "import", "param",
                     "batch", "array", "left", "right", "left-plan",
                     "right-plan", "log-level"});
    const hw::AcceleratorGroup array =
        hw::parseArraySpec(args.getOr("array", "hetero"));
    const hw::Hierarchy hierarchy(array);

    auto resolve = [&](const char *strategy_flag,
                       const char *plan_flag,
                       const char *fallback) -> core::PartitionPlan {
        if (const auto path = args.get(plan_flag))
            return core::loadPlan(*path, hierarchy);
        const graph::Graph model = resolveModel(args);
        return strategies::makeStrategy(args.getOr(strategy_flag,
                                                   fallback))
            ->plan(model, hierarchy);
    };
    const core::PartitionPlan left =
        resolve("left", "left-plan", "accpar");
    const core::PartitionPlan right =
        resolve("right", "right-plan", "hypar");

    const core::PlanDiff diff = diffPlans(left, right, hierarchy);
    std::cout << core::formatPlanDiff(
        diff, left.strategyName(), right.strategyName());
    return 0;
}

/**
 * Renders @p sink and maps it to a process exit code: 0 when the
 * artifact passes, 1 when it must be rejected (errors always, warnings
 * too under --strict). The --json rendering wraps the diagnostics in a
 * versioned envelope (tool, library version, rule-catalog revision; see
 * DESIGN.md §9) so archived results stay interpretable as the rule set
 * evolves.
 */
int
reportDiagnostics(analysis::DiagnosticSink &sink,
                  const util::Args &args, const std::string &subject)
{
    sink.sort();
    if (args.has("json")) {
        util::Json envelope = sink.renderJson();
        envelope["tool"] = "accpar";
        envelope["version"] = kAccParVersion;
        envelope["rulesRevision"] = analysis::kRuleCatalogRevision;
        std::cout << envelope.dump(2) << '\n';
    } else if (sink.empty()) {
        std::cout << subject << ": no issues found\n";
    } else {
        std::cout << sink.renderText();
    }
    return sink.failsStrict(args.has("strict")) ? 1 : 0;
}

int
cmdValidate(const util::Args &args)
{
    args.checkKnown({"model", "model-file", "import", "param",
                     "batch", "array", "plan", "strategy", "strict",
                     "json", "log-level"});
    analysis::DiagnosticSink sink;

    // Phase 1: the model itself, through the graph linter. A model
    // file additionally passes the format checks of its importer.
    std::optional<graph::Graph> model;
    std::string subject;
    if (const auto path = args.get("import")) {
        subject = *path;
        model = models::importModel(*path, sink);
    } else if (const auto path = args.get("model-file")) {
        subject = *path;
        model = models::loadModelFile(*path, sink);
    } else {
        subject = "model '" + args.getOr("model", "vgg16") + "'";
        graph::Graph zoo_model = buildCatalogModel(args);
        if (analysis::lintGraph(zoo_model, sink))
            model = std::move(zoo_model);
    }

    const auto plan_path = args.get("plan");
    if (!plan_path || !model)
        return reportDiagnostics(sink, args, subject);

    // Phase 2: a saved plan for that model, through the plan verifier.
    subject = *plan_path;
    const hw::AcceleratorGroup array =
        hw::parseArraySpec(args.getOr("array", "hetero"));
    const hw::Hierarchy hierarchy(array);
    const std::optional<core::PartitionPlan> plan =
        core::loadPlan(*plan_path, hierarchy, sink);
    if (!plan)
        return reportDiagnostics(sink, args, subject);

    analysis::VerifyOptions options;
    const std::string strategy =
        args.getOr("strategy", plan->strategyName());
    try {
        options.cost =
            strategies::makeStrategy(strategy)->costConfig();
    } catch (const util::ConfigError &) {
        // Unknown search configuration (e.g. "custom"): every rule
        // except the cost cross-check still applies.
        options.checkCosts = false;
    }
    const core::PartitionProblem problem(*model);
    analysis::verifyPlan(problem, hierarchy, *plan, options, sink);
    return reportDiagnostics(sink, args, subject);
}

int
cmdAudit(const util::Args &args)
{
    args.checkKnown({"model", "model-file", "import", "param",
                     "batch", "array", "plan", "cert",
                     "exhaustive-max-layers", "alpha-eps", "strict",
                     "json", "log-level"});
    const auto cert_path = args.get("cert");
    if (!cert_path) {
        std::cerr << "error: audit requires --cert FILE\n";
        return 2;
    }
    std::string plan_path;
    if (const auto path = args.get("plan")) {
        plan_path = *path;
    } else if (!args.positional().empty()) {
        plan_path = args.positional().front();
    } else {
        std::cerr << "error: audit requires a plan file (positional "
                     "or --plan)\n";
        return 2;
    }

    const hw::AcceleratorGroup array =
        hw::parseArraySpec(args.getOr("array", "hetero"));
    const hw::Hierarchy hierarchy(array);

    analysis::DiagnosticSink sink;
    const std::optional<core::PartitionPlan> plan =
        core::loadPlan(plan_path, hierarchy, sink);
    const std::optional<core::PlanCertificate> certificate =
        core::loadCertificate(*cert_path, hierarchy, sink);
    if (!plan || !certificate)
        return reportDiagnostics(sink, args, *cert_path);

    const core::PartitionProblem problem(resolveModel(args));
    analysis::CheckOptions options;
    options.exhaustiveMaxLayers = static_cast<std::size_t>(
        args.getIntOr("exhaustive-max-layers", 8));
    options.alphaEps = args.getDoubleOr("alpha-eps", 1e-3);
    analysis::checkCertificate(problem, hierarchy, *plan, *certificate,
                               options, sink);
    return reportDiagnostics(sink, args, *cert_path);
}

int
cmdServe(const util::Args &args)
{
    args.checkKnown({"host", "port", "jobs", "planner-jobs",
                     "cache-entries", "cache-shards", "max-queue",
                     "deadline-ms", "log-level"});

    service::ServiceConfig config;
    config.workers = static_cast<int>(args.getIntOr("jobs", 2));
    config.plannerJobs =
        static_cast<int>(args.getIntOr("planner-jobs", 1));
    config.maxQueue =
        static_cast<std::size_t>(args.getIntOr("max-queue", 64));
    config.cacheEntries = static_cast<std::size_t>(
        args.getIntOr("cache-entries", 512));
    config.cacheShards = static_cast<std::size_t>(
        args.getIntOr("cache-shards", 8));
    config.defaultDeadlineSeconds =
        args.getDoubleOr("deadline-ms", 0.0) / 1e3;

    service::TcpServerConfig tcp;
    tcp.host = args.getOr("host", "127.0.0.1");
    tcp.port = static_cast<int>(args.getIntOr("port", 7411));

    service::PlanService plan_service(config);
    service::TcpServer server(plan_service, tcp);
    service::installSignalStop();

    std::cout << "accpar serve: listening on " << tcp.host << ':'
              << server.port() << " (workers=" << config.workers
              << ", planner jobs=" << config.plannerJobs
              << ", cache=" << config.cacheEntries
              << " entries, queue=" << config.maxQueue << ")\n"
              << std::flush;
    server.serve();

    std::cout << plan_service.statsText() << std::flush;
    return 0;
}

int
cmdLoad(const util::Args &args)
{
    args.checkKnown({"host", "port", "loopback", "requests",
                     "concurrency", "mix", "model", "param", "batch",
                     "array", "strategy", "shutdown", "jobs",
                     "cache-entries", "max-queue", "log-level"});

    service::LoadGenConfig config;
    config.host = args.getOr("host", "127.0.0.1");
    config.port = static_cast<int>(args.getIntOr("port", 7411));
    config.requests =
        static_cast<int>(args.getIntOr("requests", 100));
    config.concurrency =
        static_cast<int>(args.getIntOr("concurrency", 4));
    config.mix = service::parseLoadMix(args.getOr("mix", "plan"));
    config.model = args.getOr("model", "lenet");
    config.batch = args.getIntOr("batch", 32);
    config.params =
        models::ModelParams::fromKeyValues(args.getAll("param"))
            .values();
    config.array = args.getOr("array", "tpu-v3:2");
    config.strategy = args.getOr("strategy", "accpar");
    config.shutdownAfter = args.has("shutdown");

    std::unique_ptr<service::PlanService> loopback;
    if (args.has("loopback")) {
        // In-process service: same engine, no sockets — lets the load
        // generator double as a self-contained smoke test.
        service::ServiceConfig service_config;
        service_config.workers =
            static_cast<int>(args.getIntOr("jobs", 2));
        service_config.maxQueue = static_cast<std::size_t>(
            args.getIntOr("max-queue", 256));
        service_config.cacheEntries = static_cast<std::size_t>(
            args.getIntOr("cache-entries", 512));
        loopback =
            std::make_unique<service::PlanService>(service_config);
    }

    const service::LoadGenReport report =
        service::runLoadGen(config, loopback.get());
    std::cout << formatLoadReport(report) << std::flush;
    return report.errors == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "--version" || command == "version") {
        std::cout << "accpar " << kAccParVersion << '\n';
        return 0;
    }
    std::vector<std::string> rest(argv + 2, argv + argc);

    try {
        const util::Args args(rest, {"strict", "json", "no-verify",
                                     "loopback", "shutdown"});
        applyLogLevel(args);
        if (command == "models")
            return cmdModels(args);
        if (command == "info")
            return cmdInfo(args);
        if (command == "plan")
            return cmdPlan(args);
        if (command == "search")
            return cmdSearch(args);
        if (command == "simulate")
            return cmdSimulate(args);
        if (command == "compare")
            return cmdCompare(args);
        if (command == "sweep")
            return cmdSweep(args);
        if (command == "diff")
            return cmdDiff(args);
        if (command == "validate")
            return cmdValidate(args);
        if (command == "audit")
            return cmdAudit(args);
        if (command == "serve")
            return cmdServe(args);
        if (command == "load")
            return cmdLoad(args);
        std::cerr << "unknown subcommand '" << command << "'\n";
        return usage();
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
