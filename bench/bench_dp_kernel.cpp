/**
 * @file
 * DP-kernel microbenchmark: the flattened chain-DP kernel
 * (core::solveHierarchy, src/core/dp_kernel.*) against the frozen
 * pre-refactor implementation (tests/support/legacy_dp.*), on the full
 * adaptive-ratio hierarchical solve of the paper's networks.
 *
 * Both arms run sequentially (no thread pool) so the comparison
 * isolates the kernel itself. Plans are asserted byte-identical
 * between the arms before any timing is reported.
 *
 * Timing is interleaved A/B sampling: shared single-core runners show
 * 2-3x wall-clock drift across a bench run (host contention,
 * frequency scaling), so timing one arm after the other makes any
 * between-arm ratio meaningless. Each sample instead times a
 * multi-millisecond repetition block of both arms back to back — the
 * drift hits both alike — and every reported speedup is the median of
 * the per-sample ratios.
 *
 * Exits nonzero if the flattened kernel is slower than legacy on any
 * row — CI runs this as a perf smoke test and fails on regression.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/hierarchical_solver.h"
#include "core/plan_io.h"
#include "hw/hierarchy.h"
#include "models/zoo.h"
#include "support/legacy_dp.h"
#include "util/table.h"

namespace {

using namespace accpar;

constexpr int kSamples = 9;
constexpr double kSampleNs = 4e6;

/** Mean ns of @p reps back-to-back runs of @p fn. */
template <typename Fn>
double
timeBlock(Fn &fn, int reps)
{
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps; ++rep)
        fn();
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
               .count() /
           reps;
}

/** Repetition count filling ~kSampleNs per block (one warm call). */
template <typename Fn>
int
calibrateReps(Fn &fn)
{
    const double once = std::max(1e2, timeBlock(fn, 1));
    return std::max(1, static_cast<int>(kSampleNs / once));
}

/** Result of one interleaved A/B comparison. */
struct Comparison
{
    double baseNs = 0.0;
    double candNs = 0.0;
    /** Median per-sample baseNs / candNs. */
    double speedup = 0.0;
};

/**
 * Interleaved comparison of @p cand against @p base: kSamples rounds,
 * each timing one repetition block of both arms back to back. The
 * speedup is the median per-sample ratio; the per-arm times are each
 * arm's best block (best-of drops descheduling spikes but is NOT
 * drift-stable across arms — only the ratio is).
 */
template <typename FBase, typename FCand>
Comparison
compareNs(FBase &&base, FCand &&cand)
{
    const int base_reps = calibrateReps(base);
    const int cand_reps = calibrateReps(cand);
    Comparison result;
    result.baseNs = 1e300;
    result.candNs = 1e300;
    std::vector<double> ratios;
    ratios.reserve(kSamples);
    for (int sample = 0; sample < kSamples; ++sample) {
        const double base_ns = timeBlock(base, base_reps);
        const double cand_ns = timeBlock(cand, cand_reps);
        result.baseNs = std::min(result.baseNs, base_ns);
        result.candNs = std::min(result.candNs, cand_ns);
        ratios.push_back(base_ns / cand_ns);
    }
    std::nth_element(ratios.begin(), ratios.begin() + kSamples / 2,
                     ratios.end());
    result.speedup = ratios[kSamples / 2];
    return result;
}

struct Row
{
    std::string name;
    std::string model;
    core::RatioPolicy policy = core::RatioPolicy::PaperLinear;
};

} // namespace

int
main()
{
    const std::vector<Row> rows = {
        {"vgg16", "vgg16", core::RatioPolicy::PaperLinear},
        {"resnet50", "resnet50", core::RatioPolicy::PaperLinear},
        {"googlenet", "googlenet", core::RatioPolicy::PaperLinear},
        {"resnet50-exact", "resnet50", core::RatioPolicy::ExactBalance},
    };

    bench::BenchReport report("dp_kernel");
    util::Table table({"row", "legacy ms", "flattened ms", "speedup"});
    bool regressed = false;

    for (const Row &row : rows) {
        const core::PartitionProblem problem(
            models::buildModel(row.model, 512));
        const hw::Hierarchy hierarchy(
            hw::heterogeneousTpuArrayForLevels(4));
        core::SolverOptions options;
        options.ratioPolicy = row.policy;

        const core::PartitionPlan legacy_plan =
            core::legacy::solveHierarchy(problem, hierarchy, options);
        const core::PartitionPlan flat_plan =
            core::solveHierarchy(problem, hierarchy, options);
        if (core::planToJson(flat_plan, hierarchy).dump() !=
            core::planToJson(legacy_plan, hierarchy).dump()) {
            std::cerr << "FAIL: plans diverge on " << row.name << '\n';
            return 1;
        }

        const Comparison legacy_vs_flat = compareNs(
            [&] {
                core::legacy::solveHierarchy(problem, hierarchy,
                                             options);
            },
            [&] { core::solveHierarchy(problem, hierarchy, options); });
        const double legacy_ns = legacy_vs_flat.baseNs;
        const double flat_ns = legacy_vs_flat.candNs;
        const double speedup = legacy_vs_flat.speedup;
        if (speedup < 1.0)
            regressed = true;

        util::Json &metrics = report.addRow(row.name);
        metrics["legacy_ns_per_solve"] = legacy_ns;
        metrics["flattened_ns_per_solve"] = flat_ns;
        metrics["speedup"] = speedup;

        table.addRow(row.name, {legacy_ns / 1e6, flat_ns / 1e6, speedup},
                     3);
    }

    std::cout << "DP kernel: flattened vs legacy hierarchical solve "
                 "(batch 512, 4-level heterogeneous array, speedups are "
                 "medians of "
              << kSamples << " interleaved samples)\n";
    table.print(std::cout);
    report.write();

    if (regressed) {
        std::cerr << "FAIL: flattened kernel slower than legacy\n";
        return 1;
    }
    return 0;
}
