/**
 * @file
 * Figure 8 reproduction: speedup of DP, OWT, HyPar and AccPar on Vgg19
 * as the partitioning hierarchy deepens (h = 2..9; a heterogeneous
 * array of 2^(h-1) TPU-v2 + 2^(h-1) TPU-v3 boards), normalized to DP at
 * each h. Paper reference: OWT and HyPar saturate with h while AccPar
 * keeps climbing.
 *
 * The whole sweep is one Planner::planBatch call: the model is built
 * once and all 8 x 4 (level, strategy) points share one
 * PartitionProblem, the same engine `accpar sweep` uses.
 */

#include <iostream>

#include "bench_json.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "models/zoo.h"
#include "sim/training_sim.h"
#include "strategies/registry.h"
#include "util/csv.h"
#include "util/table.h"

int
main()
{
    using namespace accpar;

    constexpr std::int64_t kBatch = 512;
    constexpr int kMinLevels = 2;
    constexpr int kMaxLevels = 9;

    const graph::Graph model = models::buildVgg(19, kBatch);
    const auto strategies_list = strategies::defaultStrategies();

    std::vector<PlanRequest> requests;
    for (int levels = kMinLevels; levels <= kMaxLevels; ++levels) {
        for (const auto &s : strategies_list) {
            PlanRequest request(
                model, hw::heterogeneousTpuArrayForLevels(levels));
            request.strategy = s->name();
            requests.push_back(std::move(request));
        }
    }

    Planner planner;
    const std::vector<PlanResult> results = planner.planBatch(requests);

    std::vector<std::string> header = {"h"};
    for (const auto &s : strategies_list)
        header.push_back(s->label());
    util::Table table(header);
    util::CsvWriter csv(header);
    bench::BenchReport report("fig8_hierarchy_sweep");

    const core::PartitionProblem problem(model);
    std::size_t next = 0;
    for (int levels = kMinLevels; levels <= kMaxLevels; ++levels) {
        const hw::Hierarchy hierarchy(
            hw::heterogeneousTpuArrayForLevels(levels));
        std::vector<double> speedup;
        double baseline = 0.0;
        for (std::size_t s = 0; s < strategies_list.size();
             ++s, ++next) {
            const auto run = sim::simulatePlan(
                problem, kBatch, hierarchy, results[next].plan, {});
            if (speedup.empty())
                baseline = run.throughput;
            speedup.push_back(run.throughput / baseline);
        }
        table.addRow("h=" + std::to_string(levels), speedup, 4);
        csv.addRow("h=" + std::to_string(levels), speedup);
        util::Json &metrics =
            report.addRow("h" + std::to_string(levels));
        for (std::size_t s = 0; s < strategies_list.size(); ++s)
            metrics["speedup_" + strategies_list[s]->label()] =
                speedup[s];
    }

    std::cout << "Figure 8: speedup vs hierarchy level on Vgg19 "
                 "(heterogeneous array of 2^h boards), normalized to DP "
                 "at each h\n";
    table.print(std::cout);
    csv.writeFile("fig8_hierarchy_sweep.csv");
    std::cout << "\n[csv written to fig8_hierarchy_sweep.csv]\n";
    report.write();
    std::cout << "paper reference: OWT/HyPar saturate with h; AccPar "
                 "keeps increasing\n";
    return 0;
}
