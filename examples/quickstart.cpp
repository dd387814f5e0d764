/**
 * @file
 * Quickstart: plan and simulate one model on the paper's heterogeneous
 * TPU array with all four strategies, through the accpar::Planner
 * facade.
 *
 * Usage: quickstart [model] [batch] [jobs]
 *   model  one of lenet/alexnet/vgg11/vgg13/vgg16/vgg19/
 *          resnet18/resnet34/resnet50 (default vgg16)
 *   batch  mini-batch size (default 512, as in the paper)
 *   jobs   planning concurrency (default 1; 0 = all hardware threads;
 *          plans are bit-identical for any value)
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/planner.h"
#include "hw/hierarchy.h"
#include "models/summary.h"
#include "models/zoo.h"
#include "util/string_util.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace accpar;

    const std::string model_name = argc > 1 ? argv[1] : "vgg16";
    const std::int64_t batch = argc > 2 ? std::atoll(argv[2]) : 512;
    const int jobs = argc > 3 ? std::atoi(argv[3]) : 1;

    try {
        // 1. Build the DNN and show what we are training.
        const graph::Graph model = models::buildModel(model_name, batch);
        std::cout << models::formatSummary(models::summarizeModel(model))
                  << '\n';

        // 2. The paper's heterogeneous array: 128 TPU-v2 + 128 TPU-v3.
        const hw::AcceleratorGroup array = hw::heterogeneousTpuArray();
        std::cout << "array: " << array.toString() << "\n\n";

        // 3. One request in, all four strategies planned (concurrently
        //    when jobs > 1) and simulated out.
        PlanRequest request(model, array);
        request.jobs = jobs;

        Planner planner;
        const StrategyComparison comparison = planner.compare(request);

        util::Table table({"strategy", "samples/s", "speedup",
                           "plan time"});
        for (std::size_t i = 0; i < comparison.plans.size(); ++i) {
            const PlanResult &plan = comparison.plans[i];
            table.addRow(
                {plan.strategy,
                 util::formatDouble(comparison.runs[i].throughput, 5),
                 util::formatDouble(comparison.speedup[i], 4),
                 util::humanSeconds(plan.planSeconds)});
        }
        std::cout << "speedup over data parallelism\n";
        table.print(std::cout);

        // 4. Show the AccPar plan itself (types per hierarchy level).
        const SimulationResult accpar_result =
            planner.simulate(request);
        const hw::Hierarchy hierarchy(array);
        std::cout << '\n'
                  << accpar_result.plan.plan.toString(hierarchy);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
