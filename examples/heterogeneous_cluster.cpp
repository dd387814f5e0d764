/**
 * @file
 * Capacity planning on a heterogeneous cluster.
 *
 * The scenario the paper's §2.3 motivates: a fleet that mixes accelerator
 * generations (the older boards are paid for — retiring them wastes
 * capacity). This example sweeps the mix from all-old to all-new at a
 * fixed total of 32 boards and reports, for each mix, the training
 * throughput of Vgg16 under equal-ratio data parallelism versus AccPar —
 * quantifying how much of the mixed fleet's capacity each scheme
 * actually harvests.
 */

#include <iostream>

#include "core/planner.h"
#include "hw/hierarchy.h"
#include "models/zoo.h"
#include "util/string_util.h"
#include "util/table.h"

int
main()
{
    using namespace accpar;

    try {
        const graph::Graph model = models::buildVgg(16, 512);
        Planner planner;

        util::Table table({"mix (v2 + v3)", "DP samples/s",
                           "AccPar samples/s", "AccPar/DP",
                           "AccPar alpha @ root"});

        const int total = 32;
        for (int old_boards : {32, 24, 16, 8, 0}) {
            const int new_boards = total - old_boards;
            std::vector<hw::GroupSlice> slices;
            if (old_boards > 0)
                slices.push_back(hw::GroupSlice{hw::tpuV2(),
                                                old_boards});
            if (new_boards > 0)
                slices.push_back(hw::GroupSlice{hw::tpuV3(),
                                                new_boards});
            const hw::AcceleratorGroup array(slices);

            PlanRequest request(model, array);
            request.strategy = "dp";
            const SimulationResult dp = planner.simulate(request);
            request.strategy = "accpar";
            const SimulationResult ap = planner.simulate(request);

            const hw::Hierarchy hierarchy(array);
            const double alpha =
                ap.plan.plan.nodePlan(hierarchy.root()).alpha;

            table.addRow(
                {std::to_string(old_boards) + " + " +
                     std::to_string(new_boards),
                 util::formatDouble(dp.run.throughput, 5),
                 util::formatDouble(ap.run.throughput, 5),
                 util::formatDouble(ap.run.throughput /
                                        dp.run.throughput,
                                    4),
                 util::formatDouble(alpha, 4)});
        }

        std::cout << "Vgg16 training throughput as the 32-board fleet "
                     "shifts from TPU-v2 to TPU-v3\n";
        table.print(std::cout);
        std::cout << "\nReading: equal-ratio DP is bound by the slowest "
                     "boards, so mixed fleets waste the fast ones;\n"
                     "AccPar's flexible ratio (root alpha = the v2 "
                     "group's share) keeps the whole fleet busy.\n";
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
