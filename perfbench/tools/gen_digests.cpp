/**
 * @file
 * One-time generator of perfbench/data/plan_digests.txt, the reference
 * digests the `plan-zoo` workload checks every plan against.
 *
 * For each plan-zoo model it plans the request exactly as the workload
 * does (Planner, strategy accpar, one job, verification on, default
 * catalog parameters, array "hetero"), solves the same problem with
 * the frozen pre-refactor solver of the test tree, and refuses to
 * write anything unless both plans serialize to the same bytes. The
 * digest is the 64-bit FNV-1a of the compact plan JSON.
 *
 * Build with -DPERFBENCH_DIGEST_GEN=ON; run from the repository root:
 *
 *   gen_digests > perfbench/data/plan_digests.txt
 */

#include <iostream>

#include "common.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/catalog.h"
#include "support/legacy_dp.h"

int
main()
{
    using namespace accpar;
    const char *array_spec = "hetero";
    const hw::AcceleratorGroup array = hw::parseArraySpec(array_spec);
    const hw::Hierarchy hierarchy(array);

    std::cout << "# Reference plan digests of the plan-zoo workload:\n"
                 "# model array fnv1a64(planToJson(plan).dump()).\n"
                 "# Written by perfbench/tools/gen_digests, which checked\n"
                 "# each plan against the frozen legacy solver.\n";
    for (const char *model : {"vgg16", "resnet50", "googlenet",
                              "bert-base"}) {
        PlanRequest request(models::catalog().build(model), array);
        request.strategy = "accpar";
        request.jobs = 1;
        request.options.verify = true;
        const PlanResult result = Planner().plan(request);
        const std::string planned =
            core::planToJson(result.plan, hierarchy).dump();

        const core::PartitionProblem problem(request.model);
        const core::PartitionPlan reference = core::legacy::solveHierarchy(
            problem, hierarchy, PlanOptions().toSolverOptions("accpar"));
        const std::string frozen =
            core::planToJson(reference, hierarchy).dump();
        if (planned != frozen) {
            std::cerr << "gen_digests: " << model
                      << ": planner and frozen legacy solver disagree\n";
            return 1;
        }
        if (!result.diagnostics.empty()) {
            std::cerr << "gen_digests: " << model
                      << ": verifier findings\n";
            return 1;
        }
        std::cout << model << ' ' << array_spec << ' '
                  << perfbench::fnv1aHex(planned) << '\n';
    }
    return 0;
}
