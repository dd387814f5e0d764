/**
 * @file
 * The per-layer decomposition of one planning request, run only in
 * the traced run. Each step calls one layer's public entry point and
 * times it from outside:
 *
 *   models.build     models::catalog().build
 *   hw.hierarchy     hw::parseArraySpec + hw::Hierarchy
 *   core.problem     core::PartitionProblem
 *   core.solve       Planner::plan (verification off) minus the
 *                    problem and hierarchy builds it repeats inside
 *   analysis.verify  analysis::verifyPlan
 *   core.cert_emit   Planner::plan with certificate emission on,
 *                    minus the same call with it off
 *   core.cert_json   core::certificateToJson + certificateFingerprint
 *   core.plan_io     core::planToJson + dump
 *   service.parse    service::parseRequest of the request's line
 *   service.key      planRequestCanonicalKey
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <string>
#include <vector>

#include "common.h"
#include "models/catalog.h"

namespace perfbench {

/** One request whose layers are probed. */
struct ProbeInput
{
    std::string model;
    accpar::models::ModelParams params;
    std::string arraySpec;
    int jobs = 1;
    /** The protocol line a client would send for this request. */
    std::string protocolLine;
};

/**
 * Probes the inputs round robin until @p seconds have passed (at
 * least one full round), then stores each layer metric in @p result:
 * the median over the repetitions of one input, averaged over the
 * inputs. @p nextRequest numbers the probe spans.
 */
void runLayerProbes(const std::vector<ProbeInput> &inputs, double seconds,
                    Tracer &tracer, std::uint64_t &nextRequest,
                    WorkloadResult &result);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
