/**
 * @file
 * The three workloads. Each runs in its own process, builds its inputs
 * from RunConfig::seed, measures for RunConfig::seconds and checks
 * every output it produced. In the traced run (RunConfig::trace) the
 * traffic phase takes half the time, alternating traced and untraced
 * requests so the tracing overhead can be measured, and the layer
 * probes (probes.h) take the other half.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

/**
 * Set-up repetitions per process; set-up time is their median. Each
 * set-up takes milliseconds, so many are timed: up to kSetupRepeats,
 * but no more once kSetupSeconds have gone into them and at least
 * kSetupMinRepeats are done.
 */
inline constexpr std::size_t kSetupRepeats = 100;
inline constexpr std::size_t kSetupMinRepeats = 15;
inline constexpr double kSetupSeconds = 6.0;

/** True while another set-up should be timed after @p done. */
inline bool
moreSetUps(const std::vector<double> &done)
{
    if (done.size() < kSetupMinRepeats)
        return true;
    double spent = 0.0;
    for (double seconds : done)
        spent += seconds;
    return done.size() < kSetupRepeats && spent < kSetupSeconds;
}

/** `accpar plan` of four zoo models on the 256-board array. */
WorkloadResult runPlanZoo(const RunConfig &config);

/** Iteration-budgeted outer search on the 8+8-board array. */
WorkloadResult runSearchAnneal(const RunConfig &config);

/** Seeded request mix against an in-process planning service. */
WorkloadResult runServiceMix(const RunConfig &config);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
