/**
 * @file
 * Evaluation harness: runs a set of strategies over a set of models on
 * one accelerator array and produces the speedup-over-DP tables that
 * Figures 5, 6 and 8 of the paper plot.
 */

#ifndef ACCPAR_SIM_REPORT_H
#define ACCPAR_SIM_REPORT_H

#include <string>
#include <vector>

#include "hw/group.h"
#include "sim/training_sim.h"
#include "strategies/strategy.h"

namespace accpar::sim {

/** Speedups of every strategy on one model, normalized to the first
 *  strategy (DP in the paper's figures). */
struct SpeedupRow
{
    std::string model;
    std::vector<double> throughput; ///< samples/s per strategy
    std::vector<double> speedup;    ///< normalized to strategy 0
};

/** A whole figure's worth of speedups. */
struct SpeedupTable
{
    std::vector<std::string> strategyLabels;
    std::vector<SpeedupRow> rows;
    /** Geometric-mean speedup per strategy over all rows. */
    std::vector<double> geomean;
};

/**
 * Runs @p strategies on every model named in @p models (built at
 * @p batch) over the array @p array, normalizing to the first strategy.
 */
SpeedupTable
runSpeedupComparison(const std::vector<std::string> &models,
                     std::int64_t batch,
                     const hw::AcceleratorGroup &array,
                     const std::vector<strategies::StrategyPtr> &strategies,
                     const TrainingSimConfig &config = {});

/**
 * As above, with shared execution resources: each model's strategies
 * plan concurrently on the context's pool. The table is identical to
 * the sequential overload's.
 */
SpeedupTable
runSpeedupComparison(const std::vector<std::string> &models,
                     std::int64_t batch,
                     const hw::AcceleratorGroup &array,
                     const std::vector<strategies::StrategyPtr> &strategies,
                     const TrainingSimConfig &config,
                     const core::SolveContext &context);

/** Renders the table in the format of the paper's figures. */
std::string formatSpeedupTable(const SpeedupTable &table,
                               const std::string &title);

/**
 * Renders the per-phase breakdown of one simulated run: FLOPs and
 * network bytes by training phase, plus the worst-board timing split.
 */
std::string formatRunBreakdown(const TrainingRunResult &run);

/** Writes the table as CSV (model, one column per strategy). */
void writeSpeedupCsv(const SpeedupTable &table, const std::string &path);

} // namespace accpar::sim

#endif // ACCPAR_SIM_REPORT_H
