/**
 * @file
 * Shared machine-readable output for the bench_* executables.
 *
 * Every bench keeps printing its human-oriented tables, and
 * additionally writes a BENCH_<name>.json file in the working
 * directory with the schema
 *
 *   {
 *     "schema": "accpar-bench-v1",
 *     "bench": "<name>",
 *     "rows": [ {"name": "<row>", "metrics": {"<metric>": number}} ]
 *   }
 *
 * so CI jobs and regression tooling can diff results across commits
 * without scraping tables. Row order is insertion order; metric keys
 * within a row are sorted (util::Json objects are ordered maps), which
 * keeps the files byte-stable for identical results.
 */

#ifndef ACCPAR_BENCH_BENCH_JSON_H
#define ACCPAR_BENCH_BENCH_JSON_H

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/report.h"
#include "util/error.h"
#include "util/json.h"

namespace accpar::bench {

/** Collects named rows of numeric metrics for one bench run. */
class BenchReport
{
  public:
    explicit BenchReport(std::string name) : _name(std::move(name)) {}

    /**
     * Starts a new row and returns its mutable metrics object; assign
     * metrics with `report.addRow("vgg16")["speedup"] = 3.2;`.
     */
    util::Json &
    addRow(const std::string &row)
    {
        _rows.emplace_back(row, util::Json(util::Json::Object{}));
        return _rows.back().second;
    }

    /** Writes BENCH_<name>.json and reports the path on stdout. */
    std::string
    write() const
    {
        util::Json doc = util::Json::Object{};
        doc["schema"] = "accpar-bench-v1";
        doc["bench"] = _name;
        util::Json rows = util::Json::Array{};
        for (const auto &[row_name, metrics] : _rows) {
            util::Json row = util::Json::Object{};
            row["name"] = row_name;
            row["metrics"] = metrics;
            rows.push(std::move(row));
        }
        doc["rows"] = std::move(rows);

        const std::string path = "BENCH_" + _name + ".json";
        std::ofstream out(path);
        ACCPAR_REQUIRE(out.good(), "cannot open " << path);
        out << doc.dump(2) << '\n';
        std::cout << "[bench json written to " << path << "]\n";
        return path;
    }

  private:
    std::string _name;
    std::vector<std::pair<std::string, util::Json>> _rows;
};

/** One row per model (speedup per strategy) plus a geomean row, from
 *  the Figure 5/6-style comparison tables. */
inline void
addSpeedupRows(BenchReport &report, const sim::SpeedupTable &table)
{
    for (const sim::SpeedupRow &row : table.rows) {
        util::Json &metrics = report.addRow(row.model);
        for (std::size_t s = 0; s < table.strategyLabels.size(); ++s)
            metrics["speedup_" + table.strategyLabels[s]] =
                row.speedup[s];
    }
    util::Json &geomean = report.addRow("geomean");
    for (std::size_t s = 0; s < table.strategyLabels.size(); ++s)
        geomean["speedup_" + table.strategyLabels[s]] =
            table.geomean[s];
}

} // namespace accpar::bench

#endif // ACCPAR_BENCH_BENCH_JSON_H
