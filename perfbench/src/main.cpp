/**
 * @file
 * The benchmark binary. Usage:
 *
 *   perfbench --workload plan-zoo|search-anneal|service-mix
 *             --seed N --seconds S --trace 0|1
 *             [--data-dir DIR] [--trace-dir DIR]
 *
 * Prints a human-readable table (every metric with its unit, sample
 * count and canonical configuration name) and, as the last line, one
 * JSON object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics when untraced, the per-layer metrics when traced.
 * perfbench/run.py builds this binary and is the documented entry.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "common.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

const char *
workloadJobs(const std::string &workload)
{
    if (workload == "plan-zoo")
        return "1";
    if (workload == "search-anneal")
        return "2";
    return "2 workers x 1, 2 clients";
}

std::string
number(double value)
{
    char text[64];
    std::snprintf(text, sizeof text, "%.6g", value);
    return text;
}

/** Full-precision JSON number (finite values only). */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char text[64];
    std::snprintf(text, sizeof text, "%.17g", value);
    return text;
}

void
printRow(const Metric &m)
{
    std::printf("  %-28s %14s  %-6s %7s  %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(),
                m.samples ? std::to_string(m.samples).c_str() : "-",
                m.config.c_str());
}

/** Set-up, latency and throughput as measured, and the host-speed
 *  reference. */
std::vector<Metric>
measuredSpeedMetrics(const WorkloadResult &r)
{
    std::vector<double> class_medians;
    std::size_t class_samples = 0;
    for (const auto &[name, values] : r.classLatencyMs)
        if (!values.empty()) {
            class_medians.push_back(median(values));
            class_samples += values.size();
        }
    return {
        {"raw_setup_s", median(r.setupSeconds), "s", r.setupSeconds.size(),
         "median of set-ups"},
        {"latency_ms", geomean(class_medians), "ms", class_samples,
         "geomean of " + std::to_string(class_medians.size()) +
             " class medians"},
        {"req_per_s",
         static_cast<double>(r.completed) / r.measuredSeconds, "1/s",
         r.allLatencyMs.size(), "closed loop"},
        {"reference_ms", r.referenceMs, "ms", r.referenceSamples,
         "host-speed reference kernel, median"},
    };
}

/** The declared end-to-end metrics; every workload reports each. */
std::vector<Metric>
endToEndMetrics(const WorkloadResult &r)
{
    const std::vector<Metric> measured = measuredSpeedMetrics(r);
    // Scaled to the host speed of the baseline point.
    const double slowdown = r.referenceMs / kReferenceMs;
    return {
        {"setup_s", measured[0].value / slowdown, "s", measured[0].samples,
         "raw_setup_s, host-adjusted"},
        {"adj_latency_ms", measured[1].value / slowdown, "ms",
         measured[1].samples, "latency_ms, host-adjusted"},
        {"adj_req_per_s", measured[2].value * slowdown, "1/s",
         measured[2].samples, "req_per_s, host-adjusted"},
        {"cost_ratio", r.costRatio, "ratio", 0, "best / baseline"},
        {"peak_rss_mb", peakRssMb(), "MiB", 0, "whole process"},
    };
}

std::string
jsonLine(const WorkloadResult &r, const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << r.attempted
        << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i ? ", " : "") << '"' << metrics[i].name
            << "\": {\"value\": " << jsonNumber(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    out << "}}";
    return out.str();
}

int
usage()
{
    std::cerr << "usage: perfbench --workload plan-zoo|search-anneal|"
                 "service-mix --seed N --seconds S --trace 0|1 "
                 "[--data-dir DIR] [--trace-dir DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            config.workload = value;
        else if (flag == "--seed")
            config.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            config.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            config.trace = value == "1";
        else if (flag == "--data-dir")
            config.dataDir = value;
        else if (flag == "--trace-dir")
            config.traceDir = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || !(config.seconds > 0.0))
        return usage();

    WorkloadResult result;
    try {
        if (config.workload == "plan-zoo")
            result = runPlanZoo(config);
        else if (config.workload == "search-anneal")
            result = runSearchAnneal(config);
        else if (config.workload == "service-mix")
            result = runServiceMix(config);
        else
            return usage();
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << config.workload
                  << " failed to run: " << e.what() << '\n';
        return 1;
    }
    if (result.completed == 0 || result.measuredSeconds <= 0.0 ||
        result.referenceMs <= 0.0) {
        std::cerr << "perfbench: no request completed\n";
        for (const std::string &failure : result.failures)
            std::cerr << "  " << failure << '\n';
        return 1;
    }

    std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d "
                "build=%s jobs=%s nproc=%ld\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed),
                number(config.seconds).c_str(), config.trace ? 1 : 0,
                PERFBENCH_BUILD_TYPE, workloadJobs(config.workload),
                sysconf(_SC_NPROCESSORS_ONLN));
    std::printf("  %-28s %14s  %-6s %7s  %s\n", "metric", "value", "unit",
                "n", "config");

    std::printf(config.trace ? "workload metrics (traced run: not the "
                               "end-to-end figures, see --trace 0)\n"
                             : "workload metrics\n");
    for (const Metric &m : result.rows)
        printRow(m);
    for (const Metric &m : measuredSpeedMetrics(result))
        printRow(m);
    // The tail row: the highest percentile with at least ten samples
    // beyond it. Tails are not declared metrics: on a shared host they
    // spread wider than any bound a regression check could use.
    const std::size_t n = result.allLatencyMs.size();
    const double tail = n >= 1000 ? 0.99 : n >= 100 ? 0.9 : 0.5;
    printRow({"p" + std::to_string(static_cast<int>(tail * 100)) + "_ms",
              quantile(result.allLatencyMs, tail), "ms", n,
              "all requests"});
    printRow({"fail_ratio",
              static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted),
              "ratio", result.attempted, "failed / attempted"});

    const std::vector<Metric> e2e = endToEndMetrics(result);
    if (!config.trace) {
        std::printf("end-to-end metrics\n");
        for (const Metric &m : e2e)
            printRow(m);
    }

    std::vector<Metric> layers;
    if (config.trace) {
        for (const auto &[name, unit] : layerMetricNames()) {
            const auto it = result.layers.find(name);
            layers.push_back(it != result.layers.end()
                                 ? it->second
                                 : Metric{name, 0.0, unit, 0,
                                          "layer not exercised"});
        }
        std::printf("per-layer metrics (traced run)\n");
        for (const Metric &m : layers)
            printRow(m);
        std::printf("span self time (traced run; %s)\n",
                    result.spanFile.empty() ? "span file not written"
                                            : result.spanFile.c_str());
        std::printf("  %-28s %14s %14s %9s\n", "span", "self ms",
                    "total ms", "count");
        for (const SpanSummary &s : result.spanSummary)
            std::printf("  %-28s %14s %14s %9zu\n", s.name.c_str(),
                        number(s.selfMs).c_str(),
                        number(s.totalMs).c_str(), s.count);
    }

    for (const std::string &failure : result.failures)
        std::printf("FAILED: %s\n", failure.c_str());

    std::printf("%s\n",
                jsonLine(result, config.trace ? layers : e2e).c_str());
    return 0;
}
