/**
 * @file
 * Shared pieces of the benchmark: clocks, seeded input generation,
 * order statistics, in-memory span tracing, resource usage and the
 * report every workload fills in.
 *
 * Nothing here reaches into the library: the workloads call the
 * library's public entry points and this file only measures around
 * them.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock points. */
double msBetween(Clock::time_point from, Clock::time_point to);

/** Seconds elapsed since @p from. */
double secondsSince(Clock::time_point from);

/**
 * SplitMix64: the benchmark's own input generator, so generated
 * inputs never change when the library's RNG does.
 */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : _state(seed) {}

    std::uint64_t next();
    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n);
    /** Uniform double in [0, 1). */
    double uniform();

  private:
    std::uint64_t _state;
};

/** Derives an independent stream seed from (@p seed, @p stream). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** A seeded permutation of 0..n-1. */
std::vector<std::size_t> permutation(std::size_t n, SplitMix &rng);

/// @name Order statistics (inputs need not be sorted).
/// @{
/** Quantile with linear interpolation between closest ranks. */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double geomean(const std::vector<double> &values);
double mean(const std::vector<double> &values);
/// @}

/** 64-bit FNV-1a of @p text. */
std::uint64_t fnv1a(std::string_view text);

/** fnv1a(@p text) as 16 lowercase hex digits. */
std::string fnv1aHex(std::string_view text);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** User plus system CPU time of this process, in seconds. */
double processCpuSeconds();

/**
 * The host-speed reference. On a shared host the machine's speed
 * drifts by tens of percent over tens of seconds, and every timing of
 * a run drifts with it. This kernel does the kind of work the
 * planner's cost cache does (hash-table lookups feeding floating-point
 * accumulation) in fixed code that calls no library function, on one
 * flat table so its memory layout does not depend on the heap. The
 * workloads time it between requests, with no request in flight;
 * scaling a run's timings by kReferenceMs over its median removes
 * most of the drift between runs, while a change in the library's own
 * speed shows in full.
 */
class ReferenceKernel
{
  public:
    /** Fills the kernel's table; not timed. */
    ReferenceKernel();

    /** Runs the kernel a few times; records each time. */
    void sample();

    /** Median recorded time, milliseconds; 0 before any sample. */
    double medianMs() const;
    std::size_t samples() const { return _ms.size(); }

  private:
    struct Slot
    {
        std::uint64_t key = 0; // 0: empty
        double value = 0.0;
    };
    std::size_t find(std::uint64_t key) const;

    std::vector<Slot> _slots;
    std::vector<double> _ms;
    volatile double _sink = 0.0;
};

/**
 * ReferenceKernel::medianMs on the host of the first baseline point
 * (perfbench/trajectory.json), so host-adjusted timings read as times
 * on that host.
 */
inline constexpr double kReferenceMs = 7.0;

/** One traced interval. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = -1;
    /** Index of the enclosing span in the same Tracer; -1 for roots. */
    int parent = -1;
    std::uint64_t request = 0;
};

/**
 * Span recorder owned by one thread. Spans stay in memory until the
 * run ends. A disabled tracer records nothing, so the same workload
 * code serves the traced and the untraced run.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled = false) : _enabled(enabled) {}

    void setEnabled(bool enabled) { _enabled = enabled; }

    /** Opens a span under the innermost open one; -1 when disabled. */
    int open(const char *name, std::uint64_t request);
    void close(int id);

    const std::vector<Span> &spans() const { return _spans; }

  private:
    bool _enabled;
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/**
 * Times one call into a layer. The duration is always measured (the
 * workloads use it as the layer's sample); a span is recorded only
 * when the tracer is enabled.
 */
class Timed
{
  public:
    Timed(Tracer &tracer, const char *name, std::uint64_t request);
    ~Timed();

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    /** Ends the interval (once) and returns it in milliseconds. */
    double stopMs();

  private:
    Tracer &_tracer;
    int _span;
    Clock::time_point _start;
    double _ms = -1.0;
};

/** Per-name totals over every span of a run. */
struct SpanSummary
{
    std::string name;
    std::size_t count = 0;
    double totalMs = 0.0;
    /** Duration minus the time covered by direct children. */
    double selfMs = 0.0;
};

std::vector<SpanSummary>
summarizeSpans(const std::vector<const Tracer *> &tracers);

/** Writes every span as TSV; returns false when the file fails. */
bool writeSpans(const std::string &path,
                const std::vector<const Tracer *> &tracers);

/** Command-line settings of one benchmark process. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory holding the committed reference data. */
    std::string dataDir = "perfbench/data";
    /** Directory the traced run writes its span file into. */
    std::string traceDir = ".bench_build/traces";
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (0 = not a sample statistic). */
    std::size_t samples = 0;
    /** Canonical configuration name of the row, if any. */
    std::string config;
};

/**
 * What one workload process measured. The end-to-end inputs are
 * filled by every workload; `rows` holds the workload's own named
 * metrics for the human-readable table.
 */
struct WorkloadResult
{
    /** Repeated set-up times, seconds. */
    std::vector<double> setupSeconds;
    /** The host-speed reference, timed between requests. */
    double referenceMs = 0.0;
    std::size_t referenceSamples = 0;
    /** Client latency samples per request class, milliseconds; the
     *  classes `latency_ms` averages over. */
    std::map<std::string, std::vector<double>> classLatencyMs;
    /** Every request's client latency, milliseconds. */
    std::vector<double> allLatencyMs;
    std::size_t completed = 0;
    double measuredSeconds = 0.0;
    /** Geometric mean of best / baseline cost over the searched
     *  requests; 1 when the workload runs no outer search. */
    double costRatio = 1.0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;
    /** Workload-specific end-to-end rows. */
    std::vector<Metric> rows;
    /** Per-layer values (traced run only). */
    std::map<std::string, Metric> layers;
    /** Span totals and the span file (traced run only). */
    std::vector<SpanSummary> spanSummary;
    std::string spanFile;

    void fail(const std::string &what);
};

/**
 * Summarizes and writes the spans of a traced run into @p result
 * (file name from the workload and seed); no-op when untraced.
 */
void finishTrace(const RunConfig &config,
                 const std::vector<const Tracer *> &tracers,
                 WorkloadResult &result);

/**
 * Tracing overhead in percent: per class, the median latency of the
 * traced requests over that of the untraced ones, combined by
 * geometric mean over the classes both sides have.
 */
double tracingOverheadPct(
    const std::map<std::string, std::vector<double>> &traced,
    const std::map<std::string, std::vector<double>> &untraced);

/** Adds or replaces a per-layer value. */
void setLayer(WorkloadResult &result, const std::string &name,
              double value, const std::string &unit,
              std::size_t samples = 0);

/** Every per-layer metric name, in report order, with its unit. */
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
