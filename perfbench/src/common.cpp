#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (_state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
SplitMix::below(std::uint64_t n)
{
    return n == 0 ? 0 : next() % n;
}

double
SplitMix::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    SplitMix rng(seed ^ (0xD1B54A32D192ED03ull * (stream + 1)));
    return rng.next();
}

std::vector<std::size_t>
permutation(std::size_t n, SplitMix &rng)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) *
                            (pos - static_cast<double>(lo));
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

std::uint64_t
fnv1a(std::string_view text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
fnv1aHex(std::string_view text)
{
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(fnv1a(text)));
    return out;
}

namespace {

/** 4 MiB of 16-byte slots, half of them filled: more than a core's
 *  L2, as the planner's cost cache is. */
constexpr int kReferenceSlotBits = 18;
constexpr std::size_t kReferenceEntries = std::size_t{1}
                                          << (kReferenceSlotBits - 1);
/** Five times the entries, so one lookup in five hits. */
constexpr std::uint64_t kReferenceKeys = 5 * kReferenceEntries;
constexpr int kReferenceLookups = 150000;
/** Timed runs per sample() call, after one warming pass. */
constexpr int kReferenceRuns = 4;

} // namespace

ReferenceKernel::ReferenceKernel()
    : _slots(std::size_t{1} << kReferenceSlotBits)
{
    SplitMix rng(0x5eedcafe);
    for (std::size_t filled = 0; filled < kReferenceEntries;) {
        const std::uint64_t key = 1 + rng.below(kReferenceKeys);
        Slot &slot = _slots[find(key)];
        if (slot.key == 0)
            ++filled;
        slot = {key, rng.uniform()};
    }
}

std::size_t
ReferenceKernel::find(std::uint64_t key) const
{
    const std::size_t mask = _slots.size() - 1;
    std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> (64 - kReferenceSlotBits);
    while (_slots[i].key != 0 && _slots[i].key != key)
        i = (i + 1) & mask;
    return i;
}

void
ReferenceKernel::sample()
{
    // Untimed pass over the table first, so the timed lookups find it
    // in cache whatever the workload's requests evicted: the kernel
    // times the host, not the program's memory footprint.
    double sum = 0.0;
    for (const Slot &slot : _slots)
        sum += slot.value;
    for (int run = 0; run < kReferenceRuns; ++run) {
        const Clock::time_point start = Clock::now();
        SplitMix rng(_ms.size());
        for (int i = 0; i < kReferenceLookups; ++i) {
            const Slot &slot = _slots[find(1 + rng.below(kReferenceKeys))];
            sum = sum * 0.999 + (slot.key != 0 ? slot.value : 0.5);
        }
        _ms.push_back(msBetween(start, Clock::now()));
    }
    _sink = _sink + sum; // keeps the loops from being optimized away
}

double
ReferenceKernel::medianMs() const
{
    return median(_ms);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

int
Tracer::open(const char *name, std::uint64_t request)
{
    if (!_enabled)
        return -1;
    Span span;
    span.name = name;
    span.parent = _open.empty() ? -1 : _open.back();
    span.request = request;
    span.startNs = nowNs();
    _spans.push_back(span);
    const int id = static_cast<int>(_spans.size() - 1);
    _open.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    _spans[static_cast<std::size_t>(id)].endNs = nowNs();
    if (!_open.empty() && _open.back() == id)
        _open.pop_back();
}

Timed::Timed(Tracer &tracer, const char *name, std::uint64_t request)
    : _tracer(tracer), _span(tracer.open(name, request)),
      _start(Clock::now())
{
}

Timed::~Timed()
{
    stopMs();
}

double
Timed::stopMs()
{
    if (_ms < 0.0) {
        _ms = msBetween(_start, Clock::now());
        _tracer.close(_span);
    }
    return _ms;
}

std::vector<SpanSummary>
summarizeSpans(const std::vector<const Tracer *> &tracers)
{
    std::map<std::string, SpanSummary> by_name;
    for (const Tracer *tracer : tracers) {
        const std::vector<Span> &spans = tracer->spans();
        std::vector<double> child_ms(spans.size(), 0.0);
        for (const Span &span : spans)
            if (span.parent >= 0 && span.endNs >= 0)
                child_ms[static_cast<std::size_t>(span.parent)] +=
                    static_cast<double>(span.endNs - span.startNs) *
                    1e-6;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            if (span.endNs < 0)
                continue;
            const double ms =
                static_cast<double>(span.endNs - span.startNs) * 1e-6;
            SpanSummary &summary = by_name[span.name];
            summary.name = span.name;
            ++summary.count;
            summary.totalMs += ms;
            summary.selfMs += ms - child_ms[i];
        }
    }
    std::vector<SpanSummary> out;
    for (auto &[name, summary] : by_name)
        out.push_back(summary);
    std::sort(out.begin(), out.end(),
              [](const SpanSummary &a, const SpanSummary &b) {
                  return a.selfMs > b.selfMs;
              });
    return out;
}

bool
writeSpans(const std::string &path,
           const std::vector<const Tracer *> &tracers)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "thread\tspan\tparent\trequest\tname\tstart_ns\tend_ns\n";
    for (std::size_t t = 0; t < tracers.size(); ++t) {
        const std::vector<Span> &spans = tracers[t]->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << t << '\t' << i << '\t' << s.parent << '\t'
                << s.request << '\t' << s.name << '\t' << s.startNs
                << '\t' << s.endNs << '\n';
        }
    }
    return static_cast<bool>(out);
}

void
finishTrace(const RunConfig &config,
            const std::vector<const Tracer *> &tracers,
            WorkloadResult &result)
{
    if (!config.trace)
        return;
    result.spanSummary = summarizeSpans(tracers);
    const std::string path = config.traceDir + "/spans-" +
                             config.workload + "-seed" +
                             std::to_string(config.seed) + ".tsv";
    if (writeSpans(path, tracers))
        result.spanFile = path;
}

double
tracingOverheadPct(
    const std::map<std::string, std::vector<double>> &traced,
    const std::map<std::string, std::vector<double>> &untraced)
{
    std::vector<double> ratios;
    for (const auto &[name, values] : traced) {
        const auto it = untraced.find(name);
        if (values.empty() || it == untraced.end() || it->second.empty())
            continue;
        const double base = median(it->second);
        if (base > 0.0)
            ratios.push_back(median(values) / base);
    }
    return ratios.empty() ? 0.0 : (geomean(ratios) - 1.0) * 100.0;
}

void
WorkloadResult::fail(const std::string &what)
{
    ++failed;
    // Keep the report readable when one defect repeats many times.
    if (failures.size() < 20)
        failures.push_back(what);
}

void
setLayer(WorkloadResult &result, const std::string &name, double value,
         const std::string &unit, std::size_t samples)
{
    Metric metric;
    metric.name = name;
    metric.value = value;
    metric.unit = unit;
    metric.samples = samples;
    result.layers[name] = metric;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"models.build_ms", "ms"},
        {"core.problem_ms", "ms"},
        {"core.condensed_nodes", "count"},
        {"hw.hierarchy_ms", "ms"},
        {"hw.internal_nodes", "count"},
        {"core.solve_ms", "ms"},
        {"core.solve_us_per_node", "us"},
        {"analysis.verify_ms", "ms"},
        {"core.cert_emit_ms", "ms"},
        {"core.cert_json_ms", "ms"},
        {"core.cert_json_bytes", "bytes"},
        {"core.plan_json_ms", "ms"},
        {"core.plan_json_bytes", "bytes"},
        {"search.oracle_solves", "count"},
        {"search.oracle_solves_per_s", "1/s"},
        {"search.accept_ratio", "ratio"},
        {"search.improved", "count"},
        {"util.cpu_per_wall", "ratio"},
        {"service.parse_us", "us"},
        {"service.key_us", "us"},
        {"service.hit_ms_p50", "ms"},
        {"service.miss_ms_p50", "ms"},
        {"service.miss_ms_p99", "ms"},
        {"service.validate_ms_p50", "ms"},
        {"service.overhead_ms_p50", "ms"},
        {"service.cache_hit_ratio", "ratio"},
        {"service.cache_evictions", "count"},
        {"service.errors", "count"},
        {"service.queue_rejected", "count"},
        {"tracing.overhead_pct", "%"},
    };
    return names;
}

} // namespace perfbench
