/**
 * @file
 * Workload `service-mix`: an in-process service::PlanService (two
 * workers, one planner job each) driven through handleLine by two
 * client threads in a closed loop — each caller waits for its reply,
 * as `accpar load` does. TCP is left out: socket scheduling on a
 * shared 4-core host would dominate the variance.
 *
 * The seeded request stream is mostly `plan` requests drawn with Zipf
 * popularity from a key pool twice the result cache's capacity, so
 * hits (reads) sit beside misses that insert and evict (writes); plus
 * `validate` requests carrying model and plan documents and a few
 * `stats` requests. Models are small to medium on irregular arrays,
 * where few sibling subtrees are identical: protocol parsing, the
 * canonical key, the result cache, the queue and certificate
 * serialization carry most of the time.
 *
 * Checks: every response is ok; all misses of one key agree on every
 * byte but `plan_seconds`, and agree with a direct Planner plan of the
 * same request; every hit is byte-equal to a miss of its key.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string_view>
#include <thread>

#include "analysis/diagnostic.h"
#include "core/certificate_io.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/catalog.h"
#include "probes.h"
#include "service/plan_service.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace accpar;

const std::vector<std::string> kModels = {"lenet",    "alexnet",
                                          "vgg11",    "resnet18",
                                          "resnet50", "gpt-decoder"};
const std::vector<std::string> kArrays = {
    "tpu-v2:3+tpu-v3:5", "tpu-v2:12+tpu-v3:4", "tpu-v2:6+tpu-v3:2",
    "tpu-v2:4+tpu-v3:7"};
const std::vector<int> kBatches = {64, 256};
constexpr int kWorkers = 2;
constexpr int kPlannerJobs = 1;
constexpr int kClients = 2;
/** Half the key pool (48), so the cache keeps evicting. */
constexpr std::size_t kCacheEntries = 24;
constexpr double kZipfExponent = 1.0;
constexpr double kStatsShare = 0.02;
constexpr double kValidateShare = 0.08;
constexpr int kValidateDocs = 4;
/** How often the clients are held for the reference kernel. */
constexpr double kReferenceEverySeconds = 0.5;
/** Fixed seed of the popularity ranking: every run seed draws from
 *  the same distribution, only the draws differ. */
constexpr std::uint64_t kRankSeed = 0x5eed;

std::string
configName()
{
    return "Service-w" + std::to_string(kWorkers) + "-pj" +
           std::to_string(kPlannerJobs) + "-cache" +
           std::to_string(kCacheEntries) + "-clients" +
           std::to_string(kClients) + "-zipf1.0";
}

struct Key
{
    std::string model;
    int batch = 0;
    std::string array;
    std::string line;
};

/** A small CNN document whose widths come from the run seed. */
util::Json
validateModelDoc(int index, SplitMix &rng)
{
    auto layer = [](const char *op, const char *name, int out,
                    int kernel) {
        util::Json l = util::Json::Object{};
        l["op"] = op;
        if (name)
            l["name"] = name;
        if (out > 0)
            l["out"] = out;
        if (kernel > 0) {
            l["kernel"] = kernel;
            l["stride"] = std::string(op) == "conv" ? 1 : kernel;
            if (std::string(op) == "conv")
                l["pad"] = 1;
        }
        return l;
    };
    const int c1 = 16 * static_cast<int>(1 + rng.below(3));
    const int c2 = 32 * static_cast<int>(1 + rng.below(3));
    const int f1 = 128 * static_cast<int>(1 + rng.below(2));

    util::Json input = util::Json::Object{};
    input["batch"] = 32;
    input["channels"] = 3;
    input["height"] = 32;
    input["width"] = 32;
    util::Json layers = util::Json::Array{};
    layers.push(layer("conv", "cv1", c1, 3));
    layers.push(layer("relu", nullptr, 0, 0));
    layers.push(layer("maxpool", nullptr, 0, 2));
    layers.push(layer("conv", "cv2", c2, 3));
    layers.push(layer("relu", nullptr, 0, 0));
    layers.push(layer("maxpool", nullptr, 0, 2));
    layers.push(layer("flatten", nullptr, 0, 0));
    layers.push(layer("fc", "fc1", f1, 0));
    layers.push(layer("relu", nullptr, 0, 0));
    layers.push(layer("fc", "fc2", 10, 0));

    util::Json doc = util::Json::Object{};
    doc["name"] = "bench-cnn-" + std::to_string(index);
    doc["input"] = std::move(input);
    doc["layers"] = std::move(layers);
    return doc;
}

struct Inputs
{
    std::vector<Key> keys;
    /** Cumulative Zipf weights over `keys`, in rank order. */
    std::vector<double> cdf;
    std::vector<std::string> validateLines;
    std::string statsLine;
    std::unique_ptr<service::PlanService> service;
};

Inputs
setUp(const RunConfig &config)
{
    Inputs in;
    for (const std::string &model : kModels)
        for (const std::string &array : kArrays)
            for (int batch : kBatches)
                in.keys.push_back({model, batch, array, {}});
    SplitMix rank_rng(kRankSeed);
    const std::vector<std::size_t> ranked =
        permutation(in.keys.size(), rank_rng);
    std::vector<Key> by_rank;
    double total = 0.0;
    for (std::size_t rank = 0; rank < ranked.size(); ++rank) {
        Key key = in.keys[ranked[rank]];
        util::Json doc = util::Json::Object{};
        doc["kind"] = "plan";
        // The id is the key's rank: every response of one key is then
        // byte-comparable with the others.
        doc["id"] = static_cast<std::int64_t>(rank);
        doc["model"] = key.model;
        doc["batch"] = key.batch;
        doc["array"] = key.array;
        doc["strategy"] = "accpar";
        doc["verify"] = true;
        key.line = doc.dump();
        by_rank.push_back(std::move(key));
        total += 1.0 / std::pow(static_cast<double>(rank + 1),
                                kZipfExponent);
        in.cdf.push_back(total);
    }
    for (double &c : in.cdf)
        c /= total;
    in.keys = std::move(by_rank);

    service::ServiceConfig service_config;
    service_config.workers = kWorkers;
    service_config.plannerJobs = kPlannerJobs;
    service_config.cacheEntries = kCacheEntries;
    in.service = std::make_unique<service::PlanService>(service_config);

    // Validate documents: the service plans each inline model once
    // (this also primes the workers), and the validate request carries
    // both documents back.
    SplitMix doc_rng(mixSeed(config.seed, 3));
    for (int i = 0; i < kValidateDocs; ++i) {
        const util::Json model = validateModelDoc(i, doc_rng);
        const std::string &array = kArrays[static_cast<std::size_t>(i) %
                                           kArrays.size()];
        util::Json plan_request = util::Json::Object{};
        plan_request["kind"] = "plan";
        plan_request["id"] = "setup-" + std::to_string(i);
        plan_request["model"] = model;
        plan_request["array"] = array;
        const util::Json planned = util::Json::parse(
            in.service->handleLine(plan_request.dump()));
        if (!planned.contains("ok") || !planned.at("ok").asBool())
            throw std::runtime_error("set-up plan of a validate document "
                                     "failed: " +
                                     planned.dump());
        util::Json validate = util::Json::Object{};
        validate["kind"] = "validate";
        validate["id"] = "validate-" + std::to_string(i);
        validate["model"] = model;
        validate["plan"] = planned.at("plan");
        validate["array"] = array;
        validate["strategy"] = "accpar";
        in.validateLines.push_back(validate.dump());
    }
    in.statsLine = R"({"id":"stats","kind":"stats"})";
    const std::string stats = in.service->handleLine(in.statsLine);
    if (stats.find("\"ok\":true") == std::string::npos)
        throw std::runtime_error("set-up stats request failed");
    return in;
}

enum class Kind { Hit, Miss, Validate, Stats };

struct Record
{
    Kind kind = Kind::Stats;
    bool traced = false;
    std::size_t key = 0;
    double ms = 0.0;
    /** Miss only: client latency minus the payload's plan_seconds. */
    double overheadMs = 0.0;
    /** Plan responses: digest of everything after "cached". */
    std::uint64_t full = 0;
    /** Misses: the same without the plan_seconds value. */
    std::uint64_t deterministic = 0;
};

struct ClientLog
{
    std::vector<Record> records;
    /** First miss response per key, for the direct-plan check. */
    std::map<std::size_t, std::string> firstMiss;
    std::size_t failed = 0;
    std::vector<std::string> failures;
};

/** Parses a plan response's envelope; false when it is not ok. */
bool
recordPlanResponse(const std::string &response, Record &record,
                   ClientLog &log)
{
    static constexpr std::string_view kHit = "{\"cached\":true,";
    static constexpr std::string_view kMiss = "{\"cached\":false,";
    static constexpr std::string_view kSeconds = "\"plan_seconds\":";
    const std::string_view text(response);
    if (text.find("\"ok\":true") == std::string_view::npos)
        return false;
    if (text.starts_with(kHit)) {
        record.kind = Kind::Hit;
        record.full = fnv1a(text.substr(kHit.size()));
        return true;
    }
    if (!text.starts_with(kMiss))
        return false;
    record.kind = Kind::Miss;
    const std::string_view rest = text.substr(kMiss.size());
    record.full = fnv1a(rest);
    const std::size_t at = rest.rfind(kSeconds);
    if (at == std::string_view::npos)
        return false;
    const std::size_t value = at + kSeconds.size();
    const std::size_t end = rest.find_first_of(",}", value);
    if (end == std::string_view::npos)
        return false;
    const double plan_seconds =
        std::strtod(std::string(rest.substr(value, end - value)).c_str(),
                    nullptr);
    record.overheadMs = record.ms - plan_seconds * 1e3;
    std::string without(rest.substr(0, value));
    without.append(rest.substr(end));
    record.deterministic = fnv1a(without);
    log.firstMiss.try_emplace(record.key, response);
    return true;
}

/**
 * Holds the clients between requests while the main thread runs the
 * reference kernel, so the kernel never shares the host with a request
 * in flight (it would otherwise time the service's own load).
 */
class ClientGate
{
  public:
    explicit ClientGate(int clients) : _running(clients) {}

    /** Client side, between requests: waits while the gate is shut. */
    void pass()
    {
        std::unique_lock<std::mutex> lock(_mutex);
        if (!_shut)
            return;
        ++_held;
        _changed.notify_all();
        _changed.wait(lock, [this] { return !_shut; });
        --_held;
    }

    /** Client side: the client has stopped for good. */
    void leave()
    {
        std::lock_guard<std::mutex> lock(_mutex);
        --_running;
        _changed.notify_all();
    }

    /** Shuts the gate and waits until every running client is held. */
    void shut()
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _shut = true;
        _changed.wait(lock, [this] { return _held == _running; });
    }

    void open()
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _shut = false;
        _changed.notify_all();
    }

  private:
    std::mutex _mutex;
    std::condition_variable _changed;
    int _running;
    int _held = 0;
    bool _shut = false;
};

void
runClient(int client, const RunConfig &config, const Inputs &in,
          const std::atomic<bool> &stop, ClientGate &gate, Tracer &tracer,
          ClientLog &log)
{
    SplitMix rng(mixSeed(config.seed, 10 + static_cast<std::uint64_t>(
                                               client)));
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
        gate.pass();
        Record record;
        const double u = rng.uniform();
        const std::string *line = nullptr;
        if (u < kStatsShare) {
            record.kind = Kind::Stats;
            line = &in.statsLine;
        } else if (u < kStatsShare + kValidateShare) {
            record.kind = Kind::Validate;
            line = &in.validateLines[rng.below(in.validateLines.size())];
        } else {
            record.kind = Kind::Miss; // or Hit, once the reply says so
            const double draw = rng.uniform();
            record.key = static_cast<std::size_t>(
                std::lower_bound(in.cdf.begin(), in.cdf.end(), draw) -
                in.cdf.begin());
            record.key = std::min(record.key, in.keys.size() - 1);
            line = &in.keys[record.key].line;
        }
        record.traced = config.trace && n % 2 == 1;
        tracer.setEnabled(record.traced);
        const std::uint64_t id =
            static_cast<std::uint64_t>(client) * 1000000000ull + n++;
        std::string response;
        {
            Timed total(tracer, "request", id);
            Timed handle(tracer, "service.handleLine", id);
            response = in.service->handleLine(*line);
            handle.stopMs();
            record.ms = total.stopMs();
        }
        bool ok = false;
        if (record.kind == Kind::Stats)
            ok = response.find("\"ok\":true") != std::string::npos;
        else if (record.kind == Kind::Validate)
            ok = response.find("\"ok\":true") != std::string::npos &&
                 response.find("\"valid\":true") != std::string::npos;
        else
            ok = recordPlanResponse(response, record, log);
        if (!ok) {
            if (log.failed++ < 20)
                log.failures.push_back("bad response to " + *line + ": " +
                                       response.substr(0, 300));
            continue;
        }
        log.records.push_back(record);
    }
}

/** Empty when @p response carries exactly a direct plan of @p key. */
std::string
checkAgainstDirectPlan(const Key &key, const std::string &response)
{
    models::ModelParams params;
    params.set("batch", std::to_string(key.batch));
    PlanRequest request(key.model, params, hw::parseArraySpec(key.array));
    request.strategy = "accpar";
    request.jobs = 1;
    request.options.verify = true;
    request.options.emitCertificate = true;
    const PlanResult direct = Planner().plan(request);
    const hw::Hierarchy hierarchy(request.array);

    const util::Json doc = util::Json::parse(response);
    if (doc.at("plan").dump() !=
        core::planToJson(direct.plan, hierarchy).dump())
        return "plan differs from a direct plan";
    if (doc.at("root_cost").asNumber() != direct.rootCost)
        return "root cost differs from a direct plan";
    if (doc.at("certificate_fingerprint").asString() !=
        core::certificateFingerprint(
            core::certificateToJson(*direct.certificate, hierarchy)))
        return "certificate fingerprint differs from a direct plan";
    if (!direct.diagnostics.empty() ||
        doc.at("diagnostics").dump() !=
            analysis::DiagnosticSink().renderJson().dump())
        return "verifier findings on the plan";
    return {};
}

} // namespace

WorkloadResult
runServiceMix(const RunConfig &config)
{
    WorkloadResult result;
    Inputs in;
    while (moreSetUps(result.setupSeconds)) {
        in.service.reset();
        const Clock::time_point start = Clock::now();
        in = setUp(config);
        result.setupSeconds.push_back(secondsSince(start));
    }

    ReferenceKernel host_speed;
    std::vector<Tracer> tracers(kClients);
    std::vector<ClientLog> logs(kClients);
    std::atomic<bool> stop{false};
    ClientGate gate(kClients);
    double held_seconds = 0; // not measured time
    const double traffic_seconds =
        config.trace ? config.seconds / 2 : config.seconds;
    const double cpu_start = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                try {
                    runClient(c, config, in, stop, gate, tracers[c],
                              logs[c]);
                } catch (const std::exception &e) {
                    ++logs[c].failed;
                    logs[c].failures.push_back(
                        std::string("client stopped: ") + e.what());
                }
                gate.leave();
            });
        double left = traffic_seconds;
        while (left > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                std::min(kReferenceEverySeconds, left)));
            gate.shut();
            const Clock::time_point held = Clock::now();
            host_speed.sample();
            held_seconds += secondsSince(held);
            gate.open();
            left = traffic_seconds - (secondsSince(start) - held_seconds);
        }
        stop.store(true);
        for (std::thread &client : clients)
            client.join();
    }
    const double wall_seconds = secondsSince(start);
    result.measuredSeconds = wall_seconds - held_seconds;
    result.referenceMs = host_speed.medianMs();
    result.referenceSamples = host_speed.samples();
    const double cpu_seconds = processCpuSeconds() - cpu_start;

    // Merge the client logs and check every response.
    std::map<std::size_t, std::set<std::uint64_t>> miss_full, miss_det;
    std::map<std::size_t, std::string> first_miss;
    std::vector<double> hit_ms, miss_ms, validate_ms, stats_ms,
        overhead_ms;
    std::map<std::string, std::vector<double>> traced, untraced;
    for (const ClientLog &log : logs) {
        result.attempted += log.records.size() + log.failed;
        result.failed += log.failed;
        for (const std::string &failure : log.failures)
            if (result.failures.size() < 20)
                result.failures.push_back(failure);
        for (const auto &[key, response] : log.firstMiss)
            first_miss.try_emplace(key, response);
        for (const Record &r : log.records) {
            ++result.completed;
            result.allLatencyMs.push_back(r.ms);
            const char *kind = "stats";
            switch (r.kind) {
              case Kind::Hit:
                kind = "hit";
                hit_ms.push_back(r.ms);
                break;
              case Kind::Miss:
                kind = "miss";
                miss_ms.push_back(r.ms);
                overhead_ms.push_back(r.overheadMs);
                miss_full[r.key].insert(r.full);
                miss_det[r.key].insert(r.deterministic);
                break;
              case Kind::Validate:
                kind = "validate";
                validate_ms.push_back(r.ms);
                break;
              case Kind::Stats:
                stats_ms.push_back(r.ms);
                break;
            }
            (r.traced ? traced : untraced)[kind].push_back(r.ms);
        }
    }
    for (const ClientLog &log : logs)
        for (const Record &r : log.records)
            if (r.kind == Kind::Hit && !miss_full[r.key].count(r.full))
                result.fail("hit on key " + std::to_string(r.key) +
                            " matches no miss that could have filled it");
    for (const auto &[key, digests] : miss_det)
        if (digests.size() != 1)
            result.fail("misses of key " + std::to_string(key) +
                        " disagree beyond plan_seconds");
    for (const auto &[key, response] : first_miss) {
        ++result.attempted;
        std::string defect;
        try {
            defect = checkAgainstDirectPlan(in.keys[key], response);
        } catch (const std::exception &e) {
            defect = e.what();
        }
        if (!defect.empty())
            result.fail(in.keys[key].line + ": " + defect);
    }

    result.classLatencyMs["hit"] = hit_ms;
    result.classLatencyMs["miss"] = miss_ms;
    result.classLatencyMs["validate"] = validate_ms;
    const std::size_t n = result.allLatencyMs.size();
    result.rows.push_back({"svc_req_per_s",
                           static_cast<double>(result.completed) /
                               result.measuredSeconds,
                           "1/s", n, configName()});
    result.rows.push_back({"svc_p50_ms", quantile(result.allLatencyMs, 0.5),
                           "ms", n, configName()});
    result.rows.push_back({"svc_p99_ms",
                           quantile(result.allLatencyMs, 0.99), "ms", n,
                           configName()});

    if (config.trace) {
        const service::ResultCacheStats cache = in.service->cache().stats();
        const service::MetricsSnapshot metrics =
            in.service->metrics().snapshot();
        setLayer(result, "service.hit_ms_p50", median(hit_ms), "ms",
                 hit_ms.size());
        setLayer(result, "service.miss_ms_p50", median(miss_ms), "ms",
                 miss_ms.size());
        setLayer(result, "service.miss_ms_p99", quantile(miss_ms, 0.99),
                 "ms", miss_ms.size());
        setLayer(result, "service.validate_ms_p50", median(validate_ms),
                 "ms", validate_ms.size());
        setLayer(result, "service.overhead_ms_p50", median(overhead_ms),
                 "ms", overhead_ms.size());
        const double attempts =
            static_cast<double>(cache.hits + cache.misses);
        setLayer(result, "service.cache_hit_ratio",
                 attempts > 0 ? static_cast<double>(cache.hits) / attempts
                              : 0.0,
                 "ratio");
        setLayer(result, "service.cache_evictions",
                 static_cast<double>(cache.evictions), "count");
        setLayer(result, "service.errors",
                 static_cast<double>(metrics.errors), "count");
        setLayer(result, "service.queue_rejected",
                 static_cast<double>(metrics.queueRejected), "count");
        setLayer(result, "util.cpu_per_wall", cpu_seconds / wall_seconds,
                 "ratio");
        setLayer(result, "tracing.overhead_pct",
                 tracingOverheadPct(traced, untraced), "%");

        // Layer probes on one key per model, chosen by the run seed.
        SplitMix probe_rng(mixSeed(config.seed, 4));
        std::vector<ProbeInput> probe_inputs;
        for (const std::string &model : kModels) {
            std::vector<const Key *> candidates;
            for (const Key &key : in.keys)
                if (key.model == model)
                    candidates.push_back(&key);
            const Key &key = *candidates[probe_rng.below(candidates.size())];
            models::ModelParams params;
            params.set("batch", std::to_string(key.batch));
            probe_inputs.push_back(
                {key.model, params, key.array, kPlannerJobs, key.line});
        }
        tracers[0].setEnabled(true);
        std::uint64_t id = 9000000000ull;
        runLayerProbes(probe_inputs, config.seconds / 2, tracers[0], id,
                       result);
        std::vector<const Tracer *> all;
        for (const Tracer &tracer : tracers)
            all.push_back(&tracer);
        finishTrace(config, all, result);
    }
    return result;
}

} // namespace perfbench
