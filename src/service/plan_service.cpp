#include "service/plan_service.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "analysis/plan_verifier.h"
#include "core/certificate_io.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/topology.h"
#include "models/catalog.h"
#include "models/model_io.h"
#include "search/annealing.h"
#include "strategies/registry.h"
#include "util/error.h"
#include "util/logging.h"

namespace accpar::service {

namespace {

double
secondsBetween(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

util::Json
diagnosticsJson(const std::vector<analysis::Diagnostic> &diagnostics)
{
    analysis::DiagnosticSink sink;
    for (const analysis::Diagnostic &diagnostic : diagnostics)
        sink.report(diagnostic);
    return sink.renderJson();
}

} // namespace

PlanService::PlanService(const ServiceConfig &config)
    : _config(config),
      _cache(config.cacheEntries, config.cacheShards)
{
    ACCPAR_REQUIRE(config.workers >= 1,
                   "service needs at least one worker, got "
                       << config.workers);
    ACCPAR_REQUIRE(config.plannerJobs >= 0,
                   "plannerJobs must be >= 0, got "
                       << config.plannerJobs);
    _workers.reserve(static_cast<std::size_t>(config.workers));
    for (int i = 0; i < config.workers; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

PlanService::~PlanService()
{
    shutdown();
}

void
PlanService::shutdown()
{
    _draining.store(true, std::memory_order_release);
    {
        const util::LockGuard lock(_queueMutex);
        if (_stopWorkers)
            return;
        _stopWorkers = true;
    }
    _queueReady.notifyAll();
    for (std::thread &worker : _workers)
        if (worker.joinable())
            worker.join();
}

std::string
PlanService::handleLine(const std::string &line)
{
    auto parsed = parseRequest(line);
    if (const auto *error = std::get_if<ServiceError>(&parsed)) {
        _metrics.requestsTotal.fetch_add(1, std::memory_order_relaxed);
        _metrics.protocolErrors.fetch_add(1,
                                          std::memory_order_relaxed);
        _metrics.errors.fetch_add(1, std::memory_order_relaxed);
        return errorResponse(error->id, *error).dump();
    }
    return handle(std::get<ServiceRequest>(parsed)).dump();
}

util::Json
PlanService::handle(const ServiceRequest &request)
{
    _metrics.requestsTotal.fetch_add(1, std::memory_order_relaxed);
    switch (request.kind) {
      case RequestKind::Stats:
        _metrics.statsRequests.fetch_add(1,
                                         std::memory_order_relaxed);
        return okResponse(request.id, RequestKind::Stats,
                          statsPayload());
      case RequestKind::Shutdown:
        _metrics.shutdownRequests.fetch_add(1,
                                            std::memory_order_relaxed);
        ACCPAR_INFO("service: shutdown requested, draining");
        _draining.store(true, std::memory_order_release);
        return okResponse(request.id, RequestKind::Shutdown,
                          util::Json::Object{});
      case RequestKind::Plan:
        _metrics.planRequests.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestKind::Search:
        _metrics.searchRequests.fetch_add(1,
                                          std::memory_order_relaxed);
        break;
      case RequestKind::Validate:
        _metrics.validateRequests.fetch_add(1,
                                            std::memory_order_relaxed);
        break;
    }
    return enqueue(request);
}

util::Json
PlanService::enqueue(const ServiceRequest &request)
{
    auto job = std::make_unique<Job>();
    job->request = request;
    job->enqueued = Clock::now();
    double deadline = request.deadlineSeconds;
    if (deadline <= 0.0)
        deadline = _config.defaultDeadlineSeconds;
    if (deadline > 0.0)
        job->deadline =
            job->enqueued + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(deadline));
    std::future<util::Json> future = job->promise.get_future();

    {
        const util::LockGuard lock(_queueMutex);
        if (_draining.load(std::memory_order_acquire)) {
            _metrics.errors.fetch_add(1, std::memory_order_relaxed);
            return errorResponse(
                request.id,
                ServiceError{kErrShuttingDown,
                             "server is draining; request rejected"});
        }
        if (_queue.size() >= _config.maxQueue) {
            _metrics.queueRejected.fetch_add(
                1, std::memory_order_relaxed);
            _metrics.errors.fetch_add(1, std::memory_order_relaxed);
            return errorResponse(
                request.id,
                ServiceError{kErrQueueFull,
                             "admission queue is full (" +
                                 std::to_string(_config.maxQueue) +
                                 " pending requests)"});
        }
        _queue.push_back(std::move(job));
        _metrics.queueDepth.fetch_add(1, std::memory_order_relaxed);
    }
    _queueReady.notifyOne();
    return future.get();
}

void
PlanService::workerLoop()
{
    // Each worker owns its Planner: concurrent solves never share
    // mutable planner state.
    Planner planner;
    while (true) {
        std::unique_ptr<Job> job;
        {
            util::UniqueLock lock(_queueMutex);
            while (_queue.empty() && !_stopWorkers)
                _queueReady.wait(lock);
            if (_queue.empty()) {
                if (_stopWorkers)
                    return;
                continue;
            }
            job = std::move(_queue.front());
            _queue.pop_front();
            _metrics.queueDepth.fetch_sub(1,
                                          std::memory_order_relaxed);
        }
        util::Json response = process(*job, planner);
        job->promise.set_value(std::move(response));
    }
}

util::Json
PlanService::process(Job &job, Planner &planner)
{
    const ServiceRequest &request = job.request;
    if (job.deadline != Clock::time_point{} &&
        Clock::now() > job.deadline) {
        _metrics.deadlineExpired.fetch_add(1,
                                           std::memory_order_relaxed);
        util::Json response = errorResponse(
            request.id,
            ServiceError{kErrDeadline,
                         "deadline expired before planning started"});
        return finishResponse(std::move(response), job.enqueued);
    }

    util::Json response;
    try {
        switch (request.kind) {
          case RequestKind::Plan:
            response = executePlan(request, planner);
            break;
          case RequestKind::Search: {
            // Wall clock left before this job's deadline, for the
            // budget clamp. The expiry check above already ran, so a
            // set deadline has strictly positive time left (modulo
            // the microseconds since; floor at 1us so "deadline set"
            // is never confused with "no deadline").
            double remaining_ms = 0.0;
            if (job.deadline != Clock::time_point{})
                remaining_ms = std::max(
                    1e-3,
                    secondsBetween(Clock::now(), job.deadline) * 1e3);
            response = executeSearch(request, planner, remaining_ms);
            break;
          }
          default:
            response = executeValidate(request);
            break;
        }
    } catch (const std::exception &e) {
        response = errorResponse(
            request.id, ServiceError{kErrPlanFailed, e.what()});
    }
    return finishResponse(std::move(response), job.enqueued);
}

util::Json
PlanService::finishResponse(util::Json response,
                            Clock::time_point started)
{
    _metrics.latency.record(
        secondsBetween(started, Clock::now()));
    if (response.contains("ok") && !response.at("ok").asBool())
        _metrics.errors.fetch_add(1, std::memory_order_relaxed);
    return response;
}

util::Json
PlanService::executePlan(const ServiceRequest &request,
                         Planner &planner)
{
    // Phase 1: resolve the request's artifacts. Failures here are the
    // client's fault (unknown model, bad array spec): ASRV04.
    std::unique_ptr<PlanRequest> plan_request;
    try {
        graph::Graph model = [&] {
            if (request.modelDoc)
                return models::modelFromJson(*request.modelDoc);
            models::ModelParams params;
            for (const auto &[key, value] : request.params)
                params.set(key, value);
            if (!params.has("batch"))
                params.set("batch", std::to_string(request.batch));
            return models::catalog().build(request.modelName, params);
        }();
        hw::AcceleratorGroup array = hw::parseArraySpec(request.array);
        // Reject unknown strategy names before solving (and before the
        // cache, so a bad name can never be memoized).
        if (request.strategy != "custom")
            strategies::makeStrategy(request.strategy);
        plan_request = std::make_unique<PlanRequest>(std::move(model),
                                                     std::move(array));
        plan_request->strategy = request.strategy;
        plan_request->jobs = _config.plannerJobs;
        plan_request->options.verify = request.verify;
        plan_request->options.strict = request.strict;
        // Every solved plan carries its certificate fingerprint so
        // clients can match cached responses to audited certificate
        // files. Excluded from the canonical key: emission cannot
        // change the produced plan.
        plan_request->options.emitCertificate = true;
    } catch (const std::exception &e) {
        return errorResponse(request.id,
                             ServiceError{kErrBadField, e.what()});
    }

    const std::string key = planRequestCanonicalKey(*plan_request);
    if (const auto payload = _cache.lookup(key)) {
        _metrics.cacheHits.fetch_add(1, std::memory_order_relaxed);
        util::Json response =
            okResponse(request.id, RequestKind::Plan, *payload);
        response["cached"] = true;
        return response;
    }
    _metrics.cacheMisses.fetch_add(1, std::memory_order_relaxed);

    // Phase 2: solve. Failures here (verifier rejection, solver
    // errors) are planning failures: ASRV07, raised by process().
    // Solved through planBatch so result-cache misses ride the same
    // shared-problem engine as sweeps (and a future multi-request
    // protocol batches for free).
    const PlanResult result =
        planner.planBatch({*plan_request}).front();
    const hw::Hierarchy hierarchy(plan_request->array);

    util::Json payload = util::Json::Object{};
    payload["strategy"] = result.strategy;
    payload["model"] = result.model;
    payload["root_cost"] = result.rootCost;
    payload["plan_seconds"] = result.planSeconds;
    payload["plan"] = core::planToJson(result.plan, hierarchy);
    payload["diagnostics"] = diagnosticsJson(result.diagnostics);
    payload["certificate_fingerprint"] =
        result.certificate
            ? util::Json(core::certificateFingerprint(
                  core::certificateToJson(*result.certificate,
                                          hierarchy)))
            : util::Json();

    const auto shared =
        std::make_shared<const util::Json>(std::move(payload));
    _cache.insert(key, shared);
    util::Json response =
        okResponse(request.id, RequestKind::Plan, *shared);
    response["cached"] = false;
    return response;
}

util::Json
PlanService::executeSearch(const ServiceRequest &request,
                           Planner &planner,
                           double remainingDeadlineMs)
{
    // Budget first: a search without a usable budget is rejected
    // before any artifact work (ASRV09). The clamp also caps the run
    // by the request's remaining deadline.
    const search::EffectiveBudget budget = search::clampBudget(
        static_cast<int>(std::min<std::int64_t>(
            request.budgetIters,
            std::numeric_limits<int>::max())),
        request.budgetMs, remainingDeadlineMs);
    if (!budget.usable)
        return errorResponse(
            request.id,
            ServiceError{kErrNoBudget,
                         "search request needs budget_iters or "
                         "budget_ms > 0"});

    // Phase 1: resolve artifacts under the same rules as plan
    // requests (failures are the client's fault: ASRV04).
    std::unique_ptr<PlanRequest> plan_request;
    try {
        graph::Graph model = [&] {
            if (request.modelDoc)
                return models::modelFromJson(*request.modelDoc);
            models::ModelParams params;
            for (const auto &[key, value] : request.params)
                params.set(key, value);
            if (!params.has("batch"))
                params.set("batch", std::to_string(request.batch));
            return models::catalog().build(request.modelName, params);
        }();
        hw::AcceleratorGroup array = hw::parseArraySpec(request.array);
        if (request.strategy != "accpar" &&
            request.strategy != "custom")
            throw util::ConfigError(
                "outer search supports strategies 'accpar' and "
                "'custom' only, got '" +
                request.strategy + "'");
        plan_request = std::make_unique<PlanRequest>(std::move(model),
                                                     std::move(array));
        plan_request->strategy = request.strategy;
        plan_request->jobs = _config.plannerJobs;
        plan_request->options.verify = request.verify;
        plan_request->options.strict = request.strict;
        plan_request->options.emitCertificate = true;
        plan_request->options.search.budgetIters = budget.budgetIters;
        plan_request->options.search.budgetMs = budget.budgetMs;
        plan_request->options.search.seed = request.seed;
    } catch (const std::exception &e) {
        return errorResponse(request.id,
                             ServiceError{kErrBadField, e.what()});
    }

    // Only iteration-budgeted, deadline-free searches may hit the
    // result cache: they are pure functions of the request (the
    // canonical key folds the search budget in). Wall-clock budgets
    // truncate nondeterministically, so caching them would serve one
    // run's luck as another run's answer.
    const std::string key = planRequestCanonicalKey(*plan_request);
    if (budget.cacheable) {
        if (const auto payload = _cache.lookup(key)) {
            _metrics.cacheHits.fetch_add(1, std::memory_order_relaxed);
            util::Json response =
                okResponse(request.id, RequestKind::Search, *payload);
            response["cached"] = true;
            return response;
        }
        _metrics.cacheMisses.fetch_add(1, std::memory_order_relaxed);
    }

    // Phase 2: search + solve. Failures surface as ASRV07 via
    // process(). The plan's node ids index the winning hierarchy, so
    // serialization must use it, never the seed hierarchy.
    const PlanResult result =
        planner.planBatch({*plan_request}).front();
    ACCPAR_REQUIRE(result.searchedHierarchy && result.searchReport,
                   "search-enabled plan returned no searched "
                   "hierarchy");
    const hw::Hierarchy &hierarchy = *result.searchedHierarchy;
    const search::SearchReport &report = *result.searchReport;

    util::Json payload = util::Json::Object{};
    payload["strategy"] = result.strategy;
    payload["model"] = result.model;
    payload["root_cost"] = result.rootCost;
    payload["plan_seconds"] = result.planSeconds;
    payload["plan"] = core::planToJson(result.plan, hierarchy);
    payload["diagnostics"] = diagnosticsJson(result.diagnostics);
    payload["certificate_fingerprint"] =
        result.certificate
            ? util::Json(core::certificateFingerprint(
                  core::certificateToJson(*result.certificate,
                                          hierarchy)))
            : util::Json();
    payload["baseline_cost"] = report.baselineCost;
    payload["best_cost"] = report.bestCost;
    payload["search_iterations"] =
        static_cast<std::int64_t>(report.iterations);
    payload["search_improved"] = report.improvedOverBaseline();
    payload["hierarchy_signature"] = report.bestSignature;
    util::Json anytime{util::Json::Array{}};
    for (const search::AnytimePoint &point : report.anytime) {
        util::Json entry = util::Json::Object{};
        entry["iteration"] = static_cast<std::int64_t>(point.iteration);
        entry["best_cost"] = point.bestCost;
        anytime.push(std::move(entry));
    }
    payload["anytime"] = std::move(anytime);

    const auto shared =
        std::make_shared<const util::Json>(std::move(payload));
    if (budget.cacheable)
        _cache.insert(key, shared);
    util::Json response =
        okResponse(request.id, RequestKind::Search, *shared);
    response["cached"] = false;
    return response;
}

util::Json
PlanService::executeValidate(const ServiceRequest &request)
{
    analysis::DiagnosticSink sink;
    const std::optional<graph::Graph> model =
        models::modelFromJson(*request.modelDoc, sink);

    if (model && request.planDoc) {
        // Bad array specs are a request problem, not a finding about
        // the artifacts: report ASRV04 instead of a diagnostic.
        hw::AcceleratorGroup array;
        try {
            array = hw::parseArraySpec(request.array);
        } catch (const std::exception &e) {
            return errorResponse(request.id,
                                 ServiceError{kErrBadField, e.what()});
        }
        const hw::Hierarchy hierarchy(array);
        const std::optional<core::PartitionPlan> plan =
            core::planFromJson(*request.planDoc, hierarchy, sink);
        if (plan) {
            analysis::VerifyOptions options;
            try {
                options.cost = strategies::makeStrategy(
                                   request.strategy)
                                   ->costConfig();
            } catch (const util::ConfigError &) {
                options.checkCosts = false;
            }
            const core::PartitionProblem problem(*model);
            analysis::verifyPlan(problem, hierarchy, *plan, options,
                                 sink);
        }
    }
    sink.sort();

    util::Json payload = util::Json::Object{};
    payload["valid"] = !sink.failsStrict(request.strict);
    payload["diagnostics"] = sink.renderJson();
    return okResponse(request.id, RequestKind::Validate, payload);
}

util::Json
PlanService::statsPayload() const
{
    const ResultCacheStats cache_stats = _cache.stats();
    util::Json cache = util::Json::Object{};
    cache["entries"] = static_cast<std::int64_t>(cache_stats.entries);
    cache["capacity"] = static_cast<std::int64_t>(_cache.capacity());
    cache["shards"] = static_cast<std::int64_t>(_cache.shardCount());
    cache["hits"] = static_cast<std::int64_t>(cache_stats.hits);
    cache["misses"] = static_cast<std::int64_t>(cache_stats.misses);
    cache["insertions"] =
        static_cast<std::int64_t>(cache_stats.insertions);
    cache["evictions"] =
        static_cast<std::int64_t>(cache_stats.evictions);
    cache["hit_rate"] = cache_stats.hitRate();

    util::Json payload = util::Json::Object{};
    payload["metrics"] = _metrics.snapshot().toJson();
    payload["result_cache"] = std::move(cache);
    payload["workers"] = _config.workers;
    payload["planner_jobs"] = _config.plannerJobs;
    payload["queue_capacity"] =
        static_cast<std::int64_t>(_config.maxQueue);
    payload["draining"] = shutdownRequested();
    return payload;
}

std::string
PlanService::statsText() const
{
    const ResultCacheStats cache_stats = _cache.stats();
    std::string text = _metrics.snapshot().toText();
    text += "  cache entries:    " +
            std::to_string(cache_stats.entries) + " / " +
            std::to_string(_cache.capacity()) + " (" +
            std::to_string(cache_stats.evictions) + " evicted)\n";
    return text;
}

} // namespace accpar::service
