/**
 * @file
 * The planning service engine behind `accpar serve`.
 *
 * A PlanService turns protocol requests (see service/protocol.h) into
 * responses using a pool of worker threads, each owning its own
 * core::Planner (a Planner parallelizes internally but is not itself
 * thread-safe, so one per worker gives safe concurrent solves). Work
 * flows through a bounded admission queue — when it is full new
 * requests are rejected immediately with ASRV05 instead of building
 * unbounded backlog — and every queued request may carry a deadline
 * after which it is answered with ASRV06 instead of being solved.
 *
 * Plan responses are additionally memoized in a sharded LRU
 * ResultCache keyed by core::planRequestCanonicalKey, so a repeated
 * (model, array, options) query is answered without re-running the
 * search and is byte-identical to the cold response. Search responses
 * join the cache only when their budget is purely iteration-counted
 * and no deadline applies — those runs are deterministic functions of
 * the request, wall-clock-budgeted ones are not.
 *
 * `stats` and `shutdown` requests are handled inline (they must stay
 * responsive when the queue is busy). After a shutdown request the
 * service drains: queued work still completes, new work is rejected
 * with ASRV08, and shutdownRequested() flips so transports can stop
 * accepting.
 */

#ifndef ACCPAR_SERVICE_PLAN_SERVICE_H
#define ACCPAR_SERVICE_PLAN_SERVICE_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/metrics.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "util/json.h"
#include "util/sync.h"

namespace accpar {
class Planner; // core facade (core/planner.h)
}

namespace accpar::service {

/** Tunables of one PlanService instance. */
struct ServiceConfig
{
    /** Concurrent planning workers (each owns a Planner). */
    int workers = 2;
    /** Parallelism lanes inside each worker's Planner. */
    int plannerJobs = 1;
    /** Admission-queue bound; 0 rejects every queued request. */
    std::size_t maxQueue = 64;
    /** Result-cache entry budget (0 disables result caching). */
    std::size_t cacheEntries = 512;
    /** Result-cache lock shards. */
    std::size_t cacheShards = 8;
    /** Applied to requests that carry no deadline; 0 = none. */
    double defaultDeadlineSeconds = 0.0;
};

/** The request-processing engine (transport-independent). */
class PlanService
{
  public:
    explicit PlanService(const ServiceConfig &config);
    ~PlanService();

    PlanService(const PlanService &) = delete;
    PlanService &operator=(const PlanService &) = delete;

    /**
     * Handles one protocol line end to end (parse, dispatch, wait) and
     * returns the single-line response. This is the in-process
     * loopback transport: callable from any number of threads
     * concurrently, no sockets involved.
     */
    std::string handleLine(const std::string &line);

    /** Handles an already parsed request (blocks until answered). */
    util::Json handle(const ServiceRequest &request);

    /** True once a shutdown request arrived or shutdown() was called. */
    bool shutdownRequested() const
    {
        return _draining.load(std::memory_order_acquire);
    }

    /**
     * Drains and stops: rejects new work, finishes every queued
     * request, joins the workers. Idempotent; also run by the
     * destructor.
     */
    void shutdown() ACCPAR_EXCLUDES(_queueMutex);

    const ServiceConfig &config() const { return _config; }
    Metrics &metrics() { return _metrics; }
    ResultCache &cache() { return _cache; }

    /** The `stats` response payload (metrics + cache + config). */
    util::Json statsPayload() const;

    /** Human-readable stats block (dumped on server shutdown). */
    std::string statsText() const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Job
    {
        ServiceRequest request;
        Clock::time_point enqueued;
        /** Zero when the request has no deadline. */
        Clock::time_point deadline{};
        std::promise<util::Json> promise;
    };

    void workerLoop();
    util::Json process(Job &job, Planner &planner);
    util::Json executePlan(const ServiceRequest &request,
                           Planner &planner);
    /**
     * Runs the outer-loop search (DESIGN.md §16) and plans on the
     * winning hierarchy. @p remainingDeadlineMs is the wall clock left
     * before the job's deadline (0 = no deadline); it caps the
     * search's time budget via search::clampBudget. Only
     * iteration-budgeted, deadline-free searches touch the result
     * cache — wall-clock budgets are run-to-run dependent.
     */
    util::Json executeSearch(const ServiceRequest &request,
                             Planner &planner,
                             double remainingDeadlineMs);
    util::Json executeValidate(const ServiceRequest &request);
    util::Json enqueue(const ServiceRequest &request)
        ACCPAR_EXCLUDES(_queueMutex);
    util::Json finishResponse(util::Json response,
                              Clock::time_point started);

    ServiceConfig _config;
    Metrics _metrics;
    ResultCache _cache;

    util::Mutex _queueMutex{"PlanService::_queueMutex"};
    util::CondVar _queueReady;
    std::deque<std::unique_ptr<Job>> _queue
        ACCPAR_GUARDED_BY(_queueMutex);
    bool _stopWorkers ACCPAR_GUARDED_BY(_queueMutex) = false;
    std::atomic<bool> _draining{false};
    std::vector<std::thread> _workers;
};

} // namespace accpar::service

#endif // ACCPAR_SERVICE_PLAN_SERVICE_H
