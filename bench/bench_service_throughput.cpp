/**
 * @file
 * Planning-service throughput: cold cache vs warm cache (`accpar
 * serve` engine, in-process loopback, no sockets).
 *
 * Cold requests use distinct batch sizes so every one misses the
 * result cache and runs a full vgg16 solve; warm requests repeat one
 * already-cached request so every one is a cache hit. The sweep runs
 * both at 1..K concurrent closed-loop clients. The warm/cold speedup
 * is the headline number: it bounds what the sharded result cache buys
 * a request stream with repeated work.
 */

#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "service/plan_service.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace accpar;

std::string
planLine(std::int64_t batch, int id)
{
    util::Json doc = util::Json::Object{};
    doc["kind"] = "plan";
    doc["id"] = id;
    doc["model"] = "vgg16";
    doc["batch"] = batch;
    doc["array"] = "tpu-v3:2";
    doc["strategy"] = "accpar";
    return doc.dump();
}

/** Drives @p lines through the service from @p clients closed-loop
 *  client threads; returns the wall time of the whole batch. */
double
runBatch(service::PlanService &plan_service,
         const std::vector<std::string> &lines, int clients)
{
    std::atomic<std::size_t> next{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            while (true) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= lines.size())
                    break;
                plan_service.handleLine(lines[i]);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main()
{
    constexpr int kColdRequests = 8;
    constexpr int kWarmRequests = 2000;
    const std::vector<int> client_counts = {1, 2, 4};

    service::ServiceConfig config;
    config.workers = 4;
    config.cacheEntries = 1024;
    service::PlanService plan_service(config);

    // One shared request for the warm runs, primed once up front so
    // every measured warm request is a cache hit.
    const std::string warm_line = planLine(512, 0);
    plan_service.handleLine(warm_line);

    util::Table table({"clients", "cold req/s", "warm req/s",
                       "warm/cold speedup"});
    bench::BenchReport report("service_throughput");
    double worst_speedup = 0.0;
    bool first = true;
    for (const int clients : client_counts) {
        // Distinct batch per request => every cold request misses the
        // cache and runs a full vgg16 solve. A fresh batch range per
        // client count keeps later sweeps cold too.
        static std::int64_t next_batch = 16;
        std::vector<std::string> cold_lines;
        for (int i = 0; i < kColdRequests; ++i)
            cold_lines.push_back(planLine(next_batch++, i));
        const double cold_seconds =
            runBatch(plan_service, cold_lines, clients);
        const double cold_rps =
            static_cast<double>(kColdRequests) / cold_seconds;

        const std::vector<std::string> warm_lines(
            kWarmRequests, warm_line);
        const double warm_seconds =
            runBatch(plan_service, warm_lines, clients);
        const double warm_rps =
            static_cast<double>(kWarmRequests) / warm_seconds;

        const double speedup = warm_rps / cold_rps;
        if (first || speedup < worst_speedup)
            worst_speedup = speedup;
        first = false;
        table.addRow(std::to_string(clients),
                     {cold_rps, warm_rps, speedup});
        util::Json &metrics =
            report.addRow("clients" + std::to_string(clients));
        metrics["cold_requests_per_second"] = cold_rps;
        metrics["warm_requests_per_second"] = warm_rps;
        metrics["warm_over_cold_speedup"] = speedup;
    }

    std::cout << "planning service throughput: vgg16 plan requests, "
                 "cold vs warm result cache\n";
    table.print(std::cout);
    report.write();
    std::cout << "minimum warm/cold speedup: " << worst_speedup
              << "x\n";
    return worst_speedup >= 5.0 ? 0 : 1;
}
