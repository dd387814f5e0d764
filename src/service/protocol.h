/**
 * @file
 * The newline-delimited JSON protocol of the planning service.
 *
 * Every request is one JSON object on one line; every response is one
 * JSON object on one line. Request kinds:
 *
 *   plan      search a partition plan
 *             {"kind":"plan", "id":…, "model":"vgg16"|{inline doc},
 *              "batch":512, "params":{"depth":12, "heads":8},
 *              "array":"hetero", "strategy":"accpar",
 *              "verify":true, "strict":false, "deadline_ms":0}
 *             "model" names any models::catalog() entry (`accpar
 *             models` lists them); "params" carries the entry's build
 *             parameters (values are strings or integers; "batch" is
 *             shorthand for params.batch and loses to an explicit
 *             one)
 *             the payload carries "certificate_fingerprint": the
 *             16-hex-digit FNV-1a fingerprint of the solve's plan
 *             certificate (see core/certificate_io.h), so a response —
 *             cached or fresh — can be matched to the certificate file
 *             that proves it
 *   search    outer-loop hierarchy/assignment search, then plan
 *             {"kind":"search", "id":…, model/batch/params/array/
 *              strategy/verify/strict as for plan,
 *              "budget_iters":64, "budget_ms":0, "seed":1,
 *              "deadline_ms":0}
 *             runs the simulated-annealing outer search (DESIGN.md
 *             §16) before the inner solve; at least one budget must
 *             be positive (else ASRV09). A wall-clock budget is
 *             clamped to the request's remaining deadline; an
 *             iteration-only budget under a deadline gains a
 *             wall-clock cap the same way. The payload extends plan's
 *             with "baseline_cost", "best_cost", "search_iterations"
 *             and the "anytime" curve. Only iteration-budgeted,
 *             deadline-free searches are served from the result cache
 *             (wall-clock budgets are run-to-run dependent).
 *   validate  lint a model document and optionally verify a plan
 *             {"kind":"validate", "id":…, "model":{inline doc},
 *              ["plan":{plan doc}, "array":SPEC, "strategy":S],
 *              "strict":false}
 *   stats     {"kind":"stats", "id":…} -> metrics + cache snapshot
 *   shutdown  {"kind":"shutdown", "id":…} -> graceful drain
 *
 * Responses echo "id" verbatim and carry "ok":true plus kind-specific
 * payload, or "ok":false with {"error":{"code","message"}}. Error codes
 * are stable API (catalog in DESIGN.md §10):
 *
 *   ASRV01  line is not parseable JSON (malformed, or nested deeper
 *           than the parser's recursion limit)
 *   ASRV02  not a JSON object, or "kind" missing / not a string
 *   ASRV03  unknown request kind
 *   ASRV04  invalid request field (bad type, unknown model/array/
 *           strategy, malformed inline document)
 *   ASRV05  admission queue full, request rejected
 *   ASRV06  per-request deadline expired before planning started
 *   ASRV07  planning failed (solver/verifier rejected the request)
 *   ASRV08  server is draining; no new work accepted
 *   ASRV09  search request without a usable budget (budget_iters and
 *           budget_ms both unset/zero, or the deadline already
 *           consumed the whole wall-clock budget)
 */

#ifndef ACCPAR_SERVICE_PROTOCOL_H
#define ACCPAR_SERVICE_PROTOCOL_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>

#include "util/json.h"

namespace accpar::service {

/// @name Stable protocol error codes.
/// @{
inline constexpr char kErrParse[] = "ASRV01";
inline constexpr char kErrNotRequest[] = "ASRV02";
inline constexpr char kErrUnknownKind[] = "ASRV03";
inline constexpr char kErrBadField[] = "ASRV04";
inline constexpr char kErrQueueFull[] = "ASRV05";
inline constexpr char kErrDeadline[] = "ASRV06";
inline constexpr char kErrPlanFailed[] = "ASRV07";
inline constexpr char kErrShuttingDown[] = "ASRV08";
inline constexpr char kErrNoBudget[] = "ASRV09";
/// @}

/** What a request asks the service to do. */
enum class RequestKind { Plan, Search, Validate, Stats, Shutdown };

/** Lowercase wire name of @p kind. */
const char *requestKindName(RequestKind kind);

/** A parsed, field-validated protocol request. */
struct ServiceRequest
{
    /** Client correlation id, echoed verbatim (null when absent). */
    util::Json id;
    RequestKind kind = RequestKind::Stats;

    /** Inline model document ("model" was an object). */
    std::optional<util::Json> modelDoc;
    /** Catalog model name ("model" was a string; plan only). */
    std::string modelName = "vgg16";
    std::int64_t batch = 512;
    /** Catalog build parameters ("params" object, stringified). */
    std::map<std::string, std::string> params;
    std::string array = "hetero";
    std::string strategy = "accpar";
    bool verify = true;
    bool strict = false;
    /** Optional plan document for validate. */
    std::optional<util::Json> planDoc;
    /** 0 = no deadline. */
    double deadlineSeconds = 0.0;

    /// @name Outer-search budget (search requests only).
    /// @{
    std::int64_t budgetIters = 0;
    double budgetMs = 0.0;
    std::uint64_t seed = 1;
    /// @}
};

/** A protocol-level failure with its stable code. */
struct ServiceError
{
    std::string code;
    std::string message;
    /** Correlation id of the failing request, when it was readable. */
    util::Json id{};
};

/**
 * Parses one request line. Returns the validated request, or the
 * ServiceError to answer with (codes ASRV01..ASRV04).
 */
std::variant<ServiceRequest, ServiceError>
parseRequest(const std::string &line);

/** Renders the error envelope {"id":…,"ok":false,"error":{…}}. */
util::Json errorResponse(const util::Json &id,
                         const ServiceError &error);

/**
 * Renders a success envelope: {"id":…,"ok":true,"kind":…} with every
 * member of @p payload merged in at the top level.
 */
util::Json okResponse(const util::Json &id, RequestKind kind,
                      const util::Json &payload);

} // namespace accpar::service

#endif // ACCPAR_SERVICE_PROTOCOL_H
