#include "probes.h"

#include <map>
#include <variant>

#include "analysis/plan_verifier.h"
#include "core/certificate_io.h"
#include "core/hierarchical_solver.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "service/protocol.h"

namespace perfbench {

namespace {

using namespace accpar;

/** Calls of cheap entry points averaged per probe, for resolution. */
constexpr int kCheapRepeats = 8;

std::map<std::string, double>
probeOnce(const ProbeInput &input, Tracer &tracer, std::uint64_t request)
{
    std::map<std::string, double> v;
    Timed root(tracer, "probe", request);

    Timed build(tracer, "models.build", request);
    const graph::Graph model =
        models::catalog().build(input.model, input.params);
    v["models.build_ms"] = build.stopMs();

    Timed parse_array(tracer, "hw.parse_array", request);
    const hw::AcceleratorGroup array = hw::parseArraySpec(input.arraySpec);
    const double parse_ms = parse_array.stopMs();
    Timed tree(tracer, "hw.hierarchy", request);
    const hw::Hierarchy hierarchy(array);
    const double tree_ms = tree.stopMs();
    v["hw.hierarchy_ms"] = parse_ms + tree_ms;
    const double internal_nodes =
        static_cast<double>(hierarchy.internalNodes().size());
    v["hw.internal_nodes"] = internal_nodes;

    Timed problem_span(tracer, "core.problem", request);
    const core::PartitionProblem problem(model);
    const double problem_ms = problem_span.stopMs();
    v["core.problem_ms"] = problem_ms;
    v["core.condensed_nodes"] =
        static_cast<double>(problem.condensed().size());

    PlanRequest request_off(model, array);
    request_off.strategy = "accpar";
    request_off.jobs = input.jobs;
    request_off.options.verify = false;

    Timed plan_off(tracer, "core.plan.verify_off", request);
    const PlanResult plain = Planner().plan(request_off);
    const double plain_ms = plan_off.stopMs();
    const double solve_ms = plain_ms - problem_ms - tree_ms;
    v["core.solve_ms"] = solve_ms;
    v["core.solve_us_per_node"] =
        internal_nodes > 0 ? solve_ms * 1e3 / internal_nodes : 0.0;

    analysis::VerifyOptions verify_options;
    verify_options.cost = PlanOptions().toSolverOptions("accpar").cost;
    analysis::DiagnosticSink sink;
    Timed verify(tracer, "analysis.verify", request);
    analysis::verifyPlan(problem, hierarchy, plain.plan, verify_options,
                         sink);
    v["analysis.verify_ms"] = verify.stopMs();

    PlanRequest request_cert = request_off;
    request_cert.options.emitCertificate = true;
    Timed plan_cert(tracer, "core.plan.cert_on", request);
    const PlanResult certified = Planner().plan(request_cert);
    v["core.cert_emit_ms"] = plan_cert.stopMs() - plain_ms;

    Timed cert_json(tracer, "core.cert_json", request);
    const util::Json cert_doc =
        core::certificateToJson(*certified.certificate, hierarchy);
    const std::string fingerprint = core::certificateFingerprint(cert_doc);
    v["core.cert_json_ms"] = cert_json.stopMs();
    v["core.cert_json_bytes"] =
        static_cast<double>(cert_doc.dump().size());

    Timed plan_io(tracer, "core.plan_io", request);
    const std::string plan_text =
        core::planToJson(plain.plan, hierarchy).dump();
    v["core.plan_json_ms"] = plan_io.stopMs();
    v["core.plan_json_bytes"] = static_cast<double>(plan_text.size());

    Timed parse(tracer, "service.parse", request);
    for (int i = 0; i < kCheapRepeats; ++i) {
        const auto parsed = service::parseRequest(input.protocolLine);
        if (!std::holds_alternative<service::ServiceRequest>(parsed))
            throw std::runtime_error("probe line does not parse: " +
                                     input.protocolLine);
    }
    v["service.parse_us"] = parse.stopMs() * 1e3 / kCheapRepeats;

    Timed key(tracer, "service.key", request);
    std::size_t key_bytes = 0;
    for (int i = 0; i < kCheapRepeats; ++i)
        key_bytes += planRequestCanonicalKey(request_off).size();
    v["service.key_us"] = key.stopMs() * 1e3 / kCheapRepeats;

    if (key_bytes == 0 || fingerprint.empty())
        throw std::runtime_error("empty canonical key or fingerprint");
    return v;
}

} // namespace

void
runLayerProbes(const std::vector<ProbeInput> &inputs, double seconds,
               Tracer &tracer, std::uint64_t &nextRequest,
               WorkloadResult &result)
{
    // samples[input][metric] -> repetitions
    std::vector<std::map<std::string, std::vector<double>>> samples(
        inputs.size());
    const Clock::time_point start = Clock::now();
    std::size_t probes = 0;
    do {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            ++result.attempted;
            try {
                for (const auto &[name, value] :
                     probeOnce(inputs[i], tracer, nextRequest++))
                    samples[i][name].push_back(value);
                ++probes;
            } catch (const std::exception &e) {
                result.fail(std::string("layer probe: ") + e.what());
            }
        }
    } while (secondsSince(start) < seconds);

    std::map<std::string, std::vector<double>> per_input;
    for (const auto &input_samples : samples)
        for (const auto &[name, values] : input_samples)
            per_input[name].push_back(median(values));
    for (const auto &[name, unit] : layerMetricNames())
        if (const auto it = per_input.find(name); it != per_input.end())
            setLayer(result, name, mean(it->second), unit, probes);
}

} // namespace perfbench
