/**
 * @file
 * Wire-protocol tests: request parsing, the stable ASRV error codes,
 * id echoing and the response envelopes (service/protocol.h).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <variant>

#include "service/protocol.h"
#include "util/json.h"

namespace {

using namespace accpar;
using service::parseRequest;
using service::RequestKind;
using service::ServiceError;
using service::ServiceRequest;

const ServiceRequest &
expectRequest(const std::variant<ServiceRequest, ServiceError> &result)
{
    const auto *request = std::get_if<ServiceRequest>(&result);
    EXPECT_NE(request, nullptr)
        << "expected a request, got error "
        << (std::get_if<ServiceError>(&result)
                ? std::get_if<ServiceError>(&result)->code + ": " +
                      std::get_if<ServiceError>(&result)->message
                : std::string());
    static const ServiceRequest empty;
    return request ? *request : empty;
}

const ServiceError &
expectError(const std::variant<ServiceRequest, ServiceError> &result,
            const std::string &code)
{
    const auto *error = std::get_if<ServiceError>(&result);
    EXPECT_NE(error, nullptr) << "expected error " << code;
    static const ServiceError empty;
    if (!error)
        return empty;
    EXPECT_EQ(error->code, code) << error->message;
    return *error;
}

TEST(ServiceProtocol, ParsesPlanRequestWithDefaults)
{
    const auto result =
        parseRequest(R"({"kind":"plan","id":7,"model":"lenet"})");
    const ServiceRequest &request = expectRequest(result);
    EXPECT_EQ(request.kind, RequestKind::Plan);
    EXPECT_EQ(request.id.asInt(), 7);
    EXPECT_EQ(request.modelName, "lenet");
    EXPECT_FALSE(request.modelDoc.has_value());
    EXPECT_EQ(request.batch, 512);
    EXPECT_EQ(request.array, "hetero");
    EXPECT_EQ(request.strategy, "accpar");
    EXPECT_TRUE(request.verify);
    EXPECT_FALSE(request.strict);
    EXPECT_EQ(request.deadlineSeconds, 0.0);
}

TEST(ServiceProtocol, ParsesExplicitFields)
{
    const auto result = parseRequest(
        R"({"kind":"plan","id":"req-1","model":"vgg16","batch":64,)"
        R"("array":"tpu-v3:4","strategy":"hypar","verify":false,)"
        R"("strict":true,"deadline_ms":250})");
    const ServiceRequest &request = expectRequest(result);
    EXPECT_EQ(request.id.asString(), "req-1");
    EXPECT_EQ(request.batch, 64);
    EXPECT_EQ(request.array, "tpu-v3:4");
    EXPECT_EQ(request.strategy, "hypar");
    EXPECT_FALSE(request.verify);
    EXPECT_TRUE(request.strict);
    EXPECT_DOUBLE_EQ(request.deadlineSeconds, 0.25);
}

TEST(ServiceProtocol, ParsesStatsAndShutdown)
{
    EXPECT_EQ(expectRequest(parseRequest(R"({"kind":"stats"})")).kind,
              RequestKind::Stats);
    EXPECT_EQ(
        expectRequest(parseRequest(R"({"kind":"shutdown"})")).kind,
        RequestKind::Shutdown);
}

TEST(ServiceProtocol, MalformedJsonIsASRV01)
{
    expectError(parseRequest("{nope"), service::kErrParse);
    expectError(parseRequest(""), service::kErrParse);
}

TEST(ServiceProtocol, NonJsonNumberIsASRV01)
{
    // "+1" is not a JSON number (RFC 8259 §6); the request is refused
    // at the '+' rather than read as batch 1.
    const auto result = parseRequest(
        R"({"kind":"plan","model":"lenet","batch":+1})");
    const ServiceError &error = expectError(result, service::kErrParse);
    EXPECT_EQ(error.message,
              "malformed request: invalid JSON number '+1': expected a "
              "digit or '-' to start a number at byte 39");
}

TEST(ServiceProtocol, ParseErrorNamesByteOffsetOnly)
{
    // Clients see where their line broke, not the server's check
    // conditions or source paths.
    const auto truncated_result =
        parseRequest(R"({"kind":"plan","id":)");
    const ServiceError &truncated =
        expectError(truncated_result, service::kErrParse);
    EXPECT_EQ(truncated.message,
              "malformed request: unexpected end of JSON input at "
              "byte 20");
    const auto bad_char_result = parseRequest(R"({"kind" "plan"})");
    const ServiceError &bad_char =
        expectError(bad_char_result, service::kErrParse);
    EXPECT_EQ(bad_char.message,
              "malformed request: expected ':', got '\"' at byte 8");
    for (const ServiceError *error : {&truncated, &bad_char}) {
        EXPECT_EQ(error->message.find("requirement failed"),
                  std::string::npos);
        EXPECT_EQ(error->message.find(".cpp:"), std::string::npos);
    }
}

TEST(ServiceProtocol, DeeplyNestedLineIsASRV01)
{
    // The hardened JSON parser bounds recursion; a pathological line
    // must surface as a clean parse error, not a stack overflow.
    std::string line(4000, '[');
    line += std::string(4000, ']');
    expectError(parseRequest(line), service::kErrParse);
}

#ifdef ACCPAR_TEST_DATA_DIR
TEST(ServiceProtocol, DeepNestingCorpusIsASRV01)
{
    // The same fuzz-corpus file the loaders reject must also bounce
    // off the service protocol with a clean parse error.
    std::ifstream in(std::string(ACCPAR_TEST_DATA_DIR) +
                     "/deep_nesting.json");
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    expectError(parseRequest(line), service::kErrParse);
}
#endif

TEST(ServiceProtocol, NonObjectOrMissingKindIsASRV02)
{
    expectError(parseRequest("[1,2,3]"), service::kErrNotRequest);
    expectError(parseRequest(R"({"id":1})"), service::kErrNotRequest);
    expectError(parseRequest(R"({"kind":5})"),
                service::kErrNotRequest);
}

TEST(ServiceProtocol, UnknownKindIsASRV03)
{
    const auto result =
        parseRequest(R"({"kind":"frobnicate","id":3})");
    const ServiceError &error =
        expectError(result, service::kErrUnknownKind);
    EXPECT_EQ(error.id.asInt(), 3) << "id must survive for the reply";
}

TEST(ServiceProtocol, BadFieldIsASRV04)
{
    expectError(parseRequest(R"({"kind":"plan","batch":"big"})"),
                service::kErrBadField);
    expectError(parseRequest(R"({"kind":"plan","model":17})"),
                service::kErrBadField);
    // validate demands an inline model document.
    expectError(parseRequest(R"({"kind":"validate","model":"lenet"})"),
                service::kErrBadField);
}

TEST(ServiceProtocol, ErrorResponseEnvelope)
{
    ServiceError error;
    error.code = service::kErrQueueFull;
    error.message = "queue full";
    const util::Json response =
        service::errorResponse(util::Json(42), error);
    EXPECT_EQ(response.at("id").asInt(), 42);
    EXPECT_FALSE(response.at("ok").asBool());
    EXPECT_EQ(response.at("error").at("code").asString(), "ASRV05");
    EXPECT_EQ(response.at("error").at("message").asString(),
              "queue full");
}

TEST(ServiceProtocol, OkResponseMergesPayload)
{
    util::Json payload = util::Json::Object{};
    payload["root_cost"] = 1.5;
    const util::Json response = service::okResponse(
        util::Json("abc"), RequestKind::Plan, payload);
    EXPECT_EQ(response.at("id").asString(), "abc");
    EXPECT_TRUE(response.at("ok").asBool());
    EXPECT_EQ(response.at("kind").asString(), "plan");
    EXPECT_DOUBLE_EQ(response.at("root_cost").asNumber(), 1.5);
}

TEST(ServiceProtocol, ResponsesAreSingleLine)
{
    ServiceError error;
    error.code = service::kErrParse;
    error.message = "bad line";
    const std::string dumped =
        service::errorResponse(util::Json(), error).dump();
    EXPECT_EQ(dumped.find('\n'), std::string::npos);
}

} // namespace
