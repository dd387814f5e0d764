/** @file Tests for the command-line argument parser and array specs. */

#include <gtest/gtest.h>

#include <string>

#include "hw/topology.h"
#include "util/args.h"
#include "util/error.h"

namespace {

using accpar::util::Args;
using accpar::util::ConfigError;

TEST(Args, PositionalAndOptions)
{
    const Args args({"run", "--model", "vgg16", "--batch=64", "extra"});
    EXPECT_EQ(args.positional(),
              (std::vector<std::string>{"run", "extra"}));
    EXPECT_EQ(args.getOr("model", "?"), "vgg16");
    EXPECT_EQ(args.getIntOr("batch", 0), 64);
}

TEST(Args, SwitchesNeedDeclaration)
{
    const Args args({"--verbose", "--out", "x.json"}, {"verbose"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_EQ(args.getOr("out", ""), "x.json");
    // Undeclared switch at end of argv: flag needs a value.
    EXPECT_THROW(Args({"--flag"}), ConfigError);
}

TEST(Args, MissingFlagsFallBack)
{
    const Args args({});
    EXPECT_FALSE(args.has("x"));
    EXPECT_EQ(args.get("x"), std::nullopt);
    EXPECT_EQ(args.getOr("x", "d"), "d");
    EXPECT_EQ(args.getIntOr("x", 7), 7);
    EXPECT_DOUBLE_EQ(args.getDoubleOr("x", 2.5), 2.5);
}

TEST(Args, NumericParsingIsStrict)
{
    const Args args({"--n", "12x", "--d", "1.5.2"});
    EXPECT_THROW(args.getIntOr("n", 0), ConfigError);
    EXPECT_THROW(args.getDoubleOr("d", 0.0), ConfigError);
}

TEST(Args, CheckKnownCatchesTypos)
{
    const Args args({"--stratgy", "accpar"});
    EXPECT_THROW(args.checkKnown({"strategy"}), ConfigError);
    EXPECT_NO_THROW(args.checkKnown({"stratgy"}));
}

TEST(Args, FlagErrorsArePlainUserMessages)
{
    // A bad command line is the user's mistake: the message names the
    // flag and carries no check condition or source location.
    const auto message = [](const auto &fn) -> std::string {
        try {
            fn();
        } catch (const ConfigError &e) {
            return e.what();
        }
        return "no error";
    };
    EXPECT_EQ(message([] { Args({"--model", "vgg16", "--jobs"}); }),
              "flag --jobs needs a value");
    EXPECT_EQ(message([] {
                  Args({"--bogus", "1"}).checkKnown({"model"});
              }),
              "unknown flag --bogus");
    EXPECT_EQ(message([] { Args({"--"}); }),
              "bare '--' is not a valid flag");
}

TEST(ArraySpec, NamedArrays)
{
    using namespace accpar::hw;
    EXPECT_EQ(parseArraySpec("hetero").toString(),
              "128 x tpu-v2 + 128 x tpu-v3");
    EXPECT_EQ(parseArraySpec("HOMO").toString(), "128 x tpu-v3");
}

TEST(ArraySpec, SliceLists)
{
    using namespace accpar::hw;
    const AcceleratorGroup g =
        parseArraySpec("tpu-v2:96 + tpu-v3:32");
    EXPECT_EQ(g.size(), 128);
    EXPECT_EQ(g.slices()[0].count, 96);
    EXPECT_EQ(g.slices()[1].spec.name, "tpu-v3");
}

TEST(ArraySpec, CustomAccelerators)
{
    using namespace accpar::hw;
    const AcceleratorGroup g =
        parseArraySpec("edge:16:45:16:600:4");
    EXPECT_EQ(g.size(), 16);
    const AcceleratorSpec &spec = g.slices()[0].spec;
    EXPECT_EQ(spec.name, "edge");
    EXPECT_DOUBLE_EQ(spec.computeDensity, 45e12);
    EXPECT_DOUBLE_EQ(spec.memoryCapacity, 16e9);
    EXPECT_DOUBLE_EQ(spec.memoryBandwidth, 600e9);
    EXPECT_DOUBLE_EQ(spec.linkBandwidth, 0.5e9);
}

TEST(ArraySpec, MalformedInputsThrow)
{
    using namespace accpar::hw;
    for (const char *bad :
         {"", "tpu-v2", "tpu-v2:0", "unknown:4", "tpu-v2:x",
          "edge:4:45:16:600", "tpu-v2:4++tpu-v3:4"}) {
        EXPECT_THROW(parseArraySpec(bad), ConfigError) << bad;
    }
}

} // namespace
