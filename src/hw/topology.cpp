#include "hw/topology.h"

#include "hw/hierarchy.h"
#include "util/error.h"
#include "util/string_util.h"

namespace accpar::hw {

namespace {

double
parseNumber(const std::string &token, const std::string &what)
{
    // Locale-independent (ALINT10): whole-string parse, no LC_NUMERIC.
    const std::optional<double> out = util::parseDouble(token);
    if (!out)
        throw util::ConfigError("bad " + what + " '" + token +
                                "' in array spec");
    return *out;
}

GroupSlice
parseSlice(const std::string &text)
{
    const std::vector<std::string> fields = util::split(text, ':');
    if (fields.size() != 2 && fields.size() != 6)
        throw util::ConfigError("array slice '" + text +
                                "' must be name:count or "
                                "name:count:tflops:mem_gb:mem_gbps:"
                                "link_gbit");
    const std::string name = util::trim(fields[0]);
    const int count =
        static_cast<int>(parseNumber(fields[1], "count"));
    if (count < 1)
        throw util::ConfigError("array slice '" + text +
                                "' needs a positive board count");

    if (fields.size() == 2) {
        if (name == "tpu-v2")
            return GroupSlice{tpuV2(), count};
        if (name == "tpu-v3")
            return GroupSlice{tpuV3(), count};
        throw util::ConfigError(
            "unknown accelerator '" + name +
            "' (built-ins: tpu-v2, tpu-v3; custom slices need the "
            "6-field form)");
    }
    return GroupSlice{makeAccelerator(name,
                                      parseNumber(fields[2], "tflops"),
                                      parseNumber(fields[3], "mem_gb"),
                                      parseNumber(fields[4],
                                                  "mem_gbps"),
                                      parseNumber(fields[5],
                                                  "link_gbit")),
                      count};
}

} // namespace

AcceleratorGroup
parseArraySpec(const std::string &spec)
{
    const std::string text = util::trim(spec);
    if (text.empty())
        throw util::ConfigError("empty array spec");
    if (util::toLower(text) == "hetero")
        return heterogeneousTpuArray();
    if (util::toLower(text) == "homo")
        return homogeneousTpuV3Array();

    std::vector<GroupSlice> slices;
    for (const std::string &part : util::split(text, '+'))
        slices.push_back(parseSlice(util::trim(part)));
    AcceleratorGroup array(slices);
    // Every array is partitioned over a Hierarchy, which needs a split.
    if (array.size() < 2)
        throw util::ConfigError("array spec '" + text +
                                "' has 1 board; partitioning needs at "
                                "least two");
    return array;
}

} // namespace accpar::hw
