#include "util/args.h"

#include <algorithm>

#include "util/error.h"
#include "util/string_util.h"

namespace accpar::util {

Args::Args(std::vector<std::string> argv,
           const std::vector<std::string> &switches)
{
    const auto is_switch = [&](const std::string &name) {
        return std::find(switches.begin(), switches.end(), name) !=
               switches.end();
    };

    for (std::size_t i = 0; i < argv.size(); ++i) {
        const std::string &arg = argv[i];
        if (!startsWith(arg, "--")) {
            _positional.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        if (body.empty())
            throw ConfigError("bare '--' is not a valid flag");
        const std::size_t eq = body.find('=');
        if (eq != std::string::npos) {
            const std::string name = body.substr(0, eq);
            _options[name] = body.substr(eq + 1);
            _occurrences[name].push_back(body.substr(eq + 1));
            continue;
        }
        if (is_switch(body)) {
            _switches[body] = true;
            continue;
        }
        if (i + 1 >= argv.size())
            throw ConfigError("flag --" + body + " needs a value");
        _options[body] = argv[++i];
        _occurrences[body].push_back(argv[i]);
    }
}

bool
Args::has(const std::string &name) const
{
    return _options.count(name) > 0 || _switches.count(name) > 0;
}

std::optional<std::string>
Args::get(const std::string &name) const
{
    auto it = _options.find(name);
    if (it == _options.end())
        return std::nullopt;
    return it->second;
}

std::vector<std::string>
Args::getAll(const std::string &name) const
{
    auto it = _occurrences.find(name);
    if (it == _occurrences.end())
        return {};
    return it->second;
}

std::string
Args::getOr(const std::string &name, const std::string &fallback) const
{
    return get(name).value_or(fallback);
}

std::int64_t
Args::getIntOr(const std::string &name, std::int64_t fallback) const
{
    const auto value = get(name);
    if (!value)
        return fallback;
    try {
        std::size_t used = 0;
        const std::int64_t out = std::stoll(*value, &used);
        ACCPAR_REQUIRE(used == value->size(), "trailing characters");
        return out;
    } catch (const std::exception &) {
        throw ConfigError("flag --" + name + " expects an integer, got '" +
                          *value + "'");
    }
}

double
Args::getDoubleOr(const std::string &name, double fallback) const
{
    const auto value = get(name);
    if (!value)
        return fallback;
    // Locale-independent (ALINT10): whole-string parse, no LC_NUMERIC.
    const std::optional<double> out = parseDouble(*value);
    if (!out)
        throw ConfigError("flag --" + name + " expects a number, got '" +
                          *value + "'");
    return *out;
}

void
Args::checkKnown(const std::vector<std::string> &known) const
{
    auto require_known = [&](const std::string &name) {
        if (std::find(known.begin(), known.end(), name) == known.end())
            throw ConfigError("unknown flag --" + name);
    };
    for (const auto &[name, value] : _options)
        require_known(name);
    for (const auto &[name, on] : _switches)
        require_known(name);
}

} // namespace accpar::util
