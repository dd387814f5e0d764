// Fixture: a floating std::to_chars outside the emitters — shortest
// round-trip output, not the %.17g bytes every serializer must print.
#include <charconv>
#include <string>

namespace demo {

std::string
formatShortest(double value)
{
    char buf[32];
    const std::to_chars_result result =
        std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, result.ptr);
}

} // namespace demo
