// Fixture: comments are not code, and integer to_chars is allowed.
#include <charconv>
#include <cstdint>
#include <string>

namespace demo {

/**
 * Doubles are emitted elsewhere as printf "%.17g"; this doc comment
 * may spell that contract (and a "%f" it forbids) without tripping
 * ALINT02.
 */
inline std::string
renderId(std::int64_t id)
{
    char buf[24];
    const std::to_chars_result result = std::to_chars(
        buf, buf + sizeof(buf), static_cast<std::int64_t>(id));
    return std::string(buf, result.ptr);
}

} // namespace demo
