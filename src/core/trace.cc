#include "core/trace.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace cubicleos::core {

unsigned
detail::traceMaskFromEnv()
{
    // Indexed by TraceCat.
    static constexpr const char *kVars[] = {
        "CUBICLEOS_TRACE_FAULTS",
        "CUBICLEOS_TRACE_EVICTIONS",
        "CUBICLEOS_TRACE_LIFECYCLE",
    };
    unsigned mask = 0;
    for (unsigned i = 0; i < std::size(kVars); ++i) {
        if (std::getenv(kVars[i]) != nullptr)
            mask |= 1u << i;
    }
    return mask;
}

void
trace(TraceCat cat, const char *fmt, ...)
{
    if (!traceOn(cat))
        return;
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
}

} // namespace cubicleos::core
