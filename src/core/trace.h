/**
 * @file
 * The core's one stderr trace facility. Each category is switched on
 * by its own environment variable, read once per process:
 *
 *   CUBICLEOS_TRACE_FAULTS     kFault  every trap: accessor, page, owner
 *   CUBICLEOS_TRACE_EVICTIONS  kEvict  every tag park and fault-back-in
 *   CUBICLEOS_TRACE_LIFECYCLE  kLife   destroy/unwind/reclaim/restart
 */

#ifndef CUBICLEOS_CORE_TRACE_H_
#define CUBICLEOS_CORE_TRACE_H_

namespace cubicleos::core {

/** Trace category; the value is its bit in the enable mask. */
enum class TraceCat : unsigned { kFault, kEvict, kLife };

namespace detail {
/** Enable mask from the environment; only traceOn calls it. */
unsigned traceMaskFromEnv();
} // namespace detail

/**
 * True when @p cat's variable is set. The environment is read on the
 * first call only, so a disabled trace costs one predictable branch
 * on the fault path.
 */
inline bool
traceOn(TraceCat cat)
{
    static const unsigned mask = detail::traceMaskFromEnv();
    return ((mask >> static_cast<unsigned>(cat)) & 1u) != 0;
}

/**
 * printf-style write to stderr when @p cat is on. @p fmt carries the
 * line's tag ("[fault] ", "[evict] ", ...) and its newline.
 */
void trace(TraceCat cat, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_TRACE_H_
