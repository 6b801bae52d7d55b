/**
 * @file
 * One-record reads for the trace suites. AccessSource's interface is
 * batched (refill); tests that walk a stream record by record go
 * through this helper instead.
 */

#ifndef CAMEO_TRACE_COMMON_HH
#define CAMEO_TRACE_COMMON_HH

#include "trace/access_source.hh"

namespace cameo
{

/** The next record of @p source: a one-record refill(). */
inline Access
nextAccess(AccessSource &source)
{
    Access access;
    source.refill(&access, 1);
    return access;
}

} // namespace cameo

#endif // CAMEO_TRACE_COMMON_HH
