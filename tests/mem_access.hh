/**
 * @file
 * Test helper: one timed memory access whose stats are added at once
 * (tally, access, commit), for reference loops that add to the stats
 * access by access and for tests of a single access.
 */

#ifndef SNPU_TESTS_MEM_ACCESS_HH
#define SNPU_TESTS_MEM_ACCESS_HH

#include "mem/mem_system.hh"

namespace snpu
{

inline MemResult
timedAccess(MemSystem &mem, Tick when, const MemRequest &req)
{
    MemTally t;
    const MemResult res = mem.access(when, req, t);
    mem.commit(t);
    return res;
}

} // namespace snpu

#endif // SNPU_TESTS_MEM_ACCESS_HH
