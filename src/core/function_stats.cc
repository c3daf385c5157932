#include "core/function_stats.h"

namespace faascache {

void
FunctionStatsTable::recordArrival(FunctionId function, TimeUs now)
{
    FunctionStats& s = of(function);
    ++s.frequency;
    ++s.total_invocations;
    s.last_arrival_us = now;
}

void
FunctionStatsTable::resetFrequency(FunctionId function)
{
    if (FunctionStats* s = table_.find(function))
        s->frequency = 0;
}

}  // namespace faascache
