#include "trace/function_spec.h"

namespace faascache {

bool
FunctionSpec::valid() const
{
    return id != kInvalidFunction && mem_mb > 0 && warm_us > 0 &&
        cold_us >= warm_us && cold_us <= kMaxArrivalUs;
}

FunctionSpec
makeFunction(FunctionId id, std::string name, MemMb mem_mb, TimeUs warm_us,
             TimeUs init_us)
{
    FunctionSpec spec;
    spec.id = id;
    spec.name = std::move(name);
    spec.mem_mb = mem_mb;
    spec.warm_us = warm_us;
    spec.cold_us = warm_us + init_us;
    return spec;
}

}  // namespace faascache
