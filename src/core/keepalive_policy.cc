#include "core/keepalive_policy.h"

namespace faascache {

void
KeepAlivePolicy::onInvocationArrival(const FunctionSpec& function, TimeUs now)
{
    stats_.recordArrival(function.id, now);
}

void
KeepAlivePolicy::onWarmStart(Container&, const FunctionSpec&, TimeUs)
{
}

void
KeepAlivePolicy::onColdStart(Container&, const FunctionSpec&, TimeUs)
{
}

void
KeepAlivePolicy::onPrewarm(Container& container, const FunctionSpec& function,
                           TimeUs now)
{
    onColdStart(container, function, now);
}

void
KeepAlivePolicy::onEviction(const Container& container, bool last_of_function,
                            TimeUs)
{
    if (last_of_function)
        stats_.resetFrequency(container.function());
}

std::vector<ContainerId>
KeepAlivePolicy::expiredContainers(const ContainerPool&, TimeUs)
{
    return {};
}

std::vector<FunctionId>
KeepAlivePolicy::duePrewarms(TimeUs)
{
    return {};
}

}  // namespace faascache
