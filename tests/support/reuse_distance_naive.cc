#include "support/reuse_distance_naive.h"

#include <unordered_map>
#include <unordered_set>

#include "analysis/reuse_distance.h"

namespace faascache {

std::vector<double>
computeReuseDistancesNaive(const Trace& trace)
{
    const auto& invocations = trace.invocations();
    std::vector<double> distances;
    distances.reserve(invocations.size());
    std::unordered_map<FunctionId, std::size_t> last_pos;

    for (std::size_t i = 0; i < invocations.size(); ++i) {
        const FunctionId fn = invocations[i].function;
        auto it = last_pos.find(fn);
        if (it == last_pos.end()) {
            distances.push_back(kInfiniteReuseDistance);
        } else {
            std::unordered_set<FunctionId> unique;
            double total = 0.0;
            for (std::size_t j = it->second + 1; j < i; ++j) {
                const FunctionId other = invocations[j].function;
                if (other != fn && unique.insert(other).second)
                    total += trace.function(other).mem_mb;
            }
            distances.push_back(total);
        }
        last_pos[fn] = i;
    }
    return distances;
}

}  // namespace faascache
