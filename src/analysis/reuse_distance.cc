#include "analysis/reuse_distance.h"

#include <unordered_map>

#include "analysis/fenwick.h"

namespace faascache {

std::vector<double>
computeReuseDistancesOf(const std::vector<FunctionId>& accesses,
                        const std::vector<MemMb>& sizes)
{
    std::vector<double> distances;
    distances.reserve(accesses.size());

    // tree[pos] holds the size of the function whose most recent access
    // is at position pos; summing the open interval between a function's
    // previous access and now yields the unique-size reuse distance.
    FenwickTree tree(accesses.size());
    std::unordered_map<FunctionId, std::size_t> last_pos;
    last_pos.reserve(sizes.size());

    for (std::size_t i = 0; i < accesses.size(); ++i) {
        const FunctionId fn = accesses[i];
        const MemMb size = sizes.at(fn);
        auto it = last_pos.find(fn);
        if (it == last_pos.end()) {
            distances.push_back(kInfiniteReuseDistance);
        } else {
            const std::size_t prev = it->second;
            // Sum of unique sizes strictly between prev and i.
            distances.push_back(tree.rangeSum(prev + 1, i));
            tree.set(prev, 0.0);
        }
        tree.set(i, size);
        last_pos[fn] = i;
    }
    return distances;
}

std::vector<double>
computeReuseDistances(const Trace& trace)
{
    std::vector<FunctionId> accesses;
    accesses.reserve(trace.invocations().size());
    for (const auto& inv : trace.invocations())
        accesses.push_back(inv.function);
    std::vector<MemMb> sizes;
    sizes.reserve(trace.functions().size());
    for (const auto& fn : trace.functions())
        sizes.push_back(fn.mem_mb);
    return computeReuseDistancesOf(accesses, sizes);
}

std::vector<double>
computeReuseDistances(InvocationSource& source)
{
    source.reset();
    std::vector<FunctionId> accesses;
    const SourceCountHint hint = source.countHint();
    accesses.reserve(hint.count);
    Invocation inv;
    while (source.next(inv))
        accesses.push_back(inv.function);
    source.reset();
    std::vector<MemMb> sizes;
    sizes.reserve(source.functions().size());
    for (const auto& fn : source.functions())
        sizes.push_back(fn.mem_mb);
    return computeReuseDistancesOf(accesses, sizes);
}

}  // namespace faascache
