#include "core/landlord_policy.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace faascache {

namespace {

/** Credit granted on use: the initialization cost in seconds. */
double
grantCredit(const FunctionSpec& function)
{
    return toSeconds(function.initTime());
}

}  // namespace

void
LandlordPolicy::onWarmStart(Container& container,
                            const FunctionSpec& function, TimeUs)
{
    container.setCredit(grantCredit(function));
}

void
LandlordPolicy::onColdStart(Container& container,
                            const FunctionSpec& function, TimeUs)
{
    container.setCredit(grantCredit(function));
}

std::vector<ContainerId>
LandlordPolicy::selectVictims(ContainerPool& pool, MemMb needed_mb, TimeUs)
{
    constexpr double kEps = 1e-12;
    // Candidates in pool enumeration order: the result does not depend
    // on it, because delta is a min, each container's charge depends
    // only on delta and its own credit, and the insolvent set is sorted
    // by a total order before any of it is evicted.
    candidates_.clear();
    pool.forEach([this](Container& c) {
        if (c.idle())
            candidates_.push_back(&c);
    });
    std::vector<ContainerId> victims;
    MemMb freed = 0;

    while (freed < needed_mb && !candidates_.empty()) {
        // Rent: the smallest credit density among remaining candidates.
        double delta = std::numeric_limits<double>::infinity();
        for (const Container* c : candidates_) {
            assert(c->memMb() > 0);
            delta = std::min(delta, c->credit() / c->memMb());
        }
        // Charge everyone; collect the containers run out of credit.
        solvent_.clear();
        insolvent_.clear();
        for (Container* c : candidates_) {
            c->setCredit(c->credit() - delta * c->memMb());
            if (c->credit() <= kEps) {
                c->setCredit(0.0);
                insolvent_.push_back(c);
            } else {
                solvent_.push_back(c);
            }
        }
        // Evict insolvent containers in deterministic (LRU, id) order.
        std::sort(insolvent_.begin(), insolvent_.end(),
                  [](const Container* a, const Container* b) {
                      if (a->lastUsed() != b->lastUsed())
                          return a->lastUsed() < b->lastUsed();
                      return a->id() < b->id();
                  });
        for (Container* c : insolvent_) {
            if (freed >= needed_mb) {
                // Spare the rest; they keep zero credit until next use.
                solvent_.push_back(c);
                continue;
            }
            victims.push_back(c->id());
            freed += c->memMb();
        }
        candidates_.swap(solvent_);
    }
    return victims;
}

}  // namespace faascache
