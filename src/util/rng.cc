#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace faascache {

namespace {

std::uint64_t
splitMix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto& word : state_)
        word = splitMix64(s);
}

double
Rng::uniform(double lo, double hi)
{
    assert(lo <= hi);
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    assert(n > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
    std::uint64_t v;
    do {
        v = nextU64();
    } while (v >= limit);
    return v % n;
}

double
Rng::exponential(double mean)
{
    assert(mean > 0);
    double u;
    do {
        u = uniform();
    } while (u == 0.0);
    return -mean * std::log(u);
}

double
Rng::normal()
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 == 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

double
Rng::pareto(double x_m, double alpha)
{
    assert(x_m > 0 && alpha > 0);
    double u;
    do {
        u = uniform();
    } while (u == 0.0);
    return x_m / std::pow(u, 1.0 / alpha);
}

std::int64_t
Rng::poissonKnuthTail(double mean, double u)
{
    const double limit = std::exp(-mean);
    std::int64_t k = 0;
    double p = u;
    while (p > limit) {
        ++k;
        p *= uniform();
    }
    return k;
}

std::int64_t
Rng::poissonNormal(double mean)
{
    const double v = normal(mean, std::sqrt(mean));
    return std::max<std::int64_t>(0, static_cast<std::int64_t>(std::lround(v)));
}

std::size_t
Rng::weightedIndex(const std::vector<double>& weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    assert(total > 0);
    double target = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0)
            return i;
    }
    // Floating point slack: return the last positively weighted index.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0)
            return i;
    }
    return 0;
}

std::vector<std::size_t>
Rng::permutation(std::size_t n)
{
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = uniformInt(i);
        std::swap(perm[i - 1], perm[j]);
    }
    return perm;
}

Rng
Rng::split()
{
    return Rng(nextU64());
}

std::uint64_t
Rng::hashMix(std::uint64_t key)
{
    std::uint64_t x = key;
    return splitMix64(x);
}

}  // namespace faascache
