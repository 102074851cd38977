#include "src/common/zipf.h"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "src/common/logging.h"

namespace cubessd {

namespace {

/** zeta(n, theta) of every generator built in this process, keyed by
 *  n and theta's bits. A sweep builds a generator per cell over a few
 *  distinct (n, theta), and each sum costs up to 2^20 pow calls. */
struct ZetaMemo
{
    std::mutex mutex;
    std::map<std::pair<std::uint64_t, std::uint64_t>, double> sums;
};

ZetaMemo &
zetaMemo()
{
    static ZetaMemo memo;
    return memo;
}

}  // namespace

double
ZipfGenerator::zeta(std::uint64_t n, double theta)
{
    const std::pair key{n, std::bit_cast<std::uint64_t>(theta)};
    ZetaMemo &memo = zetaMemo();
    {
        const std::lock_guard lock(memo.mutex);
        if (const auto it = memo.sums.find(key); it != memo.sums.end())
            return it->second;
    }
    // Summed outside the lock: threads that miss together each sum,
    // to the same bits, and the first to finish fills the entry.
    const double sum = zetaSum(n, theta);
    const std::lock_guard lock(memo.mutex);
    memo.sums.emplace(key, sum);
    return sum;
}

double
ZipfGenerator::zetaSum(std::uint64_t n, double theta)
{
    // Exact harmonic sum for small n; bounded sample + integral tail
    // approximation for large n so construction stays O(1)-ish.
    constexpr std::uint64_t kExactLimit = 1u << 20;
    double sum = 0.0;
    const std::uint64_t limit = n < kExactLimit ? n : kExactLimit;
    for (std::uint64_t i = 1; i <= limit; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    if (n > limit) {
        // Integral of x^-theta from limit to n.
        if (theta == 1.0) {
            sum += std::log(static_cast<double>(n) /
                            static_cast<double>(limit));
        } else {
            const double a = 1.0 - theta;
            sum += (std::pow(static_cast<double>(n), a) -
                    std::pow(static_cast<double>(limit), a)) / a;
        }
    }
    return sum;
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    if (n == 0)
        fatal("ZipfGenerator requires a non-empty keyspace");
    alpha_ = 1.0 / (1.0 - theta_);
    zetan_ = zeta(n_, theta_);
    const double zeta2 = zeta(2, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
}

std::uint64_t
ZipfGenerator::sample(Rng &rng) const
{
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const double x = static_cast<double>(n_) *
                     std::pow(eta_ * u - eta_ + 1.0, alpha_);
    std::uint64_t v = static_cast<std::uint64_t>(x);
    if (v >= n_)
        v = n_ - 1;
    return v;
}

}  // namespace cubessd
