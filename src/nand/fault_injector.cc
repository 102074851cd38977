#include "src/nand/fault_injector.h"

#include <algorithm>
#include <cmath>

namespace cubessd::nand {

FaultInjector::FaultInjector(const FaultParams &params,
                             const ErrorModel &errors, std::uint64_t seed)
    : params_(params), errors_(errors),
      rng_(seed ^ 0xFA171A57ED5EEDull)
{
}

double
FaultInjector::scaled(double base, double q, const AgingState &aging) const
{
    if (base <= 0.0)
        return 0.0;
    const double wear = 1.0 + params_.wearScale * errors_.severity(aging);
    const double layer = std::pow(std::max(q, 1e-9), params_.qualityExp);
    return std::min(1.0, base * layer * wear);
}

double
FaultInjector::programFailProbability(double q,
                                      const AgingState &aging) const
{
    return scaled(params_.programFailBase, q, aging);
}

double
FaultInjector::eraseFailProbability(const AgingState &aging) const
{
    return scaled(params_.eraseFailBase, 1.0, aging);
}

bool
FaultInjector::programFails(double q, const AgingState &aging)
{
    if (!params_.enabled)
        return false;
    return rng_.bernoulli(programFailProbability(q, aging));
}

bool
FaultInjector::eraseFails(const AgingState &aging)
{
    if (!params_.enabled)
        return false;
    return rng_.bernoulli(eraseFailProbability(aging));
}

bool
FaultInjector::readUncorrectable(double alignedNorm) const
{
    return params_.enabled && params_.uncorrectableNormLimit > 0.0 &&
           alignedNorm > params_.uncorrectableNormLimit;
}

}  // namespace cubessd::nand
