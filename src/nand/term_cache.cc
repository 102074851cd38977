#include "src/nand/term_cache.h"

#include "src/prof/prof.h"

namespace cubessd::nand {

ErrorTermCache::ErrorTermCache(const NandGeometry &geom,
                               const ProcessModel &process,
                               const ErrorModel &errors,
                               const VthModel &vth)
    : errors_(errors),
      vth_(vth),
      chipFactor_(process.chipFactor())
{
    aging_.resize(geom.blocksPerChip);
    blockDrift_.resize(geom.blocksPerChip);
    for (std::uint32_t b = 0; b < geom.blocksPerChip; ++b)
        blockDrift_[b] = vth_.blockDrift(b);
}

void
ErrorTermCache::hashState(StateHash &h) const
{
    h.add(chipFactor_).add(retentionGen_);
    for (const AgingEntry &e : aging_) {
        h.add(e.tag).add(e.terms.severity).add(e.terms.peGrowth);
        h.add(e.terms.retGrowth).add(e.terms.exponent);
        h.add(e.shiftSevTerm).add(e.sigma);
    }
    h.add(blockDrift_).add(counters_);
}

WlTerms
ErrorTermCache::terms(const WlAddr &addr, PeCycles eraseCount,
                      const AgingState &aging, const ProcessModel &process,
                      const IsppEngine &ispp)
{
    const std::uint64_t tag = epochOf(eraseCount) + 1;

    AgingEntry &ae = aging_[addr.block];
    if (ae.tag != tag) {
        PROF_SCOPE(prof::Slot::NandTermFill);
        ++counters_.agingMisses;
        ae.terms = errors_.terms(aging);
        ae.shiftSevTerm = vth_.shiftSevTerm(ae.terms.severity);
        ae.sigma = ispp.effectiveSigma(ae.terms.severity);
        ae.tag = tag;
    } else {
        ++counters_.agingHits;
    }

    // The WL terms are an address hash and one pow: evaluated per call.
    WlTerms out;
    out.q = process.wlQuality(addr);
    out.severity = ae.terms.severity;
    out.sigma = ae.sigma;
    out.shiftBase = vth_.shiftFromTerms(ae.shiftSevTerm, out.q,
                                        blockDrift_[addr.block]);
    out.normBase =
        errors_.normalizedBerFromTerms(out.q, ae.terms, chipFactor_);
    return out;
}

}  // namespace cubessd::nand
