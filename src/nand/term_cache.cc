#include "src/nand/term_cache.h"

#include "src/prof/prof.h"

namespace cubessd::nand {

ErrorTermCache::ErrorTermCache(const NandGeometry &geom,
                               const ProcessModel &process,
                               const ErrorModel &errors,
                               const VthModel &vth)
    : geom_(geom),
      errors_(errors),
      vth_(vth),
      chipFactor_(process.chipFactor())
{
    aging_.resize(geom_.blocksPerChip);
    wls_.resize(static_cast<std::size_t>(geom_.blocksPerChip) *
                geom_.wlsPerBlock());
    blockDrift_.assign(geom_.blocksPerChip, -1.0);
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
    for (const WlEntry &e : wls_) {
        h.add(e.tag).add(e.q).add(e.speedMv).add(e.shiftBase);
        h.add(e.normBase);
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

    WlEntry &we = wls_[wlIndex(addr)];
    if (we.tag != tag) {
        PROF_SCOPE(prof::Slot::NandTermFill);
        ++counters_.wlMisses;
        if (we.q < 0.0) {
            // First touch of this WL: fill the aging-independent terms.
            ++counters_.staticFills;
            we.q = process.wlQuality(addr);
            we.speedMv = process.programSpeedMv(addr);
        }
        double &drift = blockDrift_[addr.block];
        if (drift < 0.0)
            drift = vth_.blockDrift(addr.block);
        we.shiftBase = vth_.shiftFromTerms(ae.shiftSevTerm, we.q, drift);
        we.normBase =
            errors_.normalizedBerFromTerms(we.q, ae.terms, chipFactor_);
        we.tag = tag;
    } else {
        ++counters_.wlHits;
    }

    WlTerms out;
    out.q = we.q;
    out.speedMv = we.speedMv;
    out.severity = ae.terms.severity;
    out.sigma = ae.sigma;
    out.shiftBase = we.shiftBase;
    out.normBase = we.normBase;
    return out;
}

}  // namespace cubessd::nand
