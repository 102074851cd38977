/**
 * @file
 * Error-correcting-code engine model.
 *
 * The read path only needs a correct/uncorrectable verdict against the
 * engine's correction capability, so the model is a capability
 * threshold on the raw BER with a safety derating (real controllers
 * retry well before the hard algebraic limit to keep the post-ECC
 * UBER target). A BCH-/LDPC-class code protecting 1 KiB codewords
 * with 72 correctable bits is the default, typical for 16 KiB-page
 * TLC-era controllers.
 */

#ifndef CUBESSD_ECC_ECC_H
#define CUBESSD_ECC_ECC_H

#include <cstdint>

namespace cubessd::ecc {

/** Code parameters. */
struct EccConfig
{
    std::uint32_t codewordDataBytes = 1024;
    /** LDPC-class capability; sized so the worst h-layer of a
     *  worst-quantile chip stays correctable at end-of-life wear with
     *  full retention (the vendor provisioning the paper assumes). */
    std::uint32_t correctableBits = 88;
    /** Fraction of the algebraic capability usable in practice. The
     *  default keeps the worst h-layer at end-of-life wear plus full
     *  retention just inside the correctable region, as vendors
     *  provision (the paper's defaults are set the same way, Sec.
     *  4.1.2). */
    double derating = 0.95;

    /**
     * @name Two-stage (hard/soft) decoding model
     *
     * LDPC controllers first attempt a fast hard-decision decode,
     * which only converges up to a fraction of the full capability;
     * noisier pages need the slow soft-decision decode, paying for
     * the failed hard attempt first. The paper's conclusion (Sec. 8)
     * proposes using leader-WL information to pick the right mode up
     * front; see ReadModel's softHint and `bench/ext_ps_aware_ecc`.
     * @{
     */
    /** Fraction of limitBer() the fast hard decode can handle. */
    double hardFraction = 0.55;
    /** Latency of one hard-decision decode attempt (ns). Hard LDPC
     *  decoding runs at GB/s-class throughput and is pipelined with
     *  the bus transfer, so a *successful* hard decode adds no
     *  visible latency; this constant is the exposed cost of a
     *  *failed* attempt (detected before the soft path starts). */
    std::uint64_t tHardDecodeNs = 2000;
    /** Latency of one soft-decision decode (ns, excludes the extra
     *  soft-sense the flash performs). */
    std::uint64_t tSoftDecodeNs = 15000;
    /** @} */

    bool operator==(const EccConfig &) const = default;
};

/** Capability-threshold ECC model. */
class EccModel
{
  public:
    explicit EccModel(const EccConfig &config = {});

    const EccConfig &config() const { return config_; }

    /** Raw BER above which a codeword is declared uncorrectable. */
    double limitBer() const { return limitBer_; }

    /** @return true if a page with this raw BER decodes cleanly. */
    bool correctable(double rawBer) const { return rawBer <= limitBer_; }

    /** Expected raw bit errors in one codeword at this BER. */
    double expectedErrors(double rawBer) const;

    /** Number of codewords covering a page of `pageBytes`. */
    std::uint32_t codewordsPerPage(std::uint32_t pageBytes) const;

    /** Raw BER up to which the fast hard decode converges. */
    double hardLimitBer() const { return limitBer_ * config_.hardFraction; }

    /**
     * Exposed (non-pipelined) decode latency of a page at `rawBer`.
     * A successful hard decode overlaps the bus transfer and costs
     * nothing extra; a noisy page pays the soft decode, plus the
     * failed hard attempt unless the controller was hinted.
     *
     * @param softHint controller already expects a noisy page (e.g.
     *        from the h-layer's history — the paper's Sec. 8 idea)
     *        and starts with the soft decode, skipping the doomed
     *        hard attempt.
     */
    std::uint64_t decodeLatencyNs(double rawBer, bool softHint) const;

  private:
    EccConfig config_;
    double limitBer_;
};

}  // namespace cubessd::ecc

#endif  // CUBESSD_ECC_ECC_H
