/**
 * @file
 * Zipfian integer distribution for workload locality modelling.
 *
 * YCSB-style workloads address a keyspace with Zipf-distributed popularity;
 * the Filebench-like generators reuse it for hot/cold file access skew.
 */

#ifndef CUBESSD_COMMON_ZIPF_H
#define CUBESSD_COMMON_ZIPF_H

#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace cubessd {

/**
 * Samples integers in [0, n) with probability proportional to
 * 1 / (rank+1)^theta.
 *
 * Uses the Gray/Jim-Gray "quick zipf" approximation (as in YCSB's
 * ZipfianGenerator): O(1) per sample after O(1) setup, accurate for the
 * skew range we use (theta in [0.5, 1.2]).
 */
class ZipfGenerator
{
  public:
    /**
     * @param n      keyspace size (> 0)
     * @param theta  skew; 0 = uniform-ish, 0.99 = YCSB default
     */
    ZipfGenerator(std::uint64_t n, double theta);

    /** @return a Zipf-distributed value in [0, n). */
    std::uint64_t sample(Rng &rng) const;

    std::uint64_t size() const { return n_; }
    double theta() const { return theta_; }

  private:
    /** zetaSum, memoised process-wide (thread-safe). */
    static double zeta(std::uint64_t n, double theta);
    static double zetaSum(std::uint64_t n, double theta);

    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
};

}  // namespace cubessd

#endif  // CUBESSD_COMMON_ZIPF_H
