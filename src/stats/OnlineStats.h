//===- stats/OnlineStats.h - Streaming moments and intervals --*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Welford streaming mean/variance with min/max tracking, plus Student-t
/// confidence intervals.  Sequential analysis
/// revolves around exactly these quantities: the paper's baseline validates
/// sample counts post hoc with the 95% CI / mean ratio (Section 4.3).
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_STATS_ONLINESTATS_H
#define ALIC_STATS_ONLINESTATS_H

#include <cstdint>
#include <limits>

namespace alic {

/// Symmetric confidence interval around a sample mean.
struct ConfidenceInterval {
  double Lower = 0.0; ///< lower bound of the interval
  double Upper = 0.0; ///< upper bound of the interval

  /// Half-width of the interval.
  double halfWidth() const { return 0.5 * (Upper - Lower); }
};

/// Streaming first/second moments with numerically stable updates.
class OnlineStats {
public:
  /// Adds one observation.
  void add(double Value);

  /// Number of observations.
  uint64_t count() const { return N; }

  /// Sample mean; 0 when empty.
  double mean() const { return N ? Mean : 0.0; }

  /// Unbiased sample variance; 0 for fewer than two observations.
  double variance() const { return N > 1 ? M2 / double(N - 1) : 0.0; }

  /// Population variance (divide by n); 0 when empty.
  double populationVariance() const { return N ? M2 / double(N) : 0.0; }

  /// Sample standard deviation.
  double stddev() const;

  /// Standard error of the mean.
  double stderrOfMean() const;

  /// Smallest observation; +inf when empty.
  double min() const { return Min; }

  /// Largest observation; -inf when empty.
  double max() const { return Max; }

  /// Sum of all observations.
  double sum() const { return Mean * double(N); }

  /// Student-t confidence interval for the mean at level \p Confidence
  /// (e.g. 0.95).  Degenerates to [mean, mean] for fewer than two samples.
  ConfidenceInterval confidenceInterval(double Confidence = 0.95) const;

  /// The paper's §4.3 validation statistic: CI half-width / |mean|.
  /// Returns +inf when the mean is zero or fewer than two samples exist.
  double ciOverMean(double Confidence = 0.95) const;

private:
  uint64_t N = 0;
  double Mean = 0.0;
  double M2 = 0.0;
  double Min = std::numeric_limits<double>::infinity();
  double Max = -std::numeric_limits<double>::infinity();
};

} // namespace alic

#endif // ALIC_STATS_ONLINESTATS_H
