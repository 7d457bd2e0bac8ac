//===- stats/Metrics.h - Model accuracy metrics ----------------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prediction-error metrics and means.  The paper's headline accuracy
/// metric is the Root Mean Squared Error of predicted vs. observed mean
/// runtimes (equation (1)).
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_STATS_METRICS_H
#define ALIC_STATS_METRICS_H

#include <cstddef>
#include <vector>

namespace alic {

/// Root mean squared error between \p Predicted and \p Actual.
double rootMeanSquaredError(const std::vector<double> &Predicted,
                            const std::vector<double> &Actual);

/// Geometric mean of strictly positive \p Values; 0 when empty.
double geometricMean(const std::vector<double> &Values);

/// Arithmetic mean; 0 when empty.
double arithmeticMean(const std::vector<double> &Values);

/// Arithmetic mean of \p Count values starting at \p Values; 0 when
/// Count is 0.  Identical summation order to the vector overload, so
/// means of a slice match means of a copy bit-for-bit.
double arithmeticMean(const double *Values, std::size_t Count);

} // namespace alic

#endif // ALIC_STATS_METRICS_H
