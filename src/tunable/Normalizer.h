//===- tunable/Normalizer.h - Feature scaling and centring ----*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Z-score feature normalization.  Section 4.5 of the paper: "The feature
/// values of each data point ... were all normalized through scaling and
/// centring to transform them into something similar to the Standard
/// Normal Distribution."
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_TUNABLE_NORMALIZER_H
#define ALIC_TUNABLE_NORMALIZER_H

#include <cstddef>
#include <vector>

namespace alic {

/// Per-dimension scale-and-centre transform fit on a reference sample.
class Normalizer {
public:
  Normalizer() = default;

  /// Fits means and standard deviations on \p Rows (all equal length).
  /// Dimensions with zero variance map to zero.
  static Normalizer fit(const std::vector<std::vector<double>> &Rows);

  /// Rebuilds a normalizer from previously fitted moments (deserialization
  /// of cached datasets).  \p Means and \p Stds must be equal length and
  /// every standard deviation positive.
  static Normalizer fromMoments(std::vector<double> Means,
                                std::vector<double> Stds);

  /// Transforms one feature vector.
  std::vector<double> transform(const std::vector<double> &Row) const;

  /// Number of fitted dimensions (0 before fit).
  size_t numDims() const { return Means.size(); }

  double mean(size_t Dim) const { return Means[Dim]; }
  double stddev(size_t Dim) const { return Stds[Dim]; }

private:
  std::vector<double> Means;
  std::vector<double> Stds;
};

} // namespace alic

#endif // ALIC_TUNABLE_NORMALIZER_H
