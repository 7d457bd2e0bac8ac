//===- stats/Distributions.h - Probability distributions ------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-rolled density, distribution, and quantile functions for the
/// distributions the reproduction needs: Normal (noise and leaf posteriors)
/// and Student-t (confidence intervals and dynamic-tree predictive), plus
/// logGamma for the Bayesian posteriors.  The paper's experiments lean on
/// R internals for these; we reimplement them with standard numerical
/// methods (a Lentz continued fraction for the incomplete beta, Acklam's
/// rational approximation plus a Halley polish for the normal quantile).
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_STATS_DISTRIBUTIONS_H
#define ALIC_STATS_DISTRIBUTIONS_H

namespace alic {

/// Natural log of the Gamma function (Lanczos approximation).
double logGamma(double X);

/// Regularized incomplete beta I_x(a, b).
double regularizedBeta(double X, double A, double B);

/// Standard normal density.
double normalPdf(double X);

/// Standard normal CDF.
double normalCdf(double X);

/// Standard normal quantile (inverse CDF); \p P must be in (0, 1).
double normalQuantile(double P);

/// Student-t density with \p Df degrees of freedom.
double studentTPdf(double X, double Df);

/// Student-t CDF with \p Df degrees of freedom.
double studentTCdf(double X, double Df);

/// Student-t quantile with \p Df degrees of freedom; \p P in (0, 1).
double studentTQuantile(double P, double Df);

} // namespace alic

#endif // ALIC_STATS_DISTRIBUTIONS_H
