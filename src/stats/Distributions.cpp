//===- stats/Distributions.cpp --------------------------------*- C++ -*-===//

#include "stats/Distributions.h"

#include "support/Error.h"

#include <cassert>
#include <cmath>

using namespace alic;

double alic::logGamma(double X) {
  assert(X > 0.0 && "logGamma domain is positive reals");
  // Lanczos approximation, g = 7, 9 coefficients.
  static const double Coeffs[9] = {
      0.99999999999980993,  676.5203681218851,     -1259.1392167224028,
      771.32342877765313,   -176.61502916214059,   12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (X < 0.5) {
    // Reflection formula keeps the series in its accurate range.
    return std::log(M_PI / std::sin(M_PI * X)) - logGamma(1.0 - X);
  }
  double Z = X - 1.0;
  double Sum = Coeffs[0];
  for (int I = 1; I != 9; ++I)
    Sum += Coeffs[I] / (Z + I);
  double T = Z + 7.5;
  return 0.5 * std::log(2.0 * M_PI) + (Z + 0.5) * std::log(T) - T +
         std::log(Sum);
}

/// Continued fraction for the regularized incomplete beta (Lentz).
static double betaContinuedFraction(double X, double A, double B) {
  const double Tiny = 1e-300;
  double Qab = A + B;
  double Qap = A + 1.0;
  double Qam = A - 1.0;
  double C = 1.0;
  double D = 1.0 - Qab * X / Qap;
  if (std::fabs(D) < Tiny)
    D = Tiny;
  D = 1.0 / D;
  double H = D;
  for (int M = 1; M != 300; ++M) {
    int M2 = 2 * M;
    double Aa = M * (B - M) * X / ((Qam + M2) * (A + M2));
    D = 1.0 + Aa * D;
    if (std::fabs(D) < Tiny)
      D = Tiny;
    C = 1.0 + Aa / C;
    if (std::fabs(C) < Tiny)
      C = Tiny;
    D = 1.0 / D;
    H *= D * C;
    Aa = -(A + M) * (Qab + M) * X / ((A + M2) * (Qap + M2));
    D = 1.0 + Aa * D;
    if (std::fabs(D) < Tiny)
      D = Tiny;
    C = 1.0 + Aa / C;
    if (std::fabs(C) < Tiny)
      C = Tiny;
    D = 1.0 / D;
    double Delta = D * C;
    H *= Delta;
    if (std::fabs(Delta - 1.0) < 1e-15)
      break;
  }
  return H;
}

double alic::regularizedBeta(double X, double A, double B) {
  assert(A > 0.0 && B > 0.0 && "beta parameters must be positive");
  if (X <= 0.0)
    return 0.0;
  if (X >= 1.0)
    return 1.0;
  double LogBeta = logGamma(A + B) - logGamma(A) - logGamma(B) +
                   A * std::log(X) + B * std::log(1.0 - X);
  double Front = std::exp(LogBeta);
  // Use the symmetry relation to stay in the fast-converging region.
  if (X < (A + 1.0) / (A + B + 2.0))
    return Front * betaContinuedFraction(X, A, B) / A;
  return 1.0 - Front * betaContinuedFraction(1.0 - X, B, A) / B;
}

double alic::normalPdf(double X) {
  return std::exp(-0.5 * X * X) / std::sqrt(2.0 * M_PI);
}

double alic::normalCdf(double X) { return 0.5 * std::erfc(-X * M_SQRT1_2); }

double alic::normalQuantile(double P) {
  assert(P > 0.0 && P < 1.0 && "quantile domain is (0, 1)");
  // Acklam's rational approximation...
  static const double A[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                              -2.759285104469687e+02, 1.383577518672690e+02,
                              -3.066479806614716e+01, 2.506628277459239e+00};
  static const double B[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                              -1.556989798598866e+02, 6.680131188771972e+01,
                              -1.328068155288572e+01};
  static const double C[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                              -2.400758277161838e+00, -2.549732539343734e+00,
                              4.374664141464968e+00,  2.938163982698783e+00};
  static const double D[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                              2.445134137142996e+00, 3.754408661907416e+00};
  const double PLow = 0.02425;
  double X;
  if (P < PLow) {
    double Q = std::sqrt(-2.0 * std::log(P));
    X = (((((C[0] * Q + C[1]) * Q + C[2]) * Q + C[3]) * Q + C[4]) * Q + C[5]) /
        ((((D[0] * Q + D[1]) * Q + D[2]) * Q + D[3]) * Q + 1.0);
  } else if (P <= 1.0 - PLow) {
    double Q = P - 0.5;
    double R = Q * Q;
    X = (((((A[0] * R + A[1]) * R + A[2]) * R + A[3]) * R + A[4]) * R + A[5]) *
        Q /
        (((((B[0] * R + B[1]) * R + B[2]) * R + B[3]) * R + B[4]) * R + 1.0);
  } else {
    double Q = std::sqrt(-2.0 * std::log(1.0 - P));
    X = -(((((C[0] * Q + C[1]) * Q + C[2]) * Q + C[3]) * Q + C[4]) * Q + C[5]) /
        ((((D[0] * Q + D[1]) * Q + D[2]) * Q + D[3]) * Q + 1.0);
  }
  // ...polished by one Halley step against the exact CDF.
  double E = normalCdf(X) - P;
  double U = E * std::sqrt(2.0 * M_PI) * std::exp(0.5 * X * X);
  return X - U / (1.0 + 0.5 * X * U);
}

double alic::studentTPdf(double X, double Df) {
  assert(Df > 0.0 && "degrees of freedom must be positive");
  double LogC = logGamma(0.5 * (Df + 1.0)) - logGamma(0.5 * Df) -
                0.5 * std::log(Df * M_PI);
  return std::exp(LogC - 0.5 * (Df + 1.0) * std::log1p(X * X / Df));
}

double alic::studentTCdf(double X, double Df) {
  assert(Df > 0.0 && "degrees of freedom must be positive");
  if (X == 0.0)
    return 0.5;
  double Z = Df / (Df + X * X);
  double Tail = 0.5 * regularizedBeta(Z, 0.5 * Df, 0.5);
  return X > 0.0 ? 1.0 - Tail : Tail;
}

double alic::studentTQuantile(double P, double Df) {
  assert(P > 0.0 && P < 1.0 && "quantile domain is (0, 1)");
  assert(Df > 0.0 && "degrees of freedom must be positive");
  if (P == 0.5)
    return 0.0;
  // Newton from the normal quantile; the t CDF is smooth and monotone.
  double X = normalQuantile(P);
  if (Df <= 2.0)
    X *= 2.0; // heavy tails: start wider to avoid slow creep
  for (int I = 0; I != 60; ++I) {
    double F = studentTCdf(X, Df) - P;
    double G = studentTPdf(X, Df);
    if (G <= 0.0)
      break;
    double Step = F / G;
    // Damp steps to stay stable in the extreme tails of low-df t.
    if (Step > 2.0)
      Step = 2.0;
    if (Step < -2.0)
      Step = -2.0;
    X -= Step;
    if (std::fabs(Step) < 1e-12 * (1.0 + std::fabs(X)))
      break;
  }
  return X;
}
