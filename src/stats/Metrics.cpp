//===- stats/Metrics.cpp --------------------------------------*- C++ -*-===//

#include "stats/Metrics.h"

#include "support/Error.h"

#include <cassert>
#include <cmath>

using namespace alic;

double alic::rootMeanSquaredError(const std::vector<double> &Predicted,
                                  const std::vector<double> &Actual) {
  assert(Predicted.size() == Actual.size() && !Actual.empty() &&
         "RMSE needs equally sized, non-empty vectors");
  double Sum = 0.0;
  for (size_t I = 0; I != Actual.size(); ++I) {
    double Diff = Predicted[I] - Actual[I];
    Sum += Diff * Diff;
  }
  return std::sqrt(Sum / double(Actual.size()));
}

double alic::geometricMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values) {
    assert(V > 0.0 && "geometric mean needs positive values");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / double(Values.size()));
}

double alic::arithmeticMean(const double *Values, std::size_t Count) {
  if (Count == 0)
    return 0.0;
  double Sum = 0.0;
  for (size_t I = 0; I != Count; ++I)
    Sum += Values[I];
  return Sum / double(Count);
}
