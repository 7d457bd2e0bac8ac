//===- stats/OnlineStats.cpp ----------------------------------*- C++ -*-===//

#include "stats/OnlineStats.h"

#include "stats/Distributions.h"

#include <algorithm>
#include <cmath>

using namespace alic;

void OnlineStats::add(double Value) {
  ++N;
  double Delta = Value - Mean;
  Mean += Delta / double(N);
  M2 += Delta * (Value - Mean);
  Min = std::min(Min, Value);
  Max = std::max(Max, Value);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::stderrOfMean() const {
  return N ? std::sqrt(variance() / double(N)) : 0.0;
}

ConfidenceInterval OnlineStats::confidenceInterval(double Confidence) const {
  if (N < 2)
    return {mean(), mean()};
  double Alpha = 1.0 - Confidence;
  double T = studentTQuantile(1.0 - 0.5 * Alpha, double(N - 1));
  double Half = T * stderrOfMean();
  return {Mean - Half, Mean + Half};
}

double OnlineStats::ciOverMean(double Confidence) const {
  if (N < 2 || Mean == 0.0)
    return std::numeric_limits<double>::infinity();
  return confidenceInterval(Confidence).halfWidth() / std::fabs(Mean);
}
