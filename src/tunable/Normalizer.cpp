//===- tunable/Normalizer.cpp ---------------------------------*- C++ -*-===//

#include "tunable/Normalizer.h"

#include "stats/OnlineStats.h"
#include "support/Error.h"

#include <cassert>
#include <cmath>

using namespace alic;

Normalizer Normalizer::fit(const std::vector<std::vector<double>> &Rows) {
  assert(!Rows.empty() && "cannot fit a normalizer on an empty sample");
  size_t Dims = Rows.front().size();
  std::vector<OnlineStats> Stats(Dims);
  for (const auto &Row : Rows) {
    assert(Row.size() == Dims && "ragged feature rows");
    for (size_t D = 0; D != Dims; ++D)
      Stats[D].add(Row[D]);
  }
  Normalizer N;
  N.Means.resize(Dims);
  N.Stds.resize(Dims);
  for (size_t D = 0; D != Dims; ++D) {
    N.Means[D] = Stats[D].mean();
    double Sd = Stats[D].stddev();
    N.Stds[D] = Sd > 0.0 ? Sd : 1.0;
  }
  return N;
}

Normalizer Normalizer::fromMoments(std::vector<double> Means,
                                   std::vector<double> Stds) {
  assert(Means.size() == Stds.size() && "moment vectors must match");
  for (double Sd : Stds) {
    assert(Sd > 0.0 && "standard deviations must be positive");
    (void)Sd;
  }
  Normalizer N;
  N.Means = std::move(Means);
  N.Stds = std::move(Stds);
  return N;
}

std::vector<double> Normalizer::transform(const std::vector<double> &Row) const {
  assert(Row.size() == Means.size() && "dimension mismatch");
  std::vector<double> Out(Row.size());
  for (size_t D = 0; D != Row.size(); ++D)
    Out[D] = (Row[D] - Means[D]) / Stds[D];
  return Out;
}
