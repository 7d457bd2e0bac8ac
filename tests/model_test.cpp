//===- tests/model_test.cpp - surrogate model comparison tests -*- C++ -*-===//

#include "dynatree/DynaTree.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace alic;

namespace {

/// The 1-nearest-neighbour baseline: the training target closest to \p V.
double nearestNeighbour(const std::vector<std::vector<double>> &X,
                        const std::vector<double> &Y, double V) {
  size_t Best = 0;
  for (size_t I = 1; I != X.size(); ++I)
    if (std::fabs(X[I][0] - V) < std::fabs(X[Best][0] - V))
      Best = I;
  return Y[Best];
}

} // namespace

TEST(ModelComparisonTest, DynaTreeBeatsKnnOnStructuredNoise) {
  // On a heteroskedastic step function with many samples, the Bayesian
  // tree's pooled leaves average noise away; 1-NN chases it.
  Rng R(21);
  auto Fn = [](double X) { return X < 0.0 ? 1.0 : 4.0; };
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  for (int I = 0; I != 400; ++I) {
    double V = R.nextUniform(-1, 1);
    X.push_back({V});
    Y.push_back(Fn(V) + 0.4 * R.nextGaussian());
  }
  DynaTreeConfig C;
  C.NumParticles = 150;
  DynaTree Tree(C);
  Tree.fit(X, Y);

  double TreeSe = 0.0, KnnSe = 0.0;
  for (int I = 0; I != 200; ++I) {
    double V = R.nextUniform(-0.9, 0.9);
    double T = Fn(V);
    TreeSe += std::pow(Tree.predict({V}).Mean - T, 2);
    KnnSe += std::pow(nearestNeighbour(X, Y, V) - T, 2);
  }
  EXPECT_LT(TreeSe, KnnSe);
}
