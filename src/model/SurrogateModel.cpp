//===- model/SurrogateModel.cpp -------------------------------*- C++ -*-===//

#include "model/SurrogateModel.h"

#include "support/Scheduler.h"

using namespace alic;

SurrogateModel::~SurrogateModel() = default;

void SurrogateModel::predictBatch(const FlatRows &X, size_t Count,
                                  Prediction *Out) const {
  for (size_t I = 0; I != Count; ++I)
    Out[I] = predict(X[I]);
}

std::vector<double> SurrogateModel::almScores(const FlatRows &Candidates,
                                              const ScoreContext &Ctx) const {
  std::vector<double> Scores(Candidates.size());
  shardedFor(Ctx.Pool, Candidates.size(), Ctx.ShardSize,
             [&](size_t, size_t Begin, size_t End) {
               for (size_t I = Begin; I != End; ++I)
                 Scores[I] = predict(Candidates[I]).Variance;
             });
  return Scores;
}
