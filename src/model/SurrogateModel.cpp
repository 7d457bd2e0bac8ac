//===- model/SurrogateModel.cpp -------------------------------*- C++ -*-===//

#include "model/SurrogateModel.h"

using namespace alic;

SurrogateModel::~SurrogateModel() = default;

void SurrogateModel::predictBatch(const FlatRows &X, size_t Count,
                                  Prediction *Out) const {
  for (size_t I = 0; I != Count; ++I)
    Out[I] = predict(X[I]);
}
