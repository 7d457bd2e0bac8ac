//===- tunable/ConfigPool.cpp ---------------------------------*- C++ -*-===//

#include "tunable/ConfigPool.h"

#include <utility>

using namespace alic;

ConfigPool::ConfigPool(std::vector<Config> Configs, const ParamSpace &Space,
                       const Normalizer &Norm)
    : Configs(std::move(Configs)), Rows(Space.numParams()) {
  Rows.reserveRows(this->Configs.size());
  for (const Config &C : this->Configs)
    Rows.push(Norm.transform(Space.features(C)));
}
