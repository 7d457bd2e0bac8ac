//===- tunable/ConfigPool.h - Configurations plus features ------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed pool of configurations together with their normalized feature
/// rows — the set F of Algorithm 1 in the form the surrogate models read.
/// The rows are derived once, when the pool is built, so a learner that
/// scores the pool every iteration reads row I by index instead of
/// re-deriving features and normalizing them per pick.  A pool is
/// immutable after construction: a dataset owns one, and every learner
/// and serve session on that dataset borrows it.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_TUNABLE_CONFIGPOOL_H
#define ALIC_TUNABLE_CONFIGPOOL_H

#include "support/FlatRows.h"
#include "tunable/Normalizer.h"
#include "tunable/ParamSpace.h"

#include <vector>

namespace alic {

/// Configurations and, row for row, their normalized features.
class ConfigPool {
public:
  ConfigPool() = default;

  /// Takes \p Configs (points of \p Space) and derives row I as
  /// Norm.transform(Space.features(Configs[I])).
  ConfigPool(std::vector<Config> Configs, const ParamSpace &Space,
             const Normalizer &Norm);

  size_t size() const { return Configs.size(); }
  bool empty() const { return Configs.empty(); }

  /// Configuration \p I.
  const Config &operator[](size_t I) const { return Configs[I]; }
  /// All configurations, in pool order.
  const std::vector<Config> &configs() const { return Configs; }

  /// Normalized features of configuration \p I.
  RowRef row(size_t I) const { return Rows[I]; }
  /// All rows, in configuration order.
  const FlatRows &rows() const { return Rows; }

private:
  std::vector<Config> Configs;
  FlatRows Rows;
};

} // namespace alic

#endif // ALIC_TUNABLE_CONFIGPOOL_H
