//===- tunable/ParamSpace.h - Tunable-parameter search spaces -*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SPAPT-style tunable-parameter spaces.  Each SPAPT problem exposes a set
/// of per-loop integer parameters (unroll, cache-tile, register-tile
/// factors); a Config assigns one value to each.  The combination of
/// per-parameter ranges yields the massive spaces of Table 1 (up to
/// 1.33e27 points for dgemv3), so cardinality is exact (BigUInt) and
/// configurations are sampled rather than enumerated.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_TUNABLE_PARAMSPACE_H
#define ALIC_TUNABLE_PARAMSPACE_H

#include "support/BigUInt.h"
#include "support/Rng.h"

#include <cstdint>
#include <string>
#include <vector>

namespace alic {

/// Role a parameter plays in the optimization pipeline.
/// TransformPlan::fromConfig routes each value to its loop by this kind.
enum class ParamKind {
  Unroll,       ///< loop unroll factor
  CacheTile,    ///< cache-level tile size
  RegisterTile, ///< register-level tile factor
};

/// One tunable parameter: a named, ordered list of integer values.
class Param {
public:
  /// Creates a parameter over the inclusive range [\p Min, \p Max] with the
  /// given \p Step.
  static Param range(std::string Name, ParamKind Kind, int Min, int Max,
                     int Step = 1, int LoopIndex = -1);

  /// Creates a parameter from an explicit strictly increasing value list.
  static Param fromValues(std::string Name, ParamKind Kind,
                          std::vector<int> Values, int LoopIndex = -1);

  const std::string &name() const { return Name; }
  ParamKind kind() const { return Kind; }

  /// Index of the loop this parameter transforms (-1 if not loop-bound).
  int loopIndex() const { return LoopIndex; }

  /// Number of selectable values.
  size_t numValues() const { return Values.size(); }

  /// The \p Ordinal-th selectable value.
  int value(size_t Ordinal) const;

  /// All selectable values in ascending order.
  const std::vector<int> &values() const { return Values; }

private:
  std::string Name;
  ParamKind Kind = ParamKind::Unroll;
  int LoopIndex = -1;
  std::vector<int> Values;
};

/// A point in a parameter space, stored as per-parameter ordinals.
using Config = std::vector<uint16_t>;

/// Ordered collection of parameters defining a search space.
class ParamSpace {
public:
  ParamSpace() = default;

  /// Creates a space over \p Params (at least one).
  explicit ParamSpace(std::vector<Param> Params);

  size_t numParams() const { return Params.size(); }
  const Param &param(size_t I) const { return Params[I]; }
  const std::vector<Param> &params() const { return Params; }

  /// Exact number of points in the space.
  BigUInt cardinality() const;

  /// Actual parameter values selected by \p C.
  std::vector<int> decode(const Config &C) const;

  /// Raw feature vector (double-cast values) for model input.
  std::vector<double> features(const Config &C) const;

  /// A collision-resistant 64-bit key for \p C (for hashing/dedup).
  uint64_t key(const Config &C) const;

  /// "U_i1=4 T_i1=64 ..." rendering for logs and examples.
  std::string toString(const Config &C) const;

  /// Uniformly random configuration.
  Config sample(Rng &R) const;

  /// \p Count distinct uniformly random configurations.  When the space
  /// holds fewer than \p Count points, returns the whole space (shuffled).
  std::vector<Config> sampleDistinct(Rng &R, size_t Count) const;

  /// Enumerates the entire space in mixed-radix order; asserts that the
  /// cardinality fits in memory-friendly bounds (used for small planes
  /// such as Figure 1's 30x30 unroll grid).
  std::vector<Config> enumerateAll(size_t Limit = 1u << 20) const;

private:
  std::vector<Param> Params;
};

} // namespace alic

#endif // ALIC_TUNABLE_PARAMSPACE_H
