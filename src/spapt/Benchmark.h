//===- spapt/Benchmark.h - One SPAPT search problem ------------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Couples one kernel, its tunable space, the analytic machine model, and
/// a calibrated noise profile into the WorkloadOracle the learners drive.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SPAPT_BENCHMARK_H
#define ALIC_SPAPT_BENCHMARK_H

#include "machine/CostModel.h"
#include "measure/Profiler.h"
#include "spapt/Kernels.h"

#include <memory>
#include <string>

namespace alic {

/// One SPAPT search problem, usable as a measurement oracle.
class SpaptBenchmark : public WorkloadOracle {
public:
  /// \p RuntimeCalibration rescales the model's runtime so baseline
  /// configurations land at magnitudes comparable to the paper's reported
  /// error/runtime scales.
  SpaptBenchmark(KernelBundle Bundle, NoiseProfile Noise,
                 double RuntimeCalibration = 1.0,
                 MachineDesc Machine = MachineDesc::i7Haswell());

  const std::string &name() const { return K.name(); }
  const Kernel &kernel() const { return K; }
  const CostModel &costModel() const { return Model; }

  // WorkloadOracle interface.
  const ParamSpace &space() const override { return Space; }
  double meanRuntimeSeconds(const Config &C) const override;
  double compileSeconds(const Config &C) const override;
  const NoiseProfile &noise() const override { return Noise; }

  /// The configuration with every factor = 1 (plain -O2 baseline).
  Config baselineConfig() const;

private:
  Kernel K;
  ParamSpace Space;
  NoiseProfile Noise;
  double RuntimeCalibration;
  CostModel Model;
};

} // namespace alic

#endif // ALIC_SPAPT_BENCHMARK_H
