//===- exp/Dataset.cpp ----------------------------------------*- C++ -*-===//

#include "exp/Dataset.h"

#include "measure/NoiseModel.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Serialize.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <filesystem>

using namespace alic;

namespace {

/// Bump when the blob layout or buildDataset's sampling changes.  Version
/// 2 sealed the blob with a payload checksum.
constexpr uint32_t DatasetBlobVersion = 2;
constexpr uint32_t DatasetBlobMagic = 0x53444c41; // "ALDS"

uint64_t datasetCacheKey(const SpaptBenchmark &B, size_t NumConfigs,
                         double TrainFraction, unsigned MeanObservations,
                         uint64_t Seed) {
  uint64_t FractionBits;
  std::memcpy(&FractionBits, &TrainFraction, sizeof(FractionBits));
  uint64_t Key = hashCombine({uint64_t(NumConfigs), FractionBits,
                              uint64_t(MeanObservations), Seed,
                              uint64_t(DatasetBlobVersion)});
  for (char C : B.name())
    Key = hashCombine({Key, uint64_t(uint8_t(C))});
  return Key;
}

void writeConfigs(ByteWriter &W, const std::vector<Config> &Configs) {
  W.writeU64(Configs.size());
  for (const Config &C : Configs)
    W.writeU16s(C);
}

/// Reads configurations that must each be a point of \p Space: one
/// in-range ordinal per parameter.
bool readConfigs(ByteReader &R, const ParamSpace &Space,
                 std::vector<Config> &Configs) {
  Configs.clear();
  uint64_t Count;
  // Every serialized config costs at least its 8-byte length prefix, so
  // a corrupt count cannot exceed remaining/8 — reject it before the
  // resize rather than attempting a giant allocation.
  if (!R.readU64(Count) || Count > R.remaining() / 8)
    return false;
  Configs.resize(size_t(Count));
  for (Config &C : Configs) {
    if (!R.readU16s(C) || C.size() != Space.numParams())
      return false;
    for (size_t I = 0; I != C.size(); ++I)
      if (C[I] >= Space.param(I).numValues())
        return false;
  }
  return true;
}

void serializeDataset(const Dataset &D, ByteWriter &W) {
  std::vector<double> Means(D.Norm.numDims()), Stds(D.Norm.numDims());
  for (size_t I = 0; I != D.Norm.numDims(); ++I) {
    Means[I] = D.Norm.mean(I);
    Stds[I] = D.Norm.stddev(I);
  }
  W.writeDoubles(Means);
  W.writeDoubles(Stds);
  writeConfigs(W, D.TrainPool);
  writeConfigs(W, D.TestConfigs);
  W.writeU64(D.TestFeatures.size());
  for (const std::vector<double> &Row : D.TestFeatures)
    W.writeDoubles(Row);
  W.writeDoubles(D.TestMeans);
}

bool deserializeDataset(ByteReader &R, const ParamSpace &Space, Dataset &D) {
  size_t Dims = Space.numParams();
  std::vector<double> Means, Stds;
  if (!R.readDoubles(Means) || !R.readDoubles(Stds) || Means.size() != Dims ||
      Stds.size() != Dims)
    return false;
  for (double Sd : Stds)
    if (!(Sd > 0.0))
      return false;
  D.Norm = Normalizer::fromMoments(std::move(Means), std::move(Stds));
  if (!readConfigs(R, Space, D.TrainPool) ||
      !readConfigs(R, Space, D.TestConfigs))
    return false;
  uint64_t NumRows;
  if (!R.readU64(NumRows) || NumRows > R.remaining() / 8)
    return false;
  D.TestFeatures.clear();
  D.TestFeatures.resize(size_t(NumRows));
  for (std::vector<double> &Row : D.TestFeatures)
    if (!R.readDoubles(Row) || Row.size() != Dims)
      return false;
  if (!R.readDoubles(D.TestMeans))
    return false;
  // Cross-field sanity: the blob must describe one coherent dataset.
  return R.ok() && R.atEnd() && D.TestFeatures.size() == D.TestConfigs.size() &&
         D.TestMeans.size() == D.TestConfigs.size();
}

} // namespace

Dataset alic::buildDataset(const SpaptBenchmark &B, size_t NumConfigs,
                           double TrainFraction, unsigned MeanObservations,
                           uint64_t Seed) {
  assert(TrainFraction > 0.0 && TrainFraction < 1.0 && "bad split fraction");
  Rng R(hashCombine({Seed, 0xda7a5e7ull}));
  const ParamSpace &Space = B.space();

  std::vector<Config> All = Space.sampleDistinct(R, NumConfigs);
  size_t NumTrain = size_t(double(All.size()) * TrainFraction);

  Dataset D;
  // Features are normalized over the full profiled sample (Section 4.5).
  std::vector<std::vector<double>> RawFeatures;
  RawFeatures.reserve(All.size());
  for (const Config &C : All)
    RawFeatures.push_back(Space.features(C));
  D.Norm = Normalizer::fit(RawFeatures);

  D.TrainPool.assign(All.begin(), All.begin() + NumTrain);
  D.TestConfigs.assign(All.begin() + NumTrain, All.end());

  // Test labels: observed means over MeanObservations noisy runs, using a
  // measurement stream independent of any learner's profiler.
  D.TestFeatures.reserve(D.TestConfigs.size());
  D.TestMeans.reserve(D.TestConfigs.size());
  for (const Config &C : D.TestConfigs) {
    D.TestFeatures.push_back(D.Norm.transform(Space.features(C)));
    double Mean = B.meanRuntimeSeconds(C);
    double SigmaRel = noiseSigmaRel(B.noise(), Space, C);
    uint64_t Stream = hashCombine({Seed, Space.key(C), 0x7e57ull});
    double Sum = 0.0;
    for (unsigned O = 0; O != MeanObservations; ++O)
      Sum += drawMeasurement(B.noise(), Mean, SigmaRel, Stream, O);
    D.TestMeans.push_back(Sum / double(MeanObservations));
  }
  return D;
}

Dataset alic::loadOrBuildDataset(const SpaptBenchmark &B, size_t NumConfigs,
                                 double TrainFraction,
                                 unsigned MeanObservations, uint64_t Seed,
                                 const std::string &CacheDir) {
  if (CacheDir.empty())
    return buildDataset(B, NumConfigs, TrainFraction, MeanObservations, Seed);

  uint64_t Key =
      datasetCacheKey(B, NumConfigs, TrainFraction, MeanObservations, Seed);
  std::string Path = CacheDir + "/" + B.name() + "_" +
                     formatString("%016llx", (unsigned long long)Key) + ".alds";

  ByteReader Reader({});
  if (ByteReader::fromFile(Path, Reader)) {
    uint32_t Magic, Version;
    uint64_t StoredKey;
    Dataset Cached;
    if (Reader.verifyChecksum() && Reader.readU32(Magic) &&
        Magic == DatasetBlobMagic && Reader.readU32(Version) &&
        Version == DatasetBlobVersion && Reader.readU64(StoredKey) &&
        StoredKey == Key && deserializeDataset(Reader, B.space(), Cached))
      return Cached;
    // Stale or corrupt entry: fall through and rebuild it below.
  }

  Dataset Fresh =
      buildDataset(B, NumConfigs, TrainFraction, MeanObservations, Seed);
  std::error_code Ec;
  std::filesystem::create_directories(CacheDir, Ec);
  ByteWriter Writer;
  Writer.writeU32(DatasetBlobMagic);
  Writer.writeU32(DatasetBlobVersion);
  Writer.writeU64(Key);
  serializeDataset(Fresh, Writer);
  Writer.writeChecksum();
  // Best effort: a failed write only costs the next run a rebuild, but
  // say so — a silently unpopulated cache looks like a perf regression.
  Status St = Writer.writeFileDurable(Path);
  if (!St.ok())
    std::fprintf(stderr, "alic: dataset cache write skipped: %s (errno %d)\n",
                 St.message().c_str(), St.errnoValue());
  return Fresh;
}
