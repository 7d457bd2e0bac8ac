//===- tunable/ParamSpace.cpp ---------------------------------*- C++ -*-===//

#include "tunable/ParamSpace.h"

#include "support/Error.h"
#include "support/Format.h"

#include <cassert>
#include <unordered_set>

using namespace alic;

Param Param::range(std::string Name, ParamKind Kind, int Min, int Max,
                   int Step, int LoopIndex) {
  assert(Min <= Max && Step > 0 && "malformed parameter range");
  Param P;
  P.Name = std::move(Name);
  P.Kind = Kind;
  P.LoopIndex = LoopIndex;
  for (int V = Min; V <= Max; V += Step)
    P.Values.push_back(V);
  return P;
}

Param Param::powersOfTwo(std::string Name, ParamKind Kind, int Min, int Max,
                         int LoopIndex) {
  assert(Min > 0 && (Min & (Min - 1)) == 0 && "Min must be a power of two");
  assert(Max >= Min && (Max & (Max - 1)) == 0 && "Max must be a power of two");
  Param P;
  P.Name = std::move(Name);
  P.Kind = Kind;
  P.LoopIndex = LoopIndex;
  for (int V = Min; V <= Max; V *= 2)
    P.Values.push_back(V);
  return P;
}

Param Param::fromValues(std::string Name, ParamKind Kind,
                        std::vector<int> Values, int LoopIndex) {
  assert(!Values.empty() && "parameter needs at least one value");
  for (size_t I = 1; I < Values.size(); ++I)
    assert(Values[I - 1] < Values[I] && "values must be strictly increasing");
  Param P;
  P.Name = std::move(Name);
  P.Kind = Kind;
  P.LoopIndex = LoopIndex;
  P.Values = std::move(Values);
  return P;
}

Param Param::flag(std::string Name) {
  Param P;
  P.Name = std::move(Name);
  P.Kind = ParamKind::Binary;
  P.Values = {0, 1};
  return P;
}

int Param::value(size_t Ordinal) const {
  assert(Ordinal < Values.size() && "parameter ordinal out of range");
  return Values[Ordinal];
}

ParamSpace::ParamSpace(std::vector<Param> Params) : Params(std::move(Params)) {
  assert(!this->Params.empty() && "a space needs at least one parameter");
  for ([[maybe_unused]] const Param &P : this->Params) {
    assert(P.numValues() >= 1 && "parameter with no values");
    assert(P.numValues() <= 65535 && "ordinal must fit in uint16_t");
  }
}

BigUInt ParamSpace::cardinality() const {
  BigUInt Total(1);
  for (const Param &P : Params)
    Total.mulScalar(static_cast<uint32_t>(P.numValues()));
  return Total;
}

std::vector<int> ParamSpace::decode(const Config &C) const {
  assert(C.size() == Params.size() && "config arity mismatch");
  std::vector<int> Values(C.size());
  for (size_t I = 0; I != C.size(); ++I)
    Values[I] = Params[I].value(C[I]);
  return Values;
}

std::vector<double> ParamSpace::features(const Config &C) const {
  assert(C.size() == Params.size() && "config arity mismatch");
  std::vector<double> Values(C.size());
  for (size_t I = 0; I != C.size(); ++I)
    Values[I] = static_cast<double>(Params[I].value(C[I]));
  return Values;
}

uint64_t ParamSpace::key(const Config &C) const {
  assert(C.size() == Params.size() && "config arity mismatch");
  uint64_t State = 0x6a09e667f3bcc908ull;
  for (uint16_t Ord : C) {
    State ^= Ord + 0x9e3779b97f4a7c15ull + (State << 6) + (State >> 2);
    State = splitMix64(State);
  }
  return State;
}

std::string ParamSpace::toString(const Config &C) const {
  std::vector<std::string> Parts;
  Parts.reserve(C.size());
  for (size_t I = 0; I != C.size(); ++I)
    Parts.push_back(
        formatString("%s=%d", Params[I].name().c_str(), Params[I].value(C[I])));
  return joinStrings(Parts, " ");
}

Config ParamSpace::sample(Rng &R) const {
  Config C(Params.size());
  for (size_t I = 0; I != Params.size(); ++I)
    C[I] = static_cast<uint16_t>(R.nextBounded(Params[I].numValues()));
  return C;
}

std::vector<Config> ParamSpace::sampleDistinct(Rng &R, size_t Count) const {
  BigUInt Card = cardinality();
  // Tiny spaces: enumerate, shuffle, truncate — avoids rejection stalls.
  if (Card <= BigUInt(4 * static_cast<uint64_t>(Count) + 64) &&
      Card <= BigUInt(1u << 20)) {
    std::vector<Config> All = enumerateAll();
    R.shuffle(All);
    if (All.size() > Count)
      All.resize(Count);
    return All;
  }
  std::vector<Config> Result;
  Result.reserve(Count);
  std::unordered_set<uint64_t> Seen;
  Seen.reserve(Count * 2);
  size_t Attempts = 0;
  const size_t MaxAttempts = Count * 64 + 1024;
  while (Result.size() < Count && Attempts < MaxAttempts) {
    ++Attempts;
    Config C = sample(R);
    if (Seen.insert(key(C)).second)
      Result.push_back(std::move(C));
  }
  assert(Result.size() == Count && "rejection sampling failed to converge");
  return Result;
}

std::vector<Config>
ParamSpace::enumerateAll([[maybe_unused]] size_t Limit) const {
  BigUInt Card = cardinality();
  assert(Card <= BigUInt(static_cast<uint64_t>(Limit)) &&
         "space too large to enumerate");
  size_t Total = static_cast<size_t>(Card.toU64());
  std::vector<Config> Result;
  Result.reserve(Total);
  Config Current(Params.size(), 0);
  for (size_t I = 0; I != Total; ++I) {
    Result.push_back(Current);
    // Increment mixed-radix counter, last parameter fastest.
    for (size_t D = Params.size(); D-- > 0;) {
      if (++Current[D] < Params[D].numValues())
        break;
      Current[D] = 0;
    }
  }
  return Result;
}

Config ParamSpace::configAtIndex(BigUInt Index) const {
  assert(Index < cardinality() && "index beyond space cardinality");
  Config C(Params.size(), 0);
  for (size_t D = Params.size(); D-- > 0;) {
    uint32_t Radix = static_cast<uint32_t>(Params[D].numValues());
    C[D] = static_cast<uint16_t>(Index.divModScalar(Radix));
  }
  return C;
}
