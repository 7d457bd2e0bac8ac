//===- serve/Wire.cpp -----------------------------------------*- C++ -*-===//

#include "serve/Wire.h"

#include "exp/Campaign.h"
#include "serve/ServeEngine.h"
#include "support/Json.h"

#include <limits>

using namespace alic;

namespace {

std::string errorReply(const std::string &Message) {
  return "{\"ok\":false,\"error\":\"" + jsonEscape(Message) + "\"}";
}

const char *phaseToken(SuggestPhase Phase) {
  switch (Phase) {
  case SuggestPhase::Explore:
    return "explore";
  case SuggestPhase::Refine:
    return "refine";
  case SuggestPhase::Skip:
    return "skip";
  case SuggestPhase::Done:
    return "done";
  }
  return "done";
}

/// Reads an optional field; true when absent (keeping the default) or
/// present with the right type, false on a type/value error.
bool optionalString(const JsonValue &Obj, const char *Name, std::string &Out,
                    std::string &Err) {
  const JsonValue *F = Obj.field(Name);
  if (!F)
    return true;
  if (F->K != JsonValue::Kind::String) {
    Err = std::string("field '") + Name + "' must be a string";
    return false;
  }
  Out = F->Str;
  return true;
}

/// Reads an optional integer field in [0, \p Max]; true when absent
/// (keeping the default) or valid.  A negative, fractional or out-of-range
/// number is an error, never a cast.
bool optionalCount(const JsonValue &Obj, const char *Name, uint64_t Max,
                   uint64_t &Out, std::string &Err) {
  const JsonValue *F = Obj.field(Name);
  if (!F)
    return true;
  if (F->K != JsonValue::Kind::Number || !jsonCount(F->Number, Max, Out)) {
    Err = std::string("field '") + Name + "' must be an integer in [0, " +
          std::to_string(Max) + "]";
    return false;
  }
  return true;
}

/// Reads an optional token field through \p Table (an absent or empty
/// field keeps the default).
template <typename KindT, size_t N>
bool optionalToken(const JsonValue &Obj, const char *Name,
                   const TokenRow<KindT> (&Table)[N], KindT &Out,
                   std::string &Err) {
  std::string Text;
  if (!optionalString(Obj, Name, Text, Err))
    return false;
  if (Text.empty() || parseToken(Table, Text, Out))
    return true;
  Err = "unknown " + std::string(Name) + " '" + Text + "' (want " +
        tokenList(Table, "|") + ")";
  return false;
}

/// Parses the optional `spec` object of an `open` request into \p Spec
/// (fields missing from the wire keep their SessionSpec defaults).
bool parseSpec(const JsonValue &Root, SessionSpec &Spec, std::string &Err) {
  const JsonValue *S = Root.field("spec");
  if (!S)
    return true;
  if (S->K != JsonValue::Kind::Object) {
    Err = "field 'spec' must be an object";
    return false;
  }
  if (!optionalString(*S, "benchmark", Spec.Benchmark, Err) ||
      !optionalToken(*S, "model", ModelTokens, Spec.Model, Err) ||
      !optionalToken(*S, "scorer", ScorerTokens, Spec.Scorer, Err))
    return false;

  // Plans travel in the campaign ledger's token form: "seq:<cap>" or
  // "fixed:<observations>".
  std::string Plan;
  if (!optionalString(*S, "plan", Plan, Err))
    return false;
  if (!Plan.empty() && !parsePlanToken(Plan, Spec.Plan)) {
    Err = "unknown plan '" + Plan + "' (want seq:<cap>|fixed:<obs>, a " +
          "positive 32-bit count)";
    return false;
  }

  // Query policies travel in their campaign token form: "always",
  // "alm[:abs[:rel]]", or "cost[:c0[:c1]]" (core/QueryPolicy.h).
  std::string Policy;
  if (!optionalString(*S, "policy", Policy, Err))
    return false;
  if (!Policy.empty() && !parseQueryPolicy(Policy, Spec.Query)) {
    Err = "unknown policy '" + Policy + "' (want always|alm[:abs[:rel]]|" +
          "cost[:c0[:c1]])";
    return false;
  }

  const uint64_t MaxUnsigned = std::numeric_limits<unsigned>::max();
  const uint64_t MaxU64 = std::numeric_limits<uint64_t>::max();
  uint64_t Batch = Spec.BatchSize;
  uint64_t MaxExamples = Spec.Scale.MaxTrainingExamples;
  if (!optionalCount(*S, "batch", MaxUnsigned, Batch, Err) ||
      !optionalCount(*S, "seed", MaxU64, Spec.Seed, Err) ||
      !optionalCount(*S, "dataset_seed", MaxU64, Spec.DatasetSeed, Err) ||
      !optionalCount(*S, "max_examples", MaxUnsigned, MaxExamples, Err))
    return false;
  if (Batch == 0 || MaxExamples == 0) {
    Err = std::string("field '") + (Batch ? "max_examples" : "batch") +
          "' must be positive";
    return false;
  }
  Spec.BatchSize = unsigned(Batch);
  Spec.Scale.MaxTrainingExamples = unsigned(MaxExamples);
  return true;
}

void appendConfigArray(std::string &Reply, const std::vector<Config> &Configs) {
  for (size_t I = 0; I != Configs.size(); ++I) {
    if (I)
      Reply += ",";
    Reply += "[";
    for (size_t J = 0; J != Configs[I].size(); ++J) {
      if (J)
        Reply += ",";
      Reply += std::to_string(Configs[I][J]);
    }
    Reply += "]";
  }
}

std::string suggestionReply(const Suggestion &S) {
  std::string Reply = "{\"ok\":true,\"phase\":\"";
  Reply += phaseToken(S.Phase);
  Reply += "\",\"ticket\":" + std::to_string(S.Ticket);
  Reply +=
      ",\"observations_per_config\":" + std::to_string(S.ObservationsPerConfig);
  Reply += ",\"configs\":[";
  appendConfigArray(Reply, S.Configs);
  // Declined picks ride along so clients can see (and log) every skip
  // decision; they must not be measured, and costs pair with "configs"
  // only.  Always empty under the default Always policy.
  Reply += "],\"skipped\":[";
  appendConfigArray(Reply, S.Skipped);
  Reply += "]}";
  return Reply;
}

} // namespace

bool alic::handleRequestLine(ServeEngine &Engine, const std::string &Line,
                             std::string &Reply) {
  JsonValue Root;
  if (!parseJson(Line.c_str(), Root) || Root.K != JsonValue::Kind::Object) {
    Reply = errorReply("malformed request (want one JSON object per line)");
    return false;
  }
  std::string Op;
  if (!jsonStringField(Root, "op", Op)) {
    Reply = errorReply("missing string field 'op'");
    return false;
  }

  if (Op == "ping") {
    Reply = "{\"ok\":true,\"sessions\":" +
            std::to_string(Engine.sessionCount()) + "}";
    return false;
  }
  if (Op == "shutdown") {
    Reply = "{\"ok\":true,\"bye\":true}";
    return true;
  }

  std::string Id;
  if (!jsonStringField(Root, "session", Id)) {
    Reply = errorReply("missing string field 'session'");
    return false;
  }
  std::string Err;

  if (Op == "open") {
    SessionSpec Spec;
    if (!parseSpec(Root, Spec, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    if (!Engine.openSession(Id, Spec, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    Reply = "{\"ok\":true,\"session\":\"" + jsonEscape(Id) + "\"}";
    return false;
  }

  if (Op == "suggest") {
    Suggestion S;
    if (!Engine.suggest(Id, S, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    Reply = suggestionReply(S);
    return false;
  }

  if (Op == "observe") {
    double TicketNumber = -1.0;
    uint64_t Ticket = 0;
    if (!jsonNumberField(Root, "ticket", TicketNumber) ||
        !jsonCount(TicketNumber, std::numeric_limits<uint64_t>::max(),
                   Ticket)) {
      Reply = errorReply("field 'ticket' must be a non-negative integer");
      return false;
    }
    const JsonValue *CostsField = Root.field("costs");
    if (!CostsField || CostsField->K != JsonValue::Kind::Array) {
      Reply = errorReply("missing array field 'costs'");
      return false;
    }
    std::vector<double> Costs;
    Costs.reserve(CostsField->Items.size());
    for (const JsonValue &Item : CostsField->Items) {
      if (Item.K != JsonValue::Kind::Number) {
        Reply = errorReply("field 'costs' must hold numbers only");
        return false;
      }
      Costs.push_back(Item.Number);
    }
    if (!Engine.observe(Id, Ticket, Costs, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    SessionInfo Info;
    size_t Observes = Engine.sessionInfo(Id, Info, Err) ? Info.Observes : 0;
    Reply = "{\"ok\":true,\"observes\":" + std::to_string(Observes) + "}";
    return false;
  }

  if (Op == "info") {
    SessionInfo Info;
    if (!Engine.sessionInfo(Id, Info, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    Reply = "{\"ok\":true,\"phase\":\"";
    Reply += phaseToken(Info.Phase);
    Reply += "\",\"iterations\":" + std::to_string(Info.Stats.Iterations);
    Reply += ",\"distinct\":" + std::to_string(Info.Stats.DistinctExamples);
    Reply += ",\"revisits\":" + std::to_string(Info.Stats.Revisits);
    Reply += ",\"observations\":" + std::to_string(Info.Stats.Observations);
    // queries + skips = refine picks consumed (iterations): how many the
    // query policy labelled vs declined.
    Reply += ",\"queries\":" +
             std::to_string(Info.Stats.Iterations - Info.Stats.Skips);
    Reply += ",\"skips\":" + std::to_string(Info.Stats.Skips);
    Reply += ",\"observes\":" + std::to_string(Info.Observes);
    Reply += ",\"total_cost_seconds\":" + formatJsonDouble(Info.TotalCostSeconds);
    Reply += std::string(",\"done\":") + (Info.Done ? "true" : "false");
    Reply += "}";
    return false;
  }

  if (Op == "eval") {
    double Rmse = 0.0;
    if (!Engine.evaluate(Id, Rmse, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    Reply = "{\"ok\":true,\"rmse\":" + formatJsonDouble(Rmse) + "}";
    return false;
  }

  if (Op == "close") {
    if (!Engine.closeSession(Id)) {
      Reply = errorReply("unknown session '" + Id + "'");
      return false;
    }
    Reply = "{\"ok\":true}";
    return false;
  }

  Reply = errorReply("unknown op '" + Op + "'");
  return false;
}
