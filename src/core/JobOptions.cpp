//===- core/JobOptions.cpp ------------------------------------------------===//

#include "core/JobOptions.h"

#include "core/Session.h"

#include <algorithm>
#include <charconv>

using namespace algoprof;
using namespace algoprof::prof;

namespace {

bool parseIntList(const std::string &S, std::vector<int64_t> &Out) {
  std::vector<int64_t> V;
  for (size_t Pos = 0; !S.empty();) {
    size_t Comma = std::min(S.find(',', Pos), S.size());
    if (!parseInteger(std::string_view(S).substr(Pos, Comma - Pos),
                      V.emplace_back()))
      return false;
    if (Comma == S.size())
      break;
    Pos = Comma + 1;
  }
  Out = std::move(V);
  return true;
}

std::string joinInts(const std::vector<int64_t> &V) {
  std::string S;
  for (int64_t X : V)
    S += (S.empty() ? "" : ",") + std::to_string(X);
  return S;
}

bool setName(const std::string &V, std::string &Out) {
  if (V.empty())
    return false;
  Out = V;
  return true;
}

constexpr const char *IntList = "a comma-separated list of 64-bit integers";

// One row per key, in payload order. Generic lambdas convert to the
// rows' function-pointer types.
constexpr JobKey Keys[] = {
    {.Flag = "--entry", .Metavar = "Class.method", .Help = "entry point",
     .Default = "Main.main",
     .Values = "Class.method with a non-empty class and method",
     .Parse = [](auto &, auto &V, auto &O, auto &) {
       size_t Dot = V.find('.');
       if (Dot == 0 || Dot == std::string::npos || Dot + 1 == V.size())
         return false;
       O.EntryClass = V.substr(0, Dot);
       O.EntryMethod = V.substr(Dot + 1);
       return true;
     },
     .Render = [](auto &O) { return O.EntryClass + "." + O.EntryMethod; }},
    {.Wire = "entry-class", .Default = "Main",
     .Values = "a non-empty class name",
     .Parse = [](auto &, auto &V, auto &O,
                 auto &) { return setName(V, O.EntryClass); },
     .Render = [](auto &O) { return O.EntryClass; }},
    {.Wire = "entry-method", .Default = "main",
     .Values = "a non-empty method name",
     .Parse = [](auto &, auto &V, auto &O,
                 auto &) { return setName(V, O.EntryMethod); },
     .Render = [](auto &O) { return O.EntryMethod; }},
    {.Wire = "seeds", .Flag = "--seeds", .Metavar = "v1,v2,...",
     .Help = "one run per seed, the seed its sole input (wins over --runs)",
     .Values = IntList,
     .Parse = [](auto &, auto &V, auto &O,
                 auto &) { return parseIntList(V, O.Seeds); },
     .Render = [](auto &O) { return joinInts(O.Seeds); }},
    {.Wire = "runs", .Flag = "--runs", .Help = "unseeded run count",
     .Default = "1", .Min = 1, .Max = 1'000'000'000,
     .Parse = [](auto &K, auto &V, auto &O,
                 auto &) { return parseInteger(V, K.Min, K.Max, O.Runs); },
     .Render = [](auto &O) { return std::to_string(O.Runs); }},
    {.Wire = "input", .Flag = "--input", .Metavar = "v1,v2,...",
     .Help = "input channel of every unseeded run", .Values = IntList,
     .Parse = [](auto &, auto &V, auto &O,
                 auto &) { return parseIntList(V, O.Input); },
     .Render = [](auto &O) { return joinInts(O.Input); }},
    {.Wire = "policy", .Flag = "--policy", .Metavar = "P",
     .Help = "per-run failure policy (docs/resilience.md)",
     .Default = "fail", .Values = "fail|skip|retry",
     .Parse = [](auto &, auto &V, auto &O,
                 auto &) { return resilience::parseFailurePolicy(V, O.Policy); },
     .Render = [](auto &O) {
       return std::string(resilience::failurePolicyName(O.Policy));
     }},
    {.Wire = "retries", .Flag = "--retries",
     .Help = "extra attempts per failed run under --policy retry",
     .Default = "2", .Min = 0, .Max = 1000,
     .Parse = [](auto &K, auto &V, auto &O, auto &) {
       int N = 0;
       if (!parseInteger(V, K.Min, K.Max, N))
         return false;
       O.MaxAttempts = N + 1;
       return true;
     },
     .Render = [](auto &O) { return std::to_string(O.MaxAttempts - 1); }},
    {.Wire = "max-heap-bytes", .Flag = "--max-heap-bytes",
     .Help = "per-run heap-byte budget, 0 = off", .Default = "0", .Min = 0,
     .Max = MaxInt64,
     .Parse = [](auto &K, auto &V, auto &O, auto &) {
       return parseInteger(V, K.Min, K.Max, O.MaxHeapBytes);
     },
     .Render = [](auto &O) { return std::to_string(O.MaxHeapBytes); }},
    {.Wire = "deadline-ms", .Flag = "--deadline-ms",
     .Help = "per-run wall-clock deadline, 0 = off", .Default = "0",
     .Min = 0, .Max = MaxInt64,
     .Parse = [](auto &K, auto &V, auto &O, auto &) {
       return parseInteger(V, K.Min, K.Max, O.RunDeadlineMs);
     },
     .Render = [](auto &O) { return std::to_string(O.RunDeadlineMs); }},
    {.Wire = "inject", .Flag = "--inject", .Metavar = "SPEC",
     .Help = "arm deterministic faults, session-scoped",
     .Values = "a fault spec like heap-oom@run3,io-write-fail@report",
     .Parse = [](auto &, auto &V, auto &O, auto &Why) {
       resilience::FaultPlan Plan;
       if (!resilience::FaultPlan::parse(V, Plan, Why))
         return false;
       O.InjectSpec = V;
       return true;
     },
     .Render = [](auto &O) { return O.InjectSpec; }},
};

} // namespace

bool JobOptions::applyTo(SessionOptions &SO, std::string &Err) const {
  if (!resilience::FaultPlan::parse(InjectSpec, SO.Faults, Err))
    return false;
  SO.Seeds = Seeds;
  SO.Runs = Runs;
  SO.Input = Input;
  SO.Policy = Policy;
  SO.MaxAttempts = MaxAttempts;
  SO.Run.MaxHeapBytes = MaxHeapBytes;
  SO.Run.RunDeadlineMs = RunDeadlineMs;
  return true;
}

std::string JobKey::expected() const {
  return Values ? Values : rangeText(Min, Max);
}

std::span<const JobKey> prof::jobKeys() { return Keys; }

const JobKey *prof::findJobFlag(std::string_view Name) {
  for (const JobKey &K : Keys)
    if (K.Flag && Name == K.Flag)
      return &K;
  return nullptr;
}

const JobKey *prof::findJobWireKey(std::string_view Name) {
  for (const JobKey &K : Keys)
    if (K.Wire && Name == K.Wire)
      return &K;
  return nullptr;
}

bool prof::parseJobValue(const JobKey &K, const char *Name,
                         const char *Value, JobOptions &O,
                         std::string &Err) {
  std::string Why;
  if (Value && K.Parse(K, Value, O, Why))
    return true;
  Err = invalidValue(Name, Value, K.expected());
  if (!Why.empty())
    Err += ": " + Why;
  return false;
}

void prof::encodeJobOptions(const JobOptions &O, std::string &Out) {
  for (const JobKey &K : Keys) {
    if (!K.Wire)
      continue;
    std::string V = K.Render(O);
    if (V != K.Default)
      Out += std::string(K.Wire) + "=" + V + "\n";
  }
}

std::string prof::jobFlagsUsage() {
  std::string S;
  for (const JobKey &K : Keys) {
    if (!K.Flag)
      continue;
    std::string Line = "  " + std::string(K.Flag) + " " + K.Metavar;
    Line.resize(std::max<size_t>(Line.size() + 1, 26), ' ');
    S += Line + K.Help + ": " + K.expected();
    S += *K.Default ? std::string(" (default ") + K.Default + ")\n" : "\n";
  }
  return S;
}

std::string prof::invalidValue(const char *Name, const char *Value,
                               const std::string &Expected) {
  return std::string("invalid value '") + (Value ? Value : "<missing>") +
         "' for " + Name + " (expected " + Expected + ")";
}

std::string prof::rangeText(int64_t Min, int64_t Max) {
  if (Max == MaxInt64)
    return "an integer >= " + std::to_string(Min);
  return "an integer in [" + std::to_string(Min) + ", " +
         std::to_string(Max) + "]";
}

bool prof::parseInteger(std::string_view S, int64_t Min, int64_t Max,
                        int64_t &Out) {
  int64_t V = 0;
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
  if (Ec != std::errc() || End != S.data() + S.size() || V < Min || V > Max)
    return false;
  Out = V;
  return true;
}
