//===- perfbench/src/Harness.cpp ------------------------------------------===//

#include "Harness.h"

#include "programs/Programs.h"
#include "report/Reporter.h"
#include "support/Diagnostics.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

using namespace algoprof;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
  return Lo + static_cast<int64_t>(next() % Span);
}

std::vector<int64_t> jitteredGrid(Rng &R, int64_t Base, int64_t Step,
                                  int Count, int64_t Jitter) {
  std::vector<int64_t> G;
  for (int I = 0; I + 1 < Count; ++I)
    G.push_back(Base + Step * I + R.range(-Jitter, Jitter));
  G.push_back(Base + Step * (Count - 1));
  return G;
}

const std::string &corpusSource(const std::string &Name) {
  for (const programs::CorpusProgram &P : programs::corpusPrograms())
    if (P.Name == Name)
      return P.Source;
  std::fprintf(stderr, "error: unknown corpus program '%s'\n", Name.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Clocks and statistics
//===----------------------------------------------------------------------===//

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double msSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e6;
}

double processCpuMs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) / 1e3;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // Linux: KiB.
}

double stolenMs() {
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return 0;
  unsigned long long V[8] = {};
  int N = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                      &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]);
  std::fclose(F);
  long Hz = sysconf(_SC_CLK_TCK);
  return N == 8 && Hz > 0 ? static_cast<double>(V[7]) * 1e3 /
                                static_cast<double>(Hz)
                          : 0;
}

unsigned nproc() {
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N)
               : std::max(1u, std::thread::hardware_concurrency());
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

namespace {
void calibrationKernel() {
  struct Obj {
    Obj *Next;
    int64_t V;
  };
  constexpr int NumOps = 4096;
  std::vector<uint8_t> Code(NumOps);
  Rng R(7);
  for (uint8_t &Op : Code)
    Op = static_cast<uint8_t>(R.next() >> 60);
  std::vector<int64_t> Stack(64, 1);
  std::vector<std::unique_ptr<Obj>> Heap;
  std::map<int64_t, int64_t> Counts;
  Obj *List = nullptr;
  int64_t Acc = 1;
  size_t Sp = 8;
  for (int Rep = 0; Rep < 60; ++Rep) {
    for (int Pc = 0; Pc < NumOps; ++Pc) {
      switch (Code[static_cast<size_t>(Pc)]) {
      case 0: Acc += Stack[Sp & 63]; break;
      case 1: Stack[++Sp & 63] = Acc; break;
      case 2:
        Acc ^= static_cast<int64_t>(static_cast<uint64_t>(Acc) << 7);
        break;
      case 3:
        Acc = static_cast<int64_t>(static_cast<uint64_t>(Acc) * 31 +
                                   static_cast<uint64_t>(Pc));
        break;
      case 4: Acc = (Acc & 1) ? Acc >> 1 : Acc + 3; break;
      case 5:
        Heap.push_back(std::make_unique<Obj>(Obj{List, Acc}));
        List = Heap.back().get();
        if (Heap.size() > 2048) {
          Heap.clear();
          List = nullptr;
        }
        break;
      case 6: {
        int64_t N = 0;
        for (Obj *O = List; O && N < 8; O = O->Next)
          N += O->V & 1;
        Acc += N;
        break;
      }
      case 7: Counts[Acc & 1023] += 1; break;
      case 8: Acc += static_cast<int64_t>(Counts.count(Pc & 1023)); break;
      case 9: --Sp; break;
      case 10: Acc -= Stack[(Sp + 3) & 63]; break;
      case 11: Stack[static_cast<size_t>(Acc & 63)] ^= Pc; break;
      case 12:
        Acc = static_cast<int64_t>(std::rotr(static_cast<uint64_t>(Acc), 3));
        break;
      case 13: Acc += Acc % 3 == 0 ? 11 : 0; break;
      case 14: Acc += Pc * (Acc & 7); break;
      default: Acc ^= 0x5bd1e995; break;
      }
    }
  }
  volatile int64_t Sink = Acc;
  (void)Sink;
}
} // namespace

double calibrationMs() {
  auto ThreadCpuNs = [] {
    timespec T{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
    return static_cast<double>(T.tv_sec) * 1e9 + static_cast<double>(T.tv_nsec);
  };
  double Start = ThreadCpuNs();
  calibrationKernel();
  return (ThreadCpuNs() - Start) / 1e6;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<int64_t> OpenStack;
thread_local bool ThreadTracing = true;

uint32_t threadOrdinal() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Mine = Next++;
  return Mine;
}
} // namespace

Tracer &tracer() {
  static Tracer T;
  return T;
}

JobTracing::JobTracing(bool On) : Prev(ThreadTracing) { ThreadTracing = On; }

JobTracing::~JobTracing() { ThreadTracing = Prev; }

int64_t Tracer::open(const char *Layer, std::string Name, uint64_t Job) {
  if (!Enabled || !ThreadTracing)
    return -1;
  Span S;
  S.Layer = Layer;
  S.Name = std::move(Name);
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  S.Tid = threadOrdinal();
  S.Job = Job;
  if (S.Job == 0 && S.Parent >= 0) {
    std::lock_guard<std::mutex> G(M);
    S.Job = Spans[static_cast<size_t>(S.Parent)].Job;
  }
  int64_t Index;
  {
    std::lock_guard<std::mutex> G(M);
    Index = static_cast<int64_t>(Spans.size());
    Spans.push_back(std::move(S));
  }
  OpenStack.push_back(Index);
  // Start the clock last so the bookkeeping above is not charged to
  // the span.
  uint64_t Now = nowNs();
  std::lock_guard<std::mutex> G(M);
  Spans[static_cast<size_t>(Index)].StartNs = Now;
  return Index;
}

void Tracer::close(int64_t Index) {
  if (Index < 0)
    return;
  uint64_t Now = nowNs();
  OpenStack.pop_back();
  std::lock_guard<std::mutex> G(M);
  Spans[static_cast<size_t>(Index)].EndNs = Now;
}

std::map<std::string, double> Tracer::selfMsByLayer(uint64_t FromNs) const {
  std::lock_guard<std::mutex> G(M);
  // Children of one span run on the span's own thread, one after
  // another, so the part they cover is the sum of their durations.
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.StartNs < FromNs)
      continue;
    uint64_t Dur = S.EndNs - S.StartNs;
    uint64_t Own = Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
    Self[S.Layer] += static_cast<double>(Own) / 1e6;
  }
  return Self;
}

std::string Tracer::chromeJson() const {
  std::lock_guard<std::mutex> G(M);
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Base = std::min(Base, S.StartNs);
  std::string J = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char Buf[160];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,",
                  static_cast<double>(S.StartNs - Base) / 1e3,
                  static_cast<double>(S.EndNs - S.StartNs) / 1e3, S.Tid);
    J += "{\"name\":" + jsonString(S.Name) + ",\"cat\":" +
         jsonString(S.Layer) + ",\"ph\":\"X\"," + Buf +
         "\"args\":{\"job\":" + std::to_string(S.Job) +
         ",\"id\":" + std::to_string(I) +
         ",\"parent\":" + std::to_string(S.Parent) + "}}";
    J += I + 1 < Spans.size() ? ",\n" : "\n";
  }
  J += "]}\n";
  return J;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> G(M);
  return Spans.size();
}

Scope::Scope(const char *Layer, std::string Name, uint64_t Job)
    : Index(tracer().open(Layer, std::move(Name), Job)) {}

Scope::~Scope() { tracer().close(Index); }

//===----------------------------------------------------------------------===//
// Profiles
//===----------------------------------------------------------------------===//

std::string renderJson(const prof::RepetitionTree &Tree,
                       const prof::InputTable &Inputs,
                       const std::vector<prof::AlgorithmProfile> &P,
                       const std::vector<resilience::FailureInfo> *Degraded) {
  static const report::Reporter *Json =
      report::Registry::builtin().find("json");
  report::ReportInput In{&Tree, &Inputs, &P, Degraded};
  return Json->render(In);
}

std::string fingerprint(const std::vector<prof::AlgorithmProfile> &Profiles) {
  std::string F;
  for (const prof::AlgorithmProfile &AP : Profiles) {
    F += AP.Label + ";";
    for (const auto &S : AP.Series) {
      F += S.Kind + "=" + std::to_string(S.Series.size());
      if (S.Fit.Valid)
        F += "[" + S.Fit.formula() + "]";
      F += ";";
    }
  }
  return F;
}

std::string digest(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

std::unique_ptr<prof::CompiledProgram>
compileOrDie(const std::string &Name, const std::string &Source) {
  DiagnosticEngine Diags;
  auto CP = prof::compileMiniJ(Source, Diags);
  if (!CP || CP->entryMethod("Main", "main") < 0) {
    std::fprintf(stderr, "error: %s does not compile:\n%s", Name.c_str(),
                 Diags.str().c_str());
    std::exit(2);
  }
  return CP;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void Metrics::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  for (auto &[N, M] : Items)
    if (N == Name) {
      M = {Value, Unit};
      return;
    }
  Items.push_back({Name, {Value, Unit}});
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string O = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      O += '\\';
      O += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      O += Buf;
    } else {
      O += C;
    }
  }
  return O + "\"";
}

void Failures::attempt(uint64_t N) {
  std::lock_guard<std::mutex> G(M);
  Attempted += N;
}

void Failures::fail(const std::string &What) {
  std::lock_guard<std::mutex> G(M);
  // Report the first few in full; the count carries the rest.
  if (Failed < 20)
    std::fprintf(stderr, "FAILED: %s\n", What.c_str());
  ++Failed;
}

} // namespace perfbench
