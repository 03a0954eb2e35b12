//===- bench/Experiments.cpp - The paper's evaluation as one table --------===//

#include "Experiments.h"

#include "cct/BlockCountProfiler.h"
#include "cct/CctProfiler.h"
#include "programs/Table1Check.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <ostream>
#include <stdexcept>

namespace algoprof {
namespace experiments {

using namespace prof;
using programs::InputOrder;

namespace {

const char *const OneGrowingListSource = R"(
class Node { Node next; }
class Main {
  static void main() {
    Node list = null;
    for (int i = 0; i < 16; i++) {
      Node x = new Node();
      x.next = list;
      list = x;
    }
    list = null;
  }
}
)";

const char *const TwoListsSource = R"(
class Node { Node next; }
class Main {
  static Node build(int n) {
    Node list = null;
    for (int i = 0; i < n; i++) {
      Node x = new Node();
      x.next = list;
      list = x;
    }
    return list;
  }
  static void main() {
    Node a = build(12);
    Node b = build(12);
    a = null;
    b = null;
  }
}
)";

/// One phrase naming \p S's program, sweep and non-default options.
/// Distinct setups get distinct descriptions: it keys the run cache.
std::string describe(const Setup &S) {
  char D[160];
  const char *Order = programs::inputOrderName(S.Order);
  int LastSort = S.Step > 0 ? (S.MaxSize - 1) / S.Step * S.Step : 0;
  int LastList = S.Step > 0 ? S.MaxSize / S.Step * S.Step : 0;
  switch (S.Prog) {
  case Program::InsertionSort:
  case Program::FunctionalSort:
    std::snprintf(D, sizeof(D), "%sinsertion sort, %s, sizes 0..%d step %d ×%d",
                  S.Prog == Program::FunctionalSort ? "functional " : "",
                  Order, LastSort, S.Step, S.Reps);
    break;
  case Program::ArrayListGrowBy1:
  case Program::ArrayListDoubling:
    std::snprintf(D, sizeof(D), "%s array list, n = %d..%d step %d",
                  S.Prog == Program::ArrayListDoubling ? "doubling"
                                                       : "grow-by-1",
                  S.Step, LastList, S.Step);
    break;
  case Program::OneGrowingList:
    std::snprintf(D, sizeof(D), "one linked list grown to 16 nodes");
    break;
  case Program::TwoLists:
    std::snprintf(D, sizeof(D), "two disjoint 12-node lists");
    break;
  case Program::Table1:
    std::snprintf(D, sizeof(D), "the 18 Table 1 programs (n = 4..20 step 4)");
    break;
  }
  std::string Out = D;
  if (S.Equivalence != EquivalenceStrategy::SomeElements)
    Out += std::string(", ") + equivalenceStrategyName(S.Equivalence);
  if (S.Grouping != GroupingStrategy::CommonInput)
    Out += std::string(", ") + groupingStrategyName(S.Grouping);
  if (S.SampleThreshold)
    Out += ", sample threshold " + std::to_string(S.SampleThreshold);
  return Out;
}

std::string programSource(const Setup &S) {
  switch (S.Prog) {
  case Program::InsertionSort:
    return programs::insertionSortProgram(S.MaxSize, S.Step, S.Reps,
                                          S.Order);
  case Program::FunctionalSort:
    return programs::functionalSortProgram(S.MaxSize, S.Step, S.Reps,
                                           S.Order);
  case Program::ArrayListGrowBy1:
  case Program::ArrayListDoubling:
    return programs::arrayListProgram(S.Prog == Program::ArrayListDoubling,
                                      S.MaxSize, S.Step);
  case Program::OneGrowingList:
    return OneGrowingListSource;
  case Program::TwoLists:
    return TwoListsSource;
  case Program::Table1:
    break;
  }
  throw std::logic_error("no single program for " + describe(S));
}

std::unique_ptr<CompiledProgram> compile(const Setup &S) {
  DiagnosticEngine Diags;
  auto CP = compileMiniJ(programSource(S), Diags);
  if (!CP)
    throw std::runtime_error("compile error: " + Diags.str());
  return CP;
}

void check(const vm::RunResult &R) {
  if (!R.ok())
    throw std::runtime_error("run failed: " + R.TrapMessage);
}

/// Runs Main.main under \p L with every method instrumented.
void runUnder(const CompiledProgram &CP, vm::ExecutionListener &L) {
  vm::Interpreter Interp(CP.Prep);
  vm::IoChannels Io;
  check(Interp.run(CP.entryMethod("Main", "main"), &L,
                   vm::InstrumentationPlan::all(*CP.Mod), Io));
}

std::string fmt(double X) {
  char B[32];
  std::snprintf(B, sizeof(B),
                X == std::floor(X) && std::fabs(X) < 1e15 ? "%.0f" : "%.3g",
                X);
  return B;
}

Measured number(double X, std::string Detail = "") {
  return {fmt(X), X, std::move(Detail)};
}

std::string fitDetail(const fit::FitResult &F) {
  char R2[32];
  std::snprintf(R2, sizeof(R2), "%.4f", F.R2);
  return "`" + F.formula() + "`, R^2 " + R2;
}

Measured growth(const fit::FitResult &F) {
  if (!F.Valid)
    throw std::runtime_error("no fitted series");
  return number(F.growthExponent(), fitDetail(F));
}

/// One run per setup and result type per process: the rows of a figure
/// share the figure's run, and the driver's plots reuse it.
template <typename T> const T &once(const Setup &S, T (*Make)(const Setup &)) {
  static std::map<std::string, std::unique_ptr<T>> Cache;
  std::unique_ptr<T> &Slot = Cache[describe(S)];
  if (!Slot)
    Slot = std::make_unique<T>(Make(S));
  return *Slot;
}

Profiled runProfiled(const Setup &S) {
  Profiled P;
  P.CP = compile(S);
  SessionOptions Opts;
  Opts.Profile.Equivalence = S.Equivalence;
  Opts.Profile.SampleThreshold = S.SampleThreshold;
  P.Session = std::make_unique<ProfileSession>(*P.CP, Opts);
  check(P.Session->run("Main", "main"));
  P.Profiles = P.Session->buildProfiles(S.Grouping);
  return P;
}

const AlgorithmProfile &algorithmOf(const Experiment &E) {
  if (const AlgorithmProfile *AP = algorithm(profiled(E.Run), E.Of))
    return *AP;
  throw std::runtime_error("no algorithm rooted at " + E.Of);
}

const fit::FitResult &fitOf(const Experiment &E) {
  const AlgorithmProfile::InputSeries *S = algorithmOf(E).primarySeries();
  if (!S || !S->Fit.Valid)
    throw std::runtime_error("no fitted series");
  return S->Fit;
}

// --- Quantities over the repetition tree and its algorithms. ----------

const Quantity Exponent{"growth exponent of steps", [](const Experiment &E) {
  return growth(fitOf(E));
}};

const Quantity Coefficient{"coefficient of steps", [](const Experiment &E) {
  const fit::FitResult &F = fitOf(E);
  return number(F.Coefficient, fitDetail(F));
}};

/// The label without its "(N instances)" suffix, which goes to Detail.
const Quantity Label{"classification", [](const Experiment &E) {
  const std::string &L = algorithmOf(E).Label;
  size_t Paren = L.find(" (");
  if (Paren == std::string::npos)
    return Measured{L, std::nan(""), ""};
  return Measured{L.substr(0, Paren), std::nan(""),
                  L.substr(Paren + 2, L.size() - Paren - 3)};
}};

const Quantity GroupedNodes{"repetition nodes in its algorithm",
                            [](const Experiment &E) {
  const Algorithm &A = algorithmOf(E).Algo;
  std::string Names;
  for (const RepetitionNode *N : A.Nodes)
    Names += (Names.empty() ? "" : " + ") + N->Name;
  return number(static_cast<double>(A.Nodes.size()), Names);
}};

const Quantity RepetitionNodes{"repetition nodes", [](const Experiment &E) {
  int Nodes = 0;
  profiled(E.Run).Session->tree().forEach(
      [&](const RepetitionNode &N) { Nodes += N.Key.Kind != RepKind::Root; });
  return number(Nodes);
}};

const Quantity Algorithms{"algorithms", [](const Experiment &E) {
  return number(static_cast<double>(profiled(E.Run).Profiles.size()));
}};

/// The exponent of the nodes named in E.Of ("A + B", root first)
/// combined by hand into one algorithm, pooled over the root's inputs.
const Quantity CombinedExponent{"growth exponent of combined steps",
                                [](const Experiment &E) {
  const Profiled &P = profiled(E.Run);
  Algorithm Whole;
  for (size_t Begin = 0; Begin <= E.Of.size();) {
    size_t End = std::min(E.Of.find(" + ", Begin), E.Of.size());
    std::string Name = E.Of.substr(Begin, End - Begin);
    P.Session->tree().forEach([&](const RepetitionNode &N) {
      if (N.Name == Name)
        Whole.Nodes.push_back(&N);
    });
    Begin = End + 3;
  }
  if (Whole.Nodes.empty())
    throw std::runtime_error("no nodes named " + E.Of);
  Whole.Root = Whole.Nodes.front();
  InputTable &Inputs = P.Session->inputs();
  std::vector<int32_t> Ids;
  for (int32_t Id : Whole.Root->touchedInputs())
    Ids.push_back(Inputs.canonical(Id));
  return growth(fit::fitBest(
      extractPooledSeries(combineInvocations(Whole, Inputs), Ids)));
}};

const Quantity DistinctInputs{"distinct inputs", [](const Experiment &E) {
  return number(static_cast<double>(
      profiled(E.Run).Session->inputs().liveInputs().size()));
}};

const Quantity RecordsKept{"invocation records kept", [](const Experiment &E) {
  int64_t Kept = 0, Total = 0;
  profiled(E.Run).Session->tree().forEach([&](const RepetitionNode &N) {
    Kept += static_cast<int64_t>(N.History.size());
    Total += N.TotalInvocations;
  });
  char Share[64];
  std::snprintf(Share, sizeof(Share), "%.0f%% of %lld invocations",
                100.0 * static_cast<double>(Kept) /
                    static_cast<double>(std::max<int64_t>(Total, 1)),
                static_cast<long long>(Total));
  return number(static_cast<double>(Kept), Share);
}};

// --- Figure 2: the calling-context tree. -------------------------------

/// Calls and exclusive cost by qualified method name.
using MethodCosts = std::map<std::string, std::pair<int64_t, int64_t>>;

MethodCosts runCct(const Setup &S) {
  auto CP = compile(S);
  cct::CctProfiler Profiler(*CP->Mod);
  runUnder(*CP, Profiler);
  MethodCosts Out;
  for (const cct::CctProfiler::FlatRow &Row : Profiler.flatProfile())
    Out[CP->Mod->Methods[static_cast<size_t>(Row.MethodId)].QualifiedName] =
        {Row.Calls, Row.Exclusive};
  return Out;
}

/// 1 + the number of methods strictly ahead of E.Of (ties share a rank).
Measured cctRank(const Experiment &E, bool ByCalls, const char *Unit) {
  const MethodCosts &C = once(E.Run, runCct);
  auto It = C.find(E.Of);
  if (It == C.end())
    throw std::runtime_error("no method " + E.Of);
  auto Value = [&](const std::pair<int64_t, int64_t> &V) {
    return ByCalls ? V.first : V.second;
  };
  int Rank = 1;
  for (const auto &[Name, V] : C)
    Rank += Value(V) > Value(It->second);
  return number(Rank, std::to_string(Value(It->second)) + Unit);
}

const Quantity CallRank{"rank by calls", [](const Experiment &E) {
  return cctRank(E, true, " calls");
}};

const Quantity ExclusiveRank{"rank by exclusive cost", [](const Experiment &E) {
  return cctRank(E, false, " instructions");
}};

// --- Related work [4]: block counts with hand-declared sizes. ----------

/// One program run per size Step, 2*Step, ... < MaxSize; the person
/// using [4] declares each run's input size and picks the method (E.Of,
/// "Class.method") whose basic-block executions are the cost.
const Quantity BlockCountExponent{
    "growth exponent of block counts, one run per size",
    [](const Experiment &E) {
      size_t Dot = E.Of.find('.');
      std::vector<SeriesPoint> Series;
      for (int Size = E.Run.Step; Size < E.Run.MaxSize; Size += E.Run.Step) {
        Setup One = E.Run;
        One.MaxSize = Size + 1;
        One.Step = Size;
        One.Reps = 1;
        auto CP = compile(One);
        cct::BlockCountProfiler Profiler(CP->Prep);
        runUnder(*CP, Profiler);
        int32_t Method = CP->Mod->findMethodId(E.Of.substr(0, Dot),
                                               E.Of.substr(Dot + 1));
        Series.push_back({static_cast<double>(Size),
                          static_cast<double>(Profiler.blockCount(Method))});
      }
      return growth(fit::fitBest(Series));
    }};

// --- Table 1 and Ablation B: one column over all 18 programs. ----------

using Table1Outcomes = std::vector<programs::Table1Outcome>;

Table1Outcomes runTable1(const Setup &S) {
  Table1Outcomes Out;
  for (const programs::Table1Program &P : programs::table1Programs())
    Out.push_back(programs::evaluateTable1Program(P, S.Grouping));
  return Out;
}

/// The column \p Cell picks, one character per program in Table 1
/// order ('?' where the program failed to run).
Measured table1Column(const Experiment &E,
                      char (*Cell)(const programs::Table1Outcome &)) {
  const Table1Outcomes &Outs = once(E.Run, runTable1);
  std::string Column, NotX;
  for (size_t I = 0; I < Outs.size(); ++I) {
    char C = Outs[I].CompiledAndRan ? Cell(Outs[I]) : '?';
    Column += C;
    if (C != 'x')
      NotX += (NotX.empty() ? "" : ", ") +
              programs::table1Programs()[I].Name + " " + C;
  }
  return {Column, std::nan(""), NotX.empty() ? "all x" : NotX};
}

const Quantity IColumn{"I column (inputs detected)", [](const Experiment &E) {
  return table1Column(E, [](const programs::Table1Outcome &O) {
    return O.InputsDetected ? 'x' : '-';
  });
}};

const Quantity SColumn{"S column (sizes correct)", [](const Experiment &E) {
  return table1Column(E, [](const programs::Table1Outcome &O) {
    return O.SizesCorrect ? 'x' : '-';
  });
}};

const Quantity GColumn{"G column (grouped)", [](const Experiment &E) {
  return table1Column(
      E, [](const programs::Table1Outcome &O) { return O.GColumn; });
}};

// --- The table. --------------------------------------------------------

Experiment row(std::string Id, const char *Section, const Setup &Run,
               const Quantity &What, std::string Of, std::string Paper,
               double Tol = 0, std::string Note = "") {
  return {std::move(Id),    Section, Run,           &What, std::move(Of),
          std::move(Paper), Tol,     std::move(Note)};
}

std::vector<Experiment> buildTable() {
  using P = Program;
  using Eq = EquivalenceStrategy;
  const char *Fig1 = "Figure 1 — cost function of insertion sort";
  const char *Fig2 = "Figure 2 — calling-context tree of the running example";
  const char *Fig3 = "Figure 3 — repetition tree of the running example";
  const char *Tab1 = "Table 1 — 18 data-structure programs";
  const char *Fig4 = "Figure 4 — repetition tree of the growing array list";
  const char *Fig5 = "Figure 5 — grow-by-one vs doubling";
  const char *Sec43 = "Section 4.3 — paradigm agnosticism";
  const char *AblA = "Ablation A — snapshot-equivalence criteria (Sec. 2.4)";
  const char *AblB = "Ablation B — grouping strategies (Sec. 2.5, Sec. 5)";
  const char *AblC = "Ablation C — invocation sampling (Sec. 3.3)";
  const char *Gold = "Related work [4] — Goldsmith et al. (FSE'07)";

  const Setup Random{.MaxSize = 401, .Step = 20, .Reps = 3};
  const Setup Sorted{.MaxSize = 401, .Step = 20, .Reps = 3,
                     .Order = InputOrder::Sorted};
  const Setup Reversed{.MaxSize = 401, .Step = 20, .Reps = 3,
                       .Order = InputOrder::Reversed};
  const Setup Running{.MaxSize = 200, .Step = 10, .Reps = 5};
  const Setup GrowTree{.Prog = P::ArrayListGrowBy1, .MaxSize = 128,
                       .Step = 16};
  const Setup GrowBy1{.Prog = P::ArrayListGrowBy1, .MaxSize = 256,
                      .Step = 16};
  const Setup Doubling{.Prog = P::ArrayListDoubling, .MaxSize = 256,
                       .Step = 16};
  const Setup Imperative{.MaxSize = 160, .Step = 10, .Reps = 3};
  const Setup Functional{.Prog = P::FunctionalSort, .MaxSize = 160,
                         .Step = 10, .Reps = 3};
  const Setup Goldsmith{.MaxSize = 201, .Step = 20, .Reps = 1};
  auto Table1 = [](GroupingStrategy G) {
    return Setup{.Prog = P::Table1, .Grouping = G};
  };

  const std::string Sort = "List.sort loop#0";
  const std::string Harness = "Main.testForSize loop#0";
  const std::string NodeConstruction =
      "Construction of a Node-based recursive structure";
  const std::string NodeModification =
      "Modification of a Node-based recursive structure";
  const std::string FNodeConstruction =
      "Construction of a FNode-based recursive structure";
  const std::string Deviation =
      "deviation: the paper calls the profiles almost identical; the "
      "immutable sort allocates its result and splits its work over two "
      "recursions (EXPERIMENTS.md, Known deviations, item 4)";
  const std::string All18(programs::table1Programs().size(), 'x');
  std::string PaperG; // Table 1's G, with '*' (grouped, but fragile) as x.
  for (const programs::Table1Program &T : programs::table1Programs())
    PaperG += T.PaperG == '*' ? 'x' : T.PaperG;

  std::vector<Experiment> Rows = {
      row("fig1a_random_exponent", Fig1, Random, Exponent, Sort, "2", 0.1),
      row("fig1a_random_coefficient", Fig1, Random, Coefficient, Sort, "0.25",
          0.03),
      row("fig1b_sorted_exponent", Fig1, Sorted, Exponent, Sort, "1", 0.1),
      row("fig1c_reversed_exponent", Fig1, Reversed, Exponent, Sort, "2", 0.1),
      row("fig1c_reversed_coefficient", Fig1, Reversed, Coefficient, Sort,
          "0.5", 0.03),

      row("fig2_append_call_rank", Fig2, Running, CallRank, "List.append",
          "1"),
      row("fig2_node_init_call_rank", Fig2, Running, CallRank, "Node.<init>",
          "1"),
      row("fig2_sort_exclusive_rank", Fig2, Running, ExclusiveRank,
          "List.sort", "1"),

      row("fig3_repetition_nodes", Fig3, Running, RepetitionNodes, "", "5"),
      row("fig3_measure_outer_label", Fig3, Running, Label,
          "Main.measure loop#0", "Data-structure-less algorithm"),
      row("fig3_measure_inner_label", Fig3, Running, Label,
          "Main.measure loop#1", "Data-structure-less algorithm"),
      row("fig3_construct_label", Fig3, Running, Label,
          "Main.constructRandom loop#0", NodeConstruction),
      row("fig3_construct_exponent", Fig3, Running, Exponent,
          "Main.constructRandom loop#0", "1", 0.1),
      row("fig3_sort_grouped_nodes", Fig3, Running, GroupedNodes, Sort, "2"),
      row("fig3_sort_label", Fig3, Running, Label, Sort, NodeModification),
      row("fig3_sort_exponent", Fig3, Running, Exponent, Sort, "2", 0.1),
      row("fig3_sort_coefficient", Fig3, Running, Coefficient, Sort, "0.25",
          0.03),

      row("table1_inputs_detected", Tab1,
          Table1(GroupingStrategy::CommonInput), IColumn, "", All18),
      row("table1_sizes_correct", Tab1, Table1(GroupingStrategy::CommonInput),
          SColumn, "", All18),
      row("table1_grouped", Tab1, Table1(GroupingStrategy::CommonInput),
          GColumn, "", PaperG, 0,
          "the paper's six '*' rows (grouped, but fragile) count as x"),

      row("fig4_repetition_nodes", Fig4, GrowTree, RepetitionNodes, "", "3"),
      row("fig4_algorithms", Fig4, GrowTree, Algorithms, "", "2"),
      row("fig4_append_grow_grouped_nodes", Fig4, GrowTree, GroupedNodes,
          Harness, "2"),
      row("fig4_append_grow_label", Fig4, GrowTree, Label, Harness,
          "Construction of a int[] array", 0,
          "the paper describes it in words: \"Appending elements and "
          "growing array when required\""),

      row("fig5_grow_by_1_exponent", Fig5, GrowBy1, Exponent, Harness, "2",
          0.1),
      row("fig5_doubling_exponent", Fig5, Doubling, Exponent, Harness, "1",
          0.1),

      row("sec43_imperative_construct_exponent", Sec43, Imperative, Exponent,
          "Main.constructRandom loop#0", "1", 0.1),
      row("sec43_imperative_construct_label", Sec43, Imperative, Label,
          "Main.constructRandom loop#0", NodeConstruction),
      row("sec43_imperative_sort_exponent", Sec43, Imperative, Exponent, Sort,
          "2", 0.1),
      row("sec43_imperative_sort_label", Sec43, Imperative, Label, Sort,
          NodeModification),
      row("sec43_functional_construct_exponent", Sec43, Functional, Exponent,
          "Main.construct loop#0", "1", 0.1),
      row("sec43_functional_construct_label", Sec43, Functional, Label,
          "Main.construct loop#0", FNodeConstruction),
      row("sec43_functional_sort_exponent", Sec43, Functional,
          CombinedExponent, "FSort.sort (recursion) + FSort.insert (recursion)",
          "2", 0.1),
      row("sec43_functional_sort_label", Sec43, Functional, Label,
          "FSort.sort (recursion)",
          "Traversal of a FNode-based recursive structure", 0, Deviation),
      row("sec43_functional_insert_label", Sec43, Functional, Label,
          "FSort.insert (recursion)", FNodeConstruction, 0, Deviation),
  };

  // Distinct inputs per workload and criterion. The paper's default,
  // SomeElements, must see the intended count (the first column).
  const std::pair<const char *, Eq> Criteria[] = {
      {"some_elements", Eq::SomeElements},
      {"all_elements", Eq::AllElements},
      {"same_array", Eq::SameArray},
      {"same_type", Eq::SameType}};
  const struct {
    const char *Name;
    Setup Run;
    const char *Inputs[4];
  } Workloads[] = {
      {"realloc",
       {.Prog = P::ArrayListGrowBy1, .MaxSize = 16, .Step = 16},
       {"1", "16", "16", "1"}},
      {"growing_list", {.Prog = P::OneGrowingList}, {"1", "16", "1", "1"}},
      {"two_lists", {.Prog = P::TwoLists}, {"2", "24", "2", "1"}}};
  for (const auto &W : Workloads)
    for (size_t C = 0; C < 4; ++C) {
      Setup Run = W.Run;
      Run.Equivalence = Criteria[C].second;
      Rows.push_back(row(
          std::string("abla_") + W.Name + "_" + Criteria[C].first, AblA, Run,
          DistinctInputs, "", W.Inputs[C], 0,
          C == 0 ? "" : "no count in the paper; the criterion's definition "
                        "in Sec. 2.4 predicts it"));
    }

  Rows.push_back(row("ablb_index_dataflow_grouped", AblB,
                     Table1(GroupingStrategy::CommonInputPlusDataflow),
                     GColumn, "", All18, 0,
                     "Sec. 5 proposes the index dataflow to group the two "
                     "'-' nests"));
  Rows.push_back(row(
      "ablb_same_method_grouped", AblB, Table1(GroupingStrategy::SameMethod),
      GColumn, "", "xx----xxxxxx--x---", 0,
      "no column in the paper (Sec. 2.5: \"one could envision other "
      "strategies\"); SameMethod joins only a loop to an enclosing loop of "
      "its own method, so it cannot group across methods or with a "
      "recursion"));

  // Records kept per threshold, and the sort's fit that must survive.
  const std::pair<int64_t, const char *> Kept[] = {
      {0, "5782"}, {256, "1276"}, {64, "549"}, {16, "225"}};
  for (const auto &[Threshold, Records] : Kept) {
    Setup Run{.MaxSize = 200, .Step = 10, .Reps = 3,
              .SampleThreshold = Threshold};
    std::string Id = "ablc_" + (Threshold ? std::to_string(Threshold) : "off");
    Rows.push_back(row(Id + "_records", AblC, Run, RecordsKept, "", Records, 0,
                       "no count in the paper (Sec. 3.3 only warns of the "
                       "memory cost); the measured baseline"));
    Rows.push_back(row(Id + "_sort_coefficient", AblC, Run, Coefficient, Sort,
                       "0.25", 0.03));
  }

  Rows.insert(Rows.end(),
              {row("goldsmith_block_count_exponent", Gold, Goldsmith,
                   BlockCountExponent, "List.sort", "2", 0.1),
               row("goldsmith_algoprof_exponent", Gold, Goldsmith, Exponent,
                   Sort, "2", 0.1),
               row("goldsmith_algoprof_label", Gold, Goldsmith, Label, Sort,
                   NodeModification)});
  return Rows;
}

} // namespace

const std::vector<Experiment> &table() {
  static const std::vector<Experiment> Table = buildTable();
  return Table;
}

const Experiment &experiment(std::string_view Id) {
  for (const Experiment &E : table())
    if (E.Id == Id)
      return E;
  throw std::out_of_range("no experiment row " + std::string(Id));
}

Measured measure(const Experiment &E) {
  try {
    return E.What->Measure(E);
  } catch (const std::exception &Err) {
    // Text that no paper value matches.
    return {std::string("error: ") + Err.what(), std::nan(""), ""};
  }
}

bool withinTolerance(const Experiment &E, const Measured &M) {
  if (std::isnan(M.Num))
    return M.Value == E.Paper;
  char *End = nullptr;
  double Paper = std::strtod(E.Paper.c_str(), &End);
  return End != E.Paper.c_str() && *End == '\0' &&
         std::fabs(M.Num - Paper) <= E.Tol;
}

const Profiled &profiled(const Setup &S) { return once(S, runProfiled); }

const AlgorithmProfile *algorithm(const Profiled &P, std::string_view Root) {
  for (const AlgorithmProfile &AP : P.Profiles)
    if (AP.Algo.Root->Name == Root)
      return &AP;
  return nullptr;
}

std::string markdownBlock(const std::vector<Experiment> &Rows,
                          const std::vector<Measured> &Results) {
  std::string Out = "<!-- paper-experiments:begin (generated by "
                    "bench/paper_experiments; do not edit) -->\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Experiment &E = Rows[I];
    if (I == 0 || Rows[I - 1].Section != E.Section)
      Out += "\n**" + E.Section + "**\n\n"
             "| row | setup | quantity | of | paper | tol | measured | "
             "detail | ok |\n|---|---|---|---|---|---|---|---|---|\n";
    Out += "| `" + E.Id + "` | " + describe(E.Run) + " | " + E.What->Name +
           " | " + (E.Of.empty() ? "" : "`" + E.Of + "`") + " | " + E.Paper +
           (E.Note.empty() ? "" : " †") + " | " +
           (std::isnan(Results[I].Num) ? "=" : fmt(E.Tol)) + " | " +
           Results[I].Value + " | " + Results[I].Detail + " | " +
           (withinTolerance(E, Results[I]) ? "pass" : "**FAIL**") + " |\n";
    if (I + 1 < Rows.size() && Rows[I + 1].Section == E.Section)
      continue;
    // The section's footnotes: each distinct note with the rows it marks.
    std::vector<std::pair<std::string, std::string>> Notes;
    for (const Experiment &N : Rows) {
      if (N.Section != E.Section || N.Note.empty())
        continue;
      auto It = std::find_if(Notes.begin(), Notes.end(),
                             [&](const auto &P) { return P.first == N.Note; });
      if (It == Notes.end())
        Notes.emplace_back(N.Note, "`" + N.Id + "`");
      else
        It->second += ", `" + N.Id + "`";
    }
    for (size_t K = 0; K < Notes.size(); ++K)
      Out += (K == 0 ? "\n- † " : "- † ") + Notes[K].second + ": " +
             Notes[K].first + "\n";
  }
  return Out + "\n<!-- paper-experiments:end -->\n";
}

void PrintTo(const Experiment &E, std::ostream *OS) { *OS << E.Id; }

} // namespace experiments
} // namespace algoprof
