//===- vm/Interpreter.h - Bytecode interpreter ------------------*- C++-*-===//
///
/// \file
/// The AlgoProf VM: a stack-machine interpreter over bc::Module with an
/// instrumentation-event surface (vm/Hooks.h). PreparedProgram bundles
/// the per-method static artifacts (CFG, natural loops, loop-event
/// slots, operand-stack bounds) and the module-level analyses the
/// profilers need.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_VM_INTERPRETER_H
#define ALGOPROF_VM_INTERPRETER_H

#include "analysis/CallGraph.h"
#include "analysis/Cfg.h"
#include "analysis/Loops.h"
#include "analysis/RecursiveTypes.h"
#include "bytecode/Module.h"
#include "vm/Heap.h"
#include "vm/Hooks.h"
#include "vm/LoopEventMap.h"

#include <memory>
#include <string>
#include <vector>

namespace algoprof {
namespace vm {

/// External input/output channels (the paper's Input Reads / Output
/// Writes cost sources).
struct IoChannels {
  std::vector<int64_t> Input;
  size_t InputPos = 0;
  std::vector<int64_t> Output;

  bool hasInput() const { return InputPos < Input.size(); }
};

/// Per-method static artifacts used at run time.
struct PreparedMethod {
  analysis::Cfg Graph;
  analysis::LoopInfo Loops;
  LoopEventMap Events;
  /// Operand-stack bound (bc::maxStackDepth), or -1 when the method
  /// failed verification; the VM then traps on entry to it.
  int MaxStack = -1;
};

/// A module plus everything the VM and profilers need to run it.
struct PreparedProgram {
  const bc::Module *M = nullptr;
  std::vector<PreparedMethod> Methods;
  analysis::CallGraph Calls;
  analysis::RecursiveTypes RecTypes;

  /// Runs all static analyses over \p M. The module must outlive the
  /// result.
  static PreparedProgram prepare(const bc::Module &M);
};

/// How a run ended.
enum class RunStatus {
  Ok,
  Trapped,
  FuelExhausted,
  /// A resource budget from RunOptions tripped (MaxHeapBytes or
  /// RunDeadlineMs). Deterministic: the same program under the same
  /// budget traps at the same point on every machine — never
  /// std::bad_alloc, never a wall-clock-dependent heap state.
  BudgetExceeded,
};

/// Stable lowercase status name ("ok" | "trap" | "fuel" | "budget").
const char *runStatusName(RunStatus S);

/// Result of one program run.
struct RunResult {
  RunStatus Status = RunStatus::Ok;
  std::string TrapMessage;
  uint64_t InstrCount = 0;
  /// Which budget tripped: "heap_bytes" | "deadline" for
  /// BudgetExceeded, "fuel" for FuelExhausted, empty otherwise.
  std::string Budget;
  /// True when the failure was injected by an armed fault plan rather
  /// than hit organically.
  bool Injected = false;

  bool ok() const { return Status == RunStatus::Ok; }
};

/// Always false: the VM has one decode loop, a portable switch. Kept
/// for the benchmark's machine stamp, which records it.
bool threadedDispatchCompiled();

/// Interpreter options.
struct RunOptions {
  uint64_t Fuel = 500'000'000; ///< Max executed instructions.
  int MaxFrames = 4096;        ///< Call-depth limit.
  /// Largest single allocation in slots; NewArray/NewMulti trap above
  /// it (a Value slot is 16 bytes, so the default caps one array at
  /// 1 GiB). Fuzzing uses much smaller caps to bound memory.
  int64_t MaxArrayLength = 1LL << 26;
  /// Heap-byte budget over Heap's deterministic accounting (0 = off).
  /// Checked *before* each allocation; a would-be overflow ends the run
  /// with RunStatus::BudgetExceeded instead of std::bad_alloc.
  uint64_t MaxHeapBytes = 0;
  /// Cooperative wall-clock deadline in milliseconds (0 = off), checked
  /// periodically on the fuel-tick path so a hostile run cannot hang a
  /// sweep worker. The trap point is time-dependent; the status and
  /// budget name are not.
  uint64_t RunDeadlineMs = 0;
  /// Fault injection: when nonzero, the Nth allocation (1-based) of the
  /// run reports BudgetExceeded as if MaxHeapBytes had tripped, with
  /// RunResult::Injected set. Armed by resilience::FaultPlan.
  uint64_t InjectHeapOomAtAlloc = 0;
  /// Test seam for the deadline: returns "now" in milliseconds. Null
  /// selects std::chrono::steady_clock. Injectable clocks make deadline
  /// tests fully deterministic.
  uint64_t (*ClockNowMs)() = nullptr;
};

/// Executes prepared programs. One Interpreter owns one heap; distinct
/// runs in one Interpreter share the heap id space (reset() clears it,
/// Heap::recycle() reclaims memory while keeping ids fresh).
///
/// Thread-safety / re-entrancy: an Interpreter holds no state besides a
/// reference to the immutable PreparedProgram and its private heap. All
/// per-run state — the value stack that holds every frame's locals and
/// operands, the frame stack, the instruction count — lives in the
/// run's own Machine, which run() creates and destroys. A single
/// Interpreter must not run twice concurrently (one heap), but any
/// number of Interpreter instances may run in parallel over one shared
/// PreparedProgram, each with its own IoChannels and listener. This is
/// what parallel::SweepEngine relies on.
class Interpreter {
public:
  explicit Interpreter(const PreparedProgram &P) : P(P), TheHeap(*P.M) {}

  /// Runs static method \p EntryMethodId (which must take no arguments).
  /// \p Listener may be null. \p Plan selects which events fire.
  /// Non-reentrant per instance (asserted in debug builds).
  RunResult run(int32_t EntryMethodId, ExecutionListener *Listener,
                const InstrumentationPlan &Plan, IoChannels &Io,
                const RunOptions &Opts = RunOptions());

  Heap &heap() { return TheHeap; }
  const PreparedProgram &program() const { return P; }

  /// Clears the heap between independent runs.
  void reset() { TheHeap.reset(); }

private:
  const PreparedProgram &P;
  Heap TheHeap;
  bool InRun = false; ///< Debug re-entrancy guard.
};

} // namespace vm
} // namespace algoprof

#endif // ALGOPROF_VM_INTERPRETER_H
