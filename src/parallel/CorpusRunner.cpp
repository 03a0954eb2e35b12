//===- parallel/CorpusRunner.cpp ------------------------------------------===//

#include "parallel/CorpusRunner.h"

using namespace algoprof;
using namespace algoprof::parallel;
using namespace algoprof::prof;

CorpusResult CorpusRunner::run(const std::vector<CorpusEntry> &Entries,
                               const std::string &Cls,
                               const std::string &Method) {
  CorpusResult Out;
  Out.Programs.resize(Entries.size());
  if (Entries.empty()) {
    Out.Cache = Cache.stats();
    return Out;
  }

  // The shared per-run input plan, identical for every program (the
  // corpus axis is programs × this seed grid).
  const std::vector<vm::IoChannels> RunInputs =
      runInputs(Opts.Seeds, Opts.Runs, Opts.Input);

  {
    JobSystem Pool(workerCount(Opts.Jobs), Perturb);
    // One compile job per program. Each slot of Out.Programs is written
    // by exactly one job (the vector is pre-sized, so no reallocation
    // races), and successful compiles enqueue their run jobs onto the
    // same pool; Pool.wait() covers those transitively.
    for (size_t I = 0; I < Entries.size(); ++I) {
      CorpusProgramResult &R = Out.Programs[I];
      R.Name = Entries[I].Name;
      const std::string &Source = Entries[I].Source;
      Pool.submit([this, &Pool, &R, &Source, &RunInputs, &Cls, &Method] {
        CompileCache::Result CR = Cache.get(Source);
        if (!CR.ok()) {
          R.Error = CR.Error;
          return;
        }
        R.Program = CR.Program;
        R.Engine = std::make_unique<SweepEngine>(*R.Program, Opts);
        R.Engine->enqueueSweep(Pool, Cls, Method, RunInputs, &R.Sweep);
      });
    }
    Pool.wait();
    for (CorpusProgramResult &R : Out.Programs)
      if (R.Engine)
        R.Engine->finishEnqueued();
    Out.Pool = Pool.stats();
    // Pool destruction folds worker thread-local obs state into the
    // retired pool before the caller snapshots.
  }
  Out.Cache = Cache.stats();
  return Out;
}
