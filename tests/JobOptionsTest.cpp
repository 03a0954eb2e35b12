//===- tests/JobOptionsTest.cpp - The job-key table on every surface ------===//
//
// One table of job keys (core/JobOptions.h) serves the algoprof and
// algoprof_client flags, the algoprofd Job payload and the daemon's
// journal. These tests pin what that promises: the payload bytes of
// older builds (journals on disk must replay), parse/encode round trips
// over random jobs, one verdict and one "expected ..." text per value
// on every surface, and docs that list every key with its range.
//
//===----------------------------------------------------------------------===//

#include "core/JobOptions.h"
#include "core/Session.h"
#include "service/Protocol.h"

#include "gtest/gtest.h"

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::service;

namespace {

/// Parses argv-style job flags the way both CLIs do: every flag through
/// findJobFlag and parseJobValue, a missing value passed as null.
bool parseFlags(const std::vector<std::string> &Args, JobOptions &O,
                std::string &Err) {
  for (size_t I = 0; I < Args.size(); ++I) {
    const JobKey *K = findJobFlag(Args[I]);
    if (!K) {
      Err = "not a job flag: " + Args[I];
      return false;
    }
    const char *V = I + 1 < Args.size() ? Args[++I].c_str() : nullptr;
    if (!parseJobValue(*K, K->Flag, V, O, Err))
      return false;
  }
  return true;
}

/// A corpus job payload carrying \p Lines.
std::string payload(const std::string &Lines) {
  return std::string(ProtocolVersionV2) + "\ncorpus=c\n" + Lines;
}

/// Every SessionOptions field a job sets, rendered for comparison.
std::string describe(const SessionOptions &SO) {
  std::ostringstream OS;
  OS << "runs=" << SO.Runs << " seeds=";
  for (int64_t S : SO.Seeds)
    OS << S << ",";
  OS << " input=";
  for (int64_t V : SO.Input)
    OS << V << ",";
  OS << " policy=" << resilience::failurePolicyName(SO.Policy)
     << " attempts=" << SO.MaxAttempts << " heap=" << SO.Run.MaxHeapBytes
     << " deadline=" << SO.Run.RunDeadlineMs << " faults=" << SO.Faults.str()
     << " jobs=" << SO.Jobs << " sample=" << SO.Profile.SampleThreshold;
  return OS.str();
}

std::string sessionOf(const JobOptions &O) {
  SessionOptions SO;
  std::string Err;
  EXPECT_TRUE(O.applyTo(SO, Err)) << Err;
  return describe(SO);
}

/// An invalid-value message up to its "(expected ...)" part.
std::string headPart(const std::string &Err) {
  size_t P = Err.find("): ");
  return P == std::string::npos ? Err : Err.substr(0, P + 1);
}

/// The "(expected ...)" tail of an invalid-value message.
std::string expectedPart(const std::string &Err) {
  size_t P = Err.find(" (expected ");
  return P == std::string::npos ? "<none in: " + Err + ">" : Err.substr(P);
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire and journal compatibility
//===----------------------------------------------------------------------===//

// Payloads as the encoder wrote them before the job-key table existed
// (captured from that build): the journal stores these bytes, so the
// encoder must reproduce them exactly and the parser must read them.
TEST(JobKeys, PayloadBytesMatchEarlierEncoder) {
  JobRequest D;
  D.Corpus = "c";
  auto With = [&](auto Set) {
    JobRequest R = D;
    Set(R);
    return R;
  };
  JobRequest All;
  All.Source = "class Main { static void main() { } }\nwith=weird\nlines";
  All.Auth = "s3kr1t";
  All.EntryClass = "App";
  All.EntryMethod = "run";
  All.Seeds = {4, 8, 12};
  All.Runs = 3;
  All.Input = {7, 9};
  All.Policy = resilience::FailurePolicy::Retry;
  All.MaxAttempts = 5;
  All.MaxHeapBytes = 4096;
  All.RunDeadlineMs = 10;
  All.InjectSpec = "run-start-fail@run2";
  const std::pair<JobRequest, std::string> Cases[] = {
      {D, "algoprof-wire/2\ncorpus=c\n"},
      {With([](JobRequest &R) { R.EntryClass = "App"; }),
       "algoprof-wire/2\ncorpus=c\nentry-class=App\n"},
      {With([](JobRequest &R) { R.EntryMethod = "run"; }),
       "algoprof-wire/2\ncorpus=c\nentry-method=run\n"},
      {With([](JobRequest &R) { R.Seeds = {4, -8, MaxInt64}; }),
       "algoprof-wire/2\ncorpus=c\nseeds=4,-8,9223372036854775807\n"},
      {With([](JobRequest &R) { R.Runs = 1000000000; }),
       "algoprof-wire/2\ncorpus=c\nruns=1000000000\n"},
      {With([](JobRequest &R) { R.Input = {-MaxInt64 - 1, 0}; }),
       "algoprof-wire/2\ncorpus=c\ninput=-9223372036854775808,0\n"},
      {With([](JobRequest &R) {
         R.Policy = resilience::FailurePolicy::Skip;
       }),
       "algoprof-wire/2\ncorpus=c\npolicy=skip\n"},
      {With([](JobRequest &R) { R.MaxAttempts = 1; }),
       "algoprof-wire/2\ncorpus=c\nretries=0\n"},
      {With([](JobRequest &R) { R.MaxHeapBytes = 1 << 20; }),
       "algoprof-wire/2\ncorpus=c\nmax-heap-bytes=1048576\n"},
      {With([](JobRequest &R) { R.RunDeadlineMs = 250; }),
       "algoprof-wire/2\ncorpus=c\ndeadline-ms=250\n"},
      {With([](JobRequest &R) {
         R.InjectSpec = "heap-oom@run1:once,io-write-fail@report";
       }),
       "algoprof-wire/2\ncorpus=c\n"
       "inject=heap-oom@run1:once,io-write-fail@report\n"},
      {With([](JobRequest &R) {
         R.Corpus.clear();
         R.Resume = 17;
         R.FromDelta = 3;
         R.Auth = "tok";
       }),
       "algoprof-wire/2\nauth=tok\nresume=17\nfrom-delta=3\n"},
      {All, "algoprof-wire/2\nauth=s3kr1t\nentry-class=App\n"
            "entry-method=run\nseeds=4,8,12\nruns=3\ninput=7,9\n"
            "policy=retry\nretries=4\nmax-heap-bytes=4096\ndeadline-ms=10\n"
            "inject=run-start-fail@run2\nsource=54\n"
            "class Main { static void main() { } }\nwith=weird\nlines"},
  };
  for (const auto &[Req, Bytes] : Cases) {
    EXPECT_EQ(Bytes, encodeJobRequest(Req));
    JobRequest P;
    std::string Err;
    ASSERT_TRUE(parseJobRequest(Bytes, P, Err)) << Bytes << ": " << Err;
    EXPECT_TRUE(P == Req) << Bytes;
  }
}

// parse(encode(R)) == R and encode(parse(P)) == P over random valid
// jobs: every key at random in-range values, each kind of goal.
TEST(JobKeys, RoundTripProperty) {
  std::mt19937_64 Rng(0x10b5eed);
  auto Pick = [&](int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
  };
  auto Ints = [&] {
    std::vector<int64_t> V(Pick(0, 4));
    for (int64_t &X : V)
      X = Pick(0, 3) == 0 ? Pick(-MaxInt64 - 1, MaxInt64) : Pick(-50, 50);
    return V;
  };
  const char *Names[] = {"Main", "main", "App", "run", "A.b", "x_1"};
  const char *Specs[] = {"", "heap-oom@run3",
                         "run-start-fail@run0:once,io-write-fail@report"};
  for (int Case = 0; Case < 500; ++Case) {
    JobRequest R;
    R.EntryClass = Names[Pick(0, 5)];
    R.EntryMethod = Names[Pick(0, 5)];
    R.Seeds = Ints();
    R.Runs = Pick(0, 1) ? 1 : static_cast<int>(Pick(1, 1'000'000'000));
    R.Input = Ints();
    R.Policy = static_cast<resilience::FailurePolicy>(Pick(0, 2));
    R.MaxAttempts = static_cast<int>(Pick(1, 1001));
    R.MaxHeapBytes = Pick(0, 1) ? 0 : Pick(0, MaxInt64);
    R.RunDeadlineMs = Pick(0, 1) ? 0 : Pick(0, 100000);
    R.InjectSpec = Specs[Pick(0, 2)];
    if (Pick(0, 1))
      R.Auth = "tok" + std::to_string(Pick(0, 99));
    switch (Pick(0, 2)) {
    case 0:
      R.Corpus = "prog" + std::to_string(Pick(0, 9));
      break;
    case 1:
      R.Source = "class Main {}\nx=1\n" + std::string(Pick(0, 40), '=');
      break;
    default:
      R.Resume = Pick(1, MaxInt64);
      R.FromDelta = Pick(0, 1) ? 0 : Pick(0, 1000);
    }
    const std::string P = encodeJobRequest(R);
    JobRequest Back;
    std::string Err;
    ASSERT_TRUE(parseJobRequest(P, Back, Err)) << P << ": " << Err;
    EXPECT_TRUE(Back == R) << P;
    EXPECT_EQ(P, encodeJobRequest(Back));
  }
}

//===----------------------------------------------------------------------===//
// One surface, one verdict
//===----------------------------------------------------------------------===//

// The same values as flags and as payload lines give the same job and
// the same SessionOptions.
TEST(JobKeys, FlagsAndPayloadGiveIdenticalSessions) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> Grid =
      {{"seeds", {"", "4", "4,-8,12", "-9223372036854775808"}},
       {"runs", {"1", "7", "1000000000"}},
       {"input", {"", "0", "3,4,5"}},
       {"policy", {"fail", "skip", "retry"}},
       {"retries", {"0", "2", "1000"}},
       {"max-heap-bytes", {"0", "4096", "9223372036854775807"}},
       {"deadline-ms", {"0", "250"}},
       {"inject", {"", "heap-oom@run3:once", "io-write-fail@report"}}};
  auto Check = [](const std::vector<std::string> &Args,
                  const std::string &Lines) {
    JobOptions Flags;
    JobRequest Wire;
    std::string Err;
    ASSERT_TRUE(parseFlags(Args, Flags, Err)) << Err;
    ASSERT_TRUE(parseJobRequest(payload(Lines), Wire, Err)) << Err;
    EXPECT_TRUE(Flags == static_cast<const JobOptions &>(Wire)) << Lines;
    EXPECT_EQ(sessionOf(Flags), sessionOf(Wire)) << Lines;
  };
  std::vector<std::string> AllArgs;
  std::string AllLines;
  for (const auto &[Key, Values] : Grid)
    for (const std::string &V : Values) {
      Check({"--" + Key, V}, Key + "=" + V + "\n");
      AllArgs.insert(AllArgs.end(), {"--" + Key, V});
      AllLines += Key + "=" + V + "\n";
    }
  // Every key at once, each repeated: the last value wins everywhere.
  Check(AllArgs, AllLines);
  Check({"--seeds", "4,8", "--seeds", "12"}, "seeds=4,8\nseeds=12\n");

  // The entry point: one flag, two payload keys.
  Check({"--entry", "App.run"}, "entry-class=App\nentry-method=run\n");
  Check({"--entry", "A.b.c"}, "entry-class=A\nentry-method=b.c\n");
}

// Invalid values are rejected by the flags and by the payload with the
// same "(expected ...)" text, which names the key's range.
TEST(JobKeys, FlagsAndPayloadRejectWithTheSameText) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> Grid =
      {{"seeds", {"1,,2", "1,x", ",", "4,", "99999999999999999999"}},
       {"runs",
        {"0", "-1", "x", "12abc", "1e3", "+5", " 5", "", "1000000001",
         "3000000000", "4294967297"}},
       {"input", {"1,2x,3", "1,,3", "9223372036854775808"}},
       {"policy", {"sometimes", "", "FAIL"}},
       {"retries", {"-1", "1001", "5000", "2147483647", "x"}},
       {"max-heap-bytes", {"-1", "9223372036854775808", "4k"}},
       {"deadline-ms", {"-5", "1.5", ""}},
       {"inject", {"bogus@run1", "heap-oom@metrics", ","}}};
  for (const auto &[Key, Values] : Grid) {
    const JobKey *K = findJobWireKey(Key);
    ASSERT_TRUE(K);
    ASSERT_EQ("--" + Key, K->Flag);
    for (const std::string &V : Values) {
      JobOptions Flags;
      JobRequest Wire;
      std::string FlagErr, WireErr;
      EXPECT_FALSE(parseFlags({"--" + Key, V}, Flags, FlagErr)) << V;
      EXPECT_FALSE(parseJobRequest(payload(Key + "=" + V + "\n"), Wire,
                                   WireErr))
          << V;
      EXPECT_TRUE(Flags == JobOptions()) << "a rejected value was applied";
      EXPECT_EQ("invalid value '" + V + "' for --" + Key + " (expected " +
                    K->expected() + ")",
                headPart(FlagErr));
      EXPECT_EQ(expectedPart(FlagErr), expectedPart(WireErr));
    }
  }
  // The counts name their range in the text.
  EXPECT_EQ("an integer in [1, 1000000000]", findJobFlag("--runs")->expected());
  EXPECT_EQ("an integer in [0, 1000]", findJobFlag("--retries")->expected());

  // A missing flag value, and the entry point's empty parts.
  std::string Err;
  JobOptions O;
  EXPECT_FALSE(parseFlags({"--runs"}, O, Err));
  EXPECT_EQ("invalid value '<missing>' for --runs (expected an integer in "
            "[1, 1000000000])",
            Err);
  for (const char *Bad : {".main", "Main.", "Main", "", "."})
    EXPECT_FALSE(parseFlags({"--entry", Bad}, O, Err)) << Bad;
  JobRequest R;
  for (const char *Bad : {"entry-class=\n", "entry-method=\n"})
    EXPECT_FALSE(parseJobRequest(payload(Bad), R, Err)) << Bad;
  EXPECT_TRUE(O == JobOptions());
}

//===----------------------------------------------------------------------===//
// Docs from the table
//===----------------------------------------------------------------------===//

namespace {

std::string readDoc(const char *Rel) {
  std::ifstream In(std::string(ALGOPROF_SOURCE_DIR) + "/" + Rel);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// \p Text as a markdown table cell writes it.
std::string cell(std::string Text) {
  for (size_t P = 0; (P = Text.find('|', P)) != std::string::npos; P += 2)
    Text.insert(P, "\\");
  return Text;
}

/// The table row of \p Doc whose first cell is `Name`, or "".
std::string rowOf(const std::string &Doc, const std::string &Name) {
  size_t P = Doc.find("\n| `" + Name + "` |");
  return P == std::string::npos ? ""
                                : Doc.substr(P + 1, Doc.find('\n', P + 1) - P);
}

} // namespace

// docs/service.md's Job payload table has a row per payload key, with
// the key's range and default; README.md's job-option table has a row
// per flag.
TEST(JobKeys, DocsListEveryKeyWithItsRange) {
  const std::string Service = readDoc("docs/service.md");
  const std::string Readme = readDoc("README.md");
  ASSERT_FALSE(Service.empty());
  ASSERT_FALSE(Readme.empty());
  for (const JobKey &K : jobKeys()) {
    for (const auto &[Doc, Name] :
         {std::pair(&Service, K.Wire), std::pair(&Readme, K.Flag)}) {
      if (!Name)
        continue;
      std::string Row = rowOf(*Doc, Name);
      ASSERT_FALSE(Row.empty()) << "no table row for `" << Name << "`";
      EXPECT_NE(Row.find(cell(K.expected())), std::string::npos)
          << Row << " lacks: " << cell(K.expected());
      if (*K.Default) {
        EXPECT_NE(Row.find(std::string("`") + K.Default + "`"),
                  std::string::npos)
            << Row << " lacks the default " << K.Default;
      }
    }
  }
}
