//===- report/Reporter.cpp ------------------------------------------------===//

#include "report/Reporter.h"

#include "obs/Obs.h"
#include "report/CsvWriter.h"
#include "report/DotExporter.h"
#include "report/TablePrinter.h"
#include "report/TreePrinter.h"

#include <charconv>
#include <cstdio>

using namespace algoprof;
using namespace algoprof::prof;
using namespace algoprof::report;

Reporter::~Reporter() = default;

void report::fmtDouble(std::string &Out, double V) {
  // "%.17g" of any double fits: sign, 17 digits, point, "e-308".
  char Buf[32];
  std::to_chars_result R =
      std::to_chars(Buf, Buf + sizeof(Buf), V, std::chars_format::general, 17);
  Out.append(Buf, R.ptr);
}

std::string Reporter::render(const ReportInput &In) const {
  obs::ScopedSpan Span(obs::Phase::Report);
  return renderDocument(In);
}

//===----------------------------------------------------------------------===//
// Built-in reporters
//===----------------------------------------------------------------------===//

namespace {

void appendInt(std::string &Out, int64_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

const char *boolName(bool B) { return B ? "true" : "false"; }

class TreeReporter : public Reporter {
  std::string name() const override { return "tree"; }
  std::string renderDocument(const ReportInput &In) const override {
    return renderAnnotatedTree(*In.Tree, *In.Profiles);
  }
};

class TableReporter : public Reporter {
  std::string name() const override { return "table"; }
  std::string renderDocument(const ReportInput &In) const override {
    Table T({"algorithm", "classification", "input", "fit", "r2"});
    for (const AlgorithmProfile &AP : *In.Profiles) {
      bool AnyRow = false;
      for (const AlgorithmProfile::InputSeries &Ser : AP.Series) {
        if (!Ser.Interesting)
          continue;
        AnyRow = true;
        char R2[32];
        std::snprintf(R2, sizeof(R2), "%.3f", Ser.Fit.R2);
        T.addRow({"algo" + std::to_string(AP.Algo.Id), AP.Label, Ser.Kind,
                  Ser.Fit.Valid ? Ser.Fit.formula() : "-",
                  Ser.Fit.Valid ? R2 : "-"});
      }
      if (!AnyRow)
        T.addRow({"algo" + std::to_string(AP.Algo.Id), AP.Label, "-", "-",
                  "-"});
    }
    return T.str();
  }
};

class CsvReporter : public Reporter {
  std::string name() const override { return "csv"; }
  std::string renderDocument(const ReportInput &In) const override {
    // The exact assembly the legacy --csv flag performed; cli_test.sh
    // locks --format=csv to it byte for byte.
    std::vector<std::pair<std::string, std::vector<SeriesPoint>>> All;
    for (const AlgorithmProfile &AP : *In.Profiles)
      for (const AlgorithmProfile::InputSeries &Ser : AP.Series)
        if (Ser.Interesting)
          All.emplace_back("algo" + std::to_string(AP.Algo.Id) + ":" +
                               Ser.Kind,
                           Ser.Series);
    return seriesToCsv(All);
  }
};

class DotReporter : public Reporter {
  std::string name() const override { return "dot"; }
  std::string renderDocument(const ReportInput &In) const override {
    return repetitionTreeToDot(*In.Tree, *In.Profiles);
  }
};

/// The stable machine-readable schema. Versioned ("algoprof-profile/2");
/// any field removal or meaning change bumps the version. /2 added the
/// always-present "degraded_runs" array (one entry per run whose final
/// attempt failed; see docs/resilience.md).
class JsonReporter : public Reporter {
  std::string name() const override { return "json"; }

  static void appendEscaped(std::string &Out, const std::string &S) {
    for (char C : S) {
      switch (C) {
      case '"':
        Out += "\\\"";
        break;
      case '\\':
        Out += "\\\\";
        break;
      case '\n':
        Out += "\\n";
        break;
      case '\t':
        Out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(C) < 0x20) {
          static const char Hex[] = "0123456789abcdef";
          Out += "\\u00";
          Out += Hex[C >> 4];
          Out += Hex[C & 0xf];
        } else {
          Out += C;
        }
      }
    }
  }

  static void appendFit(std::string &Out, const fit::FitResult &F,
                        const char *Indent) {
    Out += "{\n";
    Out += Indent;
    Out += "  \"model\": \"";
    Out += fit::modelKindName(F.Kind);
    Out += "\",\n";
    Out += Indent;
    Out += "  \"formula\": \"";
    appendEscaped(Out, F.formula());
    Out += "\",\n";
    Out += Indent;
    Out += "  \"r2\": ";
    fmtDouble(Out, F.R2);
    Out += "\n";
    Out += Indent;
    Out += "}";
  }

  /// A size estimate of the document, so it renders into one
  /// allocation: a little above the typical bytes per element (a point
  /// with integer size and cost takes ~26), since falling short doubles
  /// the buffer. Rendered documents may be retained (the daemon keeps
  /// them for resumes), so the estimate must not overshoot much either.
  static size_t sizeHint(const ReportInput &In) {
    size_t N = 96;
    for (const AlgorithmProfile &AP : *In.Profiles) {
      N += 288 + AP.Label.size() + 60 * AP.Class.Inputs.size();
      for (const AlgorithmProfile::InputSeries &Ser : AP.Series)
        N += 144 + Ser.Kind.size() + 30 * Ser.Series.size() +
             (Ser.Fit.Valid ? 144 : 0) + 200 * Ser.MeasureFits.size();
    }
    if (In.Degraded)
      for (const resilience::FailureInfo &FI : *In.Degraded)
        N += 192 + FI.Budget.size() + FI.Message.size();
    return N;
  }

  std::string renderDocument(const ReportInput &In) const override {
    std::string Out;
    Out.reserve(sizeHint(In));
    Out += "{\n  \"schema\": \"algoprof-profile/2\",\n";
    Out += "  \"algorithms\": [";
    bool FirstAlgo = true;
    for (const AlgorithmProfile &AP : *In.Profiles) {
      Out += FirstAlgo ? "\n" : ",\n";
      FirstAlgo = false;
      Out += "    {\n";
      Out += "      \"id\": ";
      appendInt(Out, AP.Algo.Id);
      Out += ",\n";
      Out += "      \"label\": \"";
      appendEscaped(Out, AP.Label);
      Out += "\",\n";
      Out += "      \"classification\": {\n";
      Out += "        \"data_structureless\": ";
      Out += boolName(AP.Class.dataStructureless());
      Out += ",\n        \"does_input\": ";
      Out += boolName(AP.Class.DoesInput);
      Out += ",\n        \"does_output\": ";
      Out += boolName(AP.Class.DoesOutput);
      Out += ",\n";
      Out += "        \"inputs\": [";
      bool FirstCls = true;
      for (const Classification::PerInput &PI : AP.Class.Inputs) {
        Out += FirstCls ? "\n" : ",\n";
        FirstCls = false;
        Out += "          {\"input_id\": ";
        appendInt(Out, PI.InputId);
        Out += ", \"class\": \"";
        Out += algorithmClassName(PI.Class);
        Out += "\"}";
      }
      Out += FirstCls ? "]\n" : "\n        ]\n";
      Out += "      },\n";
      Out += "      \"series\": [";
      bool FirstSer = true;
      for (const AlgorithmProfile::InputSeries &Ser : AP.Series) {
        Out += FirstSer ? "\n" : ",\n";
        FirstSer = false;
        Out += "        {\n";
        Out += "          \"input_kind\": \"";
        appendEscaped(Out, Ser.Kind);
        Out += "\",\n";
        Out += "          \"interesting\": ";
        Out += boolName(Ser.Interesting);
        Out += ",\n";
        Out += "          \"points\": [";
        bool FirstPt = true;
        for (const SeriesPoint &Pt : Ser.Series) {
          Out += FirstPt ? "{\"size\": " : ", {\"size\": ";
          FirstPt = false;
          fmtDouble(Out, Pt.X);
          Out += ", \"cost\": ";
          fmtDouble(Out, Pt.Y);
          Out += "}";
        }
        Out += "]";
        if (Ser.Interesting && Ser.Fit.Valid) {
          Out += ",\n          \"fit\": ";
          appendFit(Out, Ser.Fit, "          ");
        }
        if (!Ser.MeasureFits.empty()) {
          Out += ",\n          \"measure_fits\": [";
          bool FirstMf = true;
          for (const auto &[Measure, F] : Ser.MeasureFits) {
            Out += FirstMf ? "\n" : ",\n";
            FirstMf = false;
            Out += "            {\"measure\": \"";
            Out += costKindLabel(Measure);
            Out += "\", \"fit\": ";
            appendFit(Out, F, "            ");
            Out += "}";
          }
          Out += "\n          ]";
        }
        Out += "\n        }";
      }
      Out += FirstSer ? "]\n" : "\n      ]\n";
      Out += "    }";
    }
    Out += FirstAlgo ? "]," : "\n  ],";
    Out += "\n  \"degraded_runs\": [";
    bool FirstDeg = true;
    if (In.Degraded)
      for (const resilience::FailureInfo &FI : *In.Degraded) {
        Out += FirstDeg ? "\n" : ",\n";
        FirstDeg = false;
        Out += "    {\"run\": ";
        appendInt(Out, FI.Run);
        Out += ", \"status\": \"";
        Out += vm::runStatusName(FI.Status);
        Out += "\", \"attempts\": ";
        appendInt(Out, FI.Attempts);
        Out += ", \"budget\": \"";
        appendEscaped(Out, FI.Budget);
        Out += "\", \"quarantined\": ";
        Out += boolName(FI.Quarantined);
        Out += ", \"injected\": ";
        Out += boolName(FI.Injected);
        Out += ", \"message\": \"";
        appendEscaped(Out, FI.Message);
        Out += "\"}";
      }
    Out += FirstDeg ? "]\n" : "\n  ]\n";
    Out += "}\n";
    return Out;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Registry::Registry() = default;
Registry::~Registry() = default;

void Registry::add(std::unique_ptr<Reporter> R) {
  for (std::unique_ptr<Reporter> &Existing : Reporters)
    if (Existing->name() == R->name()) {
      Existing = std::move(R);
      return;
    }
  Reporters.push_back(std::move(R));
}

const Reporter *Registry::find(const std::string &Name) const {
  for (const std::unique_ptr<Reporter> &R : Reporters)
    if (R->name() == Name)
      return R.get();
  return nullptr;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> Names;
  Names.reserve(Reporters.size());
  for (const std::unique_ptr<Reporter> &R : Reporters)
    Names.push_back(R->name());
  return Names;
}

const Registry &Registry::builtin() {
  static Registry *B = [] {
    auto *R = new Registry();
    R->add(std::make_unique<TableReporter>());
    R->add(std::make_unique<TreeReporter>());
    R->add(std::make_unique<CsvReporter>());
    R->add(std::make_unique<DotReporter>());
    R->add(std::make_unique<JsonReporter>());
    return R;
  }();
  return *B;
}
