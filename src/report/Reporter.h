//===- report/Reporter.h - Unified report rendering -------------*- C++-*-===//
///
/// \file
/// One interface over every profile renderer. The report module grew
/// five unrelated entry points (TreePrinter, TablePrinter, CsvWriter,
/// DotExporter, AsciiPlot); Reporter puts a single `render(state) ->
/// document` contract in front of them, and Registry maps the CLI's
/// `--format` names to implementations:
///
///   table  column-aligned algorithm summary (TablePrinter)
///   tree   annotated repetition tree, the default stdout view
///   csv    interesting <size, cost> series (byte-identical to the
///          legacy --csv flag; locked by tests/cli_test.sh)
///   dot    Graphviz repetition tree (byte-identical to legacy --dot)
///   json   the stable machine-readable profile schema
///          "algoprof-profile/2" (see docs/observability.md; /2 added
///          the degraded_runs array — docs/resilience.md)
///
/// The low-level renderers remain available for callers that want a
/// specific document (the bench binaries use them directly); the CLI
/// and anything driven by a format *name* goes through the Registry.
///
//===----------------------------------------------------------------------===//

#ifndef ALGOPROF_REPORT_REPORTER_H
#define ALGOPROF_REPORT_REPORTER_H

#include "core/Session.h"

#include <memory>
#include <string>
#include <vector>

namespace algoprof {
namespace report {

/// The profile state a reporter renders: the merged repetition tree,
/// input table, and built profiles of one session. All pointers are
/// non-owning and must outlive the render call.
struct ReportInput {
  const prof::RepetitionTree *Tree = nullptr;
  const prof::InputTable *Inputs = nullptr;
  const std::vector<prof::AlgorithmProfile> *Profiles = nullptr;
  /// Degraded-run records of the session (ProfileDriver::failures()),
  /// or null when the caller has none. Rendered by the json format as
  /// the schema /2 "degraded_runs" array (empty when null or empty).
  const std::vector<resilience::FailureInfo> *Degraded = nullptr;
};

/// A named profile renderer. Implementations are stateless and
/// reusable across sessions.
class Reporter {
public:
  virtual ~Reporter();

  /// The format name ("csv"), as accepted by --format.
  virtual std::string name() const = 0;

  /// Renders \p In into one complete document. Wraps the virtual
  /// renderer in the obs Report phase span.
  std::string render(const ReportInput &In) const;

private:
  virtual std::string renderDocument(const ReportInput &In) const = 0;
};

/// Appends \p V to \p Out exactly as printf's "%.17g" prints it: 17
/// significant digits, enough for any double to read back unchanged,
/// which the json format uses for every number of a series or fit.
/// Formats through std::to_chars in general format at precision 17.
void fmtDouble(std::string &Out, double V);

/// Name -> Reporter map.
class Registry {
public:
  /// An empty registry. Most callers want builtin().
  Registry();
  ~Registry();

  /// Registers \p R, replacing any reporter with the same name.
  void add(std::unique_ptr<Reporter> R);

  /// Looks up a format name; null when unknown.
  const Reporter *find(const std::string &Name) const;

  /// Registered names, in registration order ("table|tree|csv|...").
  std::vector<std::string> names() const;

  /// The registry with the five built-in formats.
  static const Registry &builtin();

private:
  std::vector<std::unique_ptr<Reporter>> Reporters;
};

} // namespace report
} // namespace algoprof

#endif // ALGOPROF_REPORT_REPORTER_H
