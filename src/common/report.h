#ifndef T3_COMMON_REPORT_H_
#define T3_COMMON_REPORT_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace t3 {

/// How bad a finding is. Errors make a model unusable (the loader and the
/// JIT reject it); warnings flag suspicious-but-runnable structure (dead
/// branches, duplicate splits) worth fixing in the trainer or the fixture.
enum class Severity {
  kWarning = 0,
  kError = 1,
};

const char* SeverityName(Severity severity);

/// One finding of a rule or analysis pass, anchored to a location:
///  - Forest rules (Forest::CheckStructure) and ForestVerifier: `tree` /
///    `node` index into the Forest IR (-1 when the finding is forest-global,
///    e.g. a bad feature count).
///  - Plan rules (CheckPlan, CheckPlanRecords) and PlanVerifier: `node` is
///    the plan node index, `tree` stays -1.
///  - TreeLifter and the validators: `tree` is the function region, `node`
///    the byte offset of the offending instruction inside the code buffer.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string check;    ///< Stable kebab-case check id, e.g. "dead-branch".
  int tree = -1;
  int node = -1;
  std::string message;

  /// "error[bad-feature-index] tree 3 node 7: feature 52 out of range".
  std::string ToString() const;
};

/// The collected findings of one pass (or several passes appended into one
/// report). A rule set reports every problem, so a linter can show
/// everything at once; the loaders gate on the same report's ToStatus().
class AnalysisReport {
 public:
  void Add(Severity severity, std::string check, int tree, int node,
           std::string message);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }
  size_t NumErrors() const;
  size_t NumWarnings() const;
  bool HasErrors() const { return NumErrors() > 0; }

  /// Appends another pass's findings (e.g. verifier + auditor into one
  /// lint report).
  void Merge(const AnalysisReport& other);

  /// One diagnostic per line, errors first within stable order.
  std::string ToString() const;

  /// OK when error-free; otherwise an InvalidArgument Status carrying the
  /// first error's text and the total error count — the bridge from the
  /// diagnostic world to Status-returning loaders.
  Status ToStatus() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace t3

#endif  // T3_COMMON_REPORT_H_
