#include "common/report.h"

#include <utility>

#include "common/string_util.h"

namespace t3 {

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::string out = StrFormat("%s[%s]", SeverityName(severity), check.c_str());
  if (tree >= 0) out += StrFormat(" tree %d", tree);
  if (node >= 0) out += StrFormat(" node %d", node);
  out += ": ";
  out += message;
  return out;
}

void AnalysisReport::Add(Severity severity, std::string check, int tree,
                         int node, std::string message) {
  Diagnostic diagnostic;
  diagnostic.severity = severity;
  diagnostic.check = std::move(check);
  diagnostic.tree = tree;
  diagnostic.node = node;
  diagnostic.message = std::move(message);
  diagnostics_.push_back(std::move(diagnostic));
}

size_t AnalysisReport::NumErrors() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    n += d.severity == Severity::kError ? 1 : 0;
  }
  return n;
}

size_t AnalysisReport::NumWarnings() const {
  return diagnostics_.size() - NumErrors();
}

void AnalysisReport::Merge(const AnalysisReport& other) {
  diagnostics_.insert(diagnostics_.end(), other.diagnostics_.begin(),
                      other.diagnostics_.end());
}

std::string AnalysisReport::ToString() const {
  std::string out;
  for (const Severity severity : {Severity::kError, Severity::kWarning}) {
    for (const Diagnostic& d : diagnostics_) {
      if (d.severity != severity) continue;
      out += d.ToString();
      out.push_back('\n');
    }
  }
  return out;
}

Status AnalysisReport::ToStatus() const {
  const size_t errors = NumErrors();
  if (errors == 0) return Status::OK();
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity != Severity::kError) continue;
    if (errors == 1) return InvalidArgumentError(d.ToString());
    return InvalidArgumentError(StrFormat(
        "%s (+%zu more errors)", d.ToString().c_str(), errors - 1));
  }
  return Status::OK();  // Unreachable; errors > 0 guarantees a return above.
}

}  // namespace t3
