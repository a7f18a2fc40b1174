#ifndef T3_ANALYSIS_CORPUS_AUDITOR_H_
#define T3_ANALYSIS_CORPUS_AUDITOR_H_

#include <string>

#include "common/report.h"
#include "harness/corpus.h"

namespace t3 {

/// Static auditor of parsed corpora — the last stop of the plan -> features
/// -> corpus data path. The corpus parser only checks syntax; this pass
/// checks that the parsed records are *internally consistent*: every plan
/// skeleton passes PlanVerifier, every feature vector passes FeatureAuditor,
/// medians really are the medians of their runs, pipeline blocks line up
/// with a recomputed decomposition, and the per-pipeline stage counts in
/// FT/FE match what the featurizer would emit for that plan shape.
///
/// Messages carry the same "<path> line N: " prefix as corpus parse errors
/// (CorpusMessagePrefix); diagnostics anchor `tree` to the record index and
/// `node` to a plan-node, pipeline, or feature index depending on the
/// check. Check ids (beyond merged plan-*/feature-* findings):
///   corpus-label         — non-finite or non-positive training label.
///   corpus-runs          — run-count mismatch between R/T/P lines.
///   corpus-median        — stored median is not the median of its runs.
///   corpus-time          — negative or non-finite measured seconds.
///   corpus-pipeline      — pipeline ids out of order or block sizes
///                          inconsistent.
///   corpus-decomposition — pipeline count diverges from the recomputed
///                          decomposition of the plan skeleton.
///   corpus-count         — FT/FE stage-count features diverge from the
///                          recomputed decomposition's stage multiset.
///   corpus-card          — estimated input cardinality diverges from the
///                          pipeline source's plan cardinality.
///   corpus-duplicate     — identical (instance, plan, features) record
///                          seen earlier (warning: double-counted row).
///
/// Header-only over harness structs (plain data members), so it lives in
/// t3_analysis without a harness link and BuildLiveCorpus can self-audit.
class CorpusAuditor {
 public:
  /// Audits every record plus cross-record duplicate detection. `path`
  /// prefixes messages (empty = parsed from memory).
  AnalysisReport Audit(const Corpus& corpus, const std::string& path) const;

  /// Audits one record in isolation.
  AnalysisReport AuditRecord(const QueryRecord& record, int record_index,
                             const std::string& path) const;
};

}  // namespace t3

#endif  // T3_ANALYSIS_CORPUS_AUDITOR_H_
