// t3_lint — static verifier driver for T3 artifacts: model files, plan
// files, and corpora.
//
//   t3_lint [--strict] [--json] <file>...
//
// The file kind is sniffed from the header token and picks the pass stack:
//
//  model ("t3model target <n>" + "t3gbt v1" body; any other file):
//   1. parse                  — ParseModelHeader, the one reader of the
//                               target line T3Model::LoadFromFile uses,
//                               then ParseTextUnvalidated over the body (no
//                               early-reject gate, so every finding is
//                               reported),
//   2. forest-verifier        — ForestVerifier over the forest IR,
//   3. translation-validation — TranslationValidator over the exact bytes
//                               the tree JIT would map executable: lift
//                               them back into decision trees (which
//                               proves them safe: whitelisted grammar,
//                               contained control flow, in-bounds loads)
//                               and prove they compute the forest
//                               (bit-equal constants, identical NaN
//                               routing, equal outputs over every
//                               threshold-induced input cell).
//   Pass 3 needs the x86-64 emitter and runs only when the forest IR is
//   error-free (the emitter's preconditions are exactly the verifier's
//   Error checks); it is reported as "skipped" otherwise. Models over
//   the 48-feature registry space additionally get an informational
//   dead-feature report (registry features the forest never splits on).
//
//  plan ("t3plan v1"):
//   1. parse       — ParsePlanText (syntax only),
//   2. plan-verify — PlanVerifier over the node records: topology, arity,
//                    annotations, stage tags vs a recomputed pipeline
//                    decomposition, breaker placement.
//
//  corpus ("t3corpus v1"):
//   1. parse          — the harness corpus parser,
//   2. plan-verify    — PlanVerifier over every record's plan skeleton,
//   3. feature-audit  — FeatureAuditor over every FT/FE vector (finiteness,
//                       count/percentage ranges, true-vs-estimated
//                       structural identity),
//   4. corpus-audit   — CorpusAuditor cross-checks: medians vs runs, block
//                       shapes, feature counts vs the recomputed
//                       decomposition, duplicate records.
//
// Every invocation also audits the feature registry itself once (reported
// as pseudo-file "(feature-registry)"): catalog x registry index coverage,
// predicate-class exhaustiveness, executor stage mapping.
//
// Exit status (what CI gates on — machine-checkable, no stdout grepping):
//   0  every file clean,
//   1  warnings only,
//   2  any Error finding, unreadable file, or usage error.
// --strict promotes warnings to exit 2.
//
// --json replaces the human-readable report with one JSON document on
// stdout: per-file kind, pass outcomes and diagnostics plus aggregate
// counts.

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/corpus_auditor.h"
#include "analysis/feature_auditor.h"
#include "analysis/forest_verifier.h"
#include "analysis/plan_verifier.h"
#include "analysis/translation_validator.h"
#include "cli_util.h"
#include "common/string_util.h"
#include "gbt/forest.h"
#include "harness/corpus.h"
#include "model/t3_model.h"
#include "plan/plan_file.h"
#include "treejit/jit.h"

namespace {

/// Outcome of one analysis pass over one file.
enum class PassState { kOk, kFailed, kSkipped };

const char* PassStateName(PassState state) {
  switch (state) {
    case PassState::kOk:
      return "ok";
    case PassState::kFailed:
      return "failed";
    case PassState::kSkipped:
      return "skipped";
  }
  return "unknown";
}

struct PassResult {
  const char* name;
  PassState state = PassState::kSkipped;
};

/// Everything the linter learned about one file; rendered as text or JSON.
struct FileResult {
  std::string path;
  const char* kind = "model";  // model | plan | corpus | registry
  std::vector<PassResult> passes;
  t3::AnalysisReport report;
  bool unreadable = false;
  std::string unreadable_message;
  // Model files.
  size_t trees = 0;
  size_t nodes = 0;
  int features = 0;
  std::vector<std::string> dead_features;  ///< Informational, no severity.
  // Plan files / corpora.
  size_t plan_nodes = 0;
  size_t records = 0;
  size_t pipelines = 0;

  /// 0 clean / 1 warnings / 2 errors, before --strict promotion.
  int ExitCode() const {
    if (unreadable || report.HasErrors()) return 2;
    if (report.NumWarnings() > 0) return 1;
    return 0;
  }
};

/// Records the outcome of the file's parse pass (passes[0]): a failure is
/// an Error finding. True when the parse succeeded.
bool ParsePassed(const t3::Status& status, FileResult* result) {
  result->passes[0].state = status.ok() ? PassState::kOk : PassState::kFailed;
  if (!status.ok()) {
    result->report.Add(t3::Severity::kError, "parse", -1, -1,
                       status.message());
  }
  return status.ok();
}

void LintModel(const std::string& content, FileResult* result) {
  result->kind = "model";
  result->passes = {
      {"parse"}, {"forest-verifier"}, {"translation-validation"}};
  PassResult& verify = result->passes[1];
  PassResult& translate = result->passes[2];

  std::string_view body = content;
  const t3::Result<t3::PredictionTarget> target = t3::ParseModelHeader(&body);
  if (!ParsePassed(target.status(), result)) return;
  t3::Result<t3::Forest> forest = t3::Forest::ParseTextUnvalidated(body);
  if (!ParsePassed(forest.status(), result)) return;
  result->trees = forest->trees.size();
  result->nodes = forest->NumNodes();
  result->features = forest->num_features;
  result->dead_features = t3::FeatureAuditor().DeadFeatures(*forest);

  result->report = t3::ForestVerifier().Verify(*forest);
  verify.state =
      result->report.HasErrors() ? PassState::kFailed : PassState::kOk;

  // Only analyze code emitted from a verified forest: the emitter's own
  // preconditions are exactly the verifier's Error checks.
  if (verify.state != PassState::kOk || !t3::JitSupported()) return;

  t3::Result<t3::JitArtifact> artifact = t3::EmitForestCode(*forest);
  if (!artifact.ok()) {
    translate.state = PassState::kFailed;
    result->report.Add(t3::Severity::kError, "jit-emit", -1, -1,
                       artifact.status().message());
    return;
  }
  const t3::AnalysisReport equivalence =
      t3::TranslationValidator().Validate(*forest, artifact->code.data(),
                                          artifact->code.size(),
                                          artifact->entries);
  translate.state =
      equivalence.HasErrors() ? PassState::kFailed : PassState::kOk;
  result->report.Merge(equivalence);
}

void LintPlan(const std::string& content, FileResult* result) {
  result->kind = "plan";
  result->passes = {{"parse"}, {"plan-verify"}};
  PassResult& verify = result->passes[1];

  t3::Result<std::vector<t3::PlanNodeRecord>> records =
      t3::ParsePlanText(content);
  if (!ParsePassed(records.status(), result)) return;
  result->plan_nodes = records->size();

  result->report = t3::PlanVerifier().VerifyRecords(*records);
  verify.state =
      result->report.HasErrors() ? PassState::kFailed : PassState::kOk;
}

/// Which corpus pass a CorpusAuditor finding belongs to, by check-id
/// namespace: merged PlanVerifier findings keep their plan-* ids, merged
/// FeatureAuditor findings their feature-*/registry-* ids.
const char* CorpusPassFor(const std::string& check) {
  if (check.rfind("plan-", 0) == 0) return "plan-verify";
  if (check.rfind("feature-", 0) == 0 || check.rfind("registry-", 0) == 0) {
    return "feature-audit";
  }
  return "corpus-audit";
}

void LintCorpus(const std::string& content, const std::string& path,
                FileResult* result) {
  result->kind = "corpus";
  result->passes = {{"parse"},
                    {"plan-verify"},
                    {"feature-audit"},
                    {"corpus-audit"}};

  t3::Result<t3::Corpus> corpus = t3::ParseCorpus(content, path);
  if (!ParsePassed(corpus.status(), result)) return;
  result->records = corpus->records.size();
  result->pipelines = corpus->NumPipelines();

  result->report = t3::CorpusAuditor().Audit(*corpus, path);
  for (size_t p = 1; p < result->passes.size(); ++p) {
    result->passes[p].state = PassState::kOk;
  }
  for (const t3::Diagnostic& diagnostic : result->report.diagnostics()) {
    if (diagnostic.severity != t3::Severity::kError) continue;
    const char* pass = CorpusPassFor(diagnostic.check);
    for (size_t p = 1; p < result->passes.size(); ++p) {
      if (std::strcmp(result->passes[p].name, pass) == 0) {
        result->passes[p].state = PassState::kFailed;
      }
    }
  }
}

FileResult LintFile(const std::string& path) {
  FileResult result;
  result.path = path;

  t3::Result<std::string> content = t3::ReadFileToString(path);
  if (!content.ok()) {
    result.unreadable = true;
    result.unreadable_message = content.status().ToString();
    result.passes = {{"parse", PassState::kFailed}};
    return result;
  }
  // Sniff the header token; the three formats are self-identifying.
  if (content->rfind("t3corpus", 0) == 0) {
    LintCorpus(*content, path, &result);
  } else if (content->rfind("t3plan", 0) == 0) {
    LintPlan(*content, &result);
  } else {
    LintModel(*content, &result);
  }
  return result;
}

/// The once-per-invocation registry self-audit, reported as a pseudo-file.
FileResult LintRegistry() {
  FileResult result;
  result.path = "(feature-registry)";
  result.kind = "registry";
  result.report = t3::FeatureAuditor().AuditRegistry();
  result.passes = {{"registry-audit", result.report.HasErrors()
                                          ? PassState::kFailed
                                          : PassState::kOk}};
  return result;
}

void PrintHuman(const FileResult& result) {
  if (result.unreadable) {
    std::fprintf(stderr, "%s: %s\n", result.path.c_str(),
                 result.unreadable_message.c_str());
    return;
  }
  for (const t3::Diagnostic& diagnostic : result.report.diagnostics()) {
    std::printf("%s: %s\n", result.path.c_str(),
                diagnostic.ToString().c_str());
  }
  for (const std::string& name : result.dead_features) {
    std::printf("%s: note[dead-feature] %s is never split on\n",
                result.path.c_str(), name.c_str());
  }
  std::string passes;
  for (const PassResult& pass : result.passes) {
    if (!passes.empty()) passes += ' ';
    passes += pass.name;
    passes += '=';
    passes += PassStateName(pass.state);
  }
  std::string stats;
  if (std::strcmp(result.kind, "model") == 0) {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "%zu trees, %zu nodes, %d features",
                  result.trees, result.nodes, result.features);
    stats = buffer;
  } else if (std::strcmp(result.kind, "plan") == 0) {
    stats = std::to_string(result.plan_nodes) + " plan nodes";
  } else if (std::strcmp(result.kind, "corpus") == 0) {
    stats = std::to_string(result.records) + " records, " +
            std::to_string(result.pipelines) + " pipelines";
  } else {
    stats = "feature registry";
  }
  std::printf("%s: %s [%s]: %zu errors, %zu warnings\n", result.path.c_str(),
              stats.c_str(), passes.c_str(), result.report.NumErrors(),
              result.report.NumWarnings());
}

void PrintJson(const std::vector<FileResult>& results, int exit_code) {
  std::printf("{\n  \"files\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const FileResult& result = results[i];
    std::printf("    {\n      \"path\": %s,\n      \"kind\": \"%s\",\n",
                t3::JsonQuote(result.path).c_str(), result.kind);
    if (result.unreadable) {
      std::printf("      \"unreadable\": %s,\n",
                  t3::JsonQuote(result.unreadable_message).c_str());
    }
    if (std::strcmp(result.kind, "model") == 0) {
      std::printf("      \"trees\": %zu,\n      \"nodes\": %zu,\n"
                  "      \"features\": %d,\n",
                  result.trees, result.nodes, result.features);
      std::printf("      \"dead_features\": [");
      for (size_t d = 0; d < result.dead_features.size(); ++d) {
        std::printf("%s%s", d == 0 ? "" : ", ",
                    t3::JsonQuote(result.dead_features[d]).c_str());
      }
      std::printf("],\n");
    } else if (std::strcmp(result.kind, "plan") == 0) {
      std::printf("      \"plan_nodes\": %zu,\n", result.plan_nodes);
    } else if (std::strcmp(result.kind, "corpus") == 0) {
      std::printf("      \"records\": %zu,\n      \"pipelines\": %zu,\n",
                  result.records, result.pipelines);
    }
    std::printf("      \"passes\": {");
    for (size_t p = 0; p < result.passes.size(); ++p) {
      std::printf("%s\"%s\": \"%s\"", p == 0 ? "" : ", ",
                  result.passes[p].name,
                  PassStateName(result.passes[p].state));
    }
    std::printf("},\n      \"diagnostics\": [");
    const std::vector<t3::Diagnostic>& diagnostics =
        result.report.diagnostics();
    for (size_t d = 0; d < diagnostics.size(); ++d) {
      const t3::Diagnostic& diagnostic = diagnostics[d];
      std::printf("%s\n        {\"severity\": \"%s\", \"check\": %s, "
                  "\"tree\": %d, \"node\": %d, \"message\": %s}",
                  d == 0 ? "" : ",", t3::SeverityName(diagnostic.severity),
                  t3::JsonQuote(diagnostic.check).c_str(), diagnostic.tree,
                  diagnostic.node, t3::JsonQuote(diagnostic.message).c_str());
    }
    std::printf("%s],\n", diagnostics.empty() ? "" : "\n      ");
    std::printf("      \"errors\": %zu,\n      \"warnings\": %zu\n    }%s\n",
                result.report.NumErrors(), result.report.NumWarnings(),
                i + 1 == results.size() ? "" : ",");
  }
  size_t errors = 0;
  size_t warnings = 0;
  for (const FileResult& result : results) {
    errors += result.report.NumErrors();
    warnings += result.report.NumWarnings();
  }
  std::printf("  ],\n  \"errors\": %zu,\n  \"warnings\": %zu,\n"
              "  \"exit\": %d\n}\n",
              errors, warnings, exit_code);
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  bool json = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (argv[i][0] == '-') {
      t3::CliError("t3_lint", argv[i], "is not a recognized flag");
      return 2;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "usage: t3_lint [--strict] [--json] <file>...\n");
    return 2;
  }

  std::vector<FileResult> results;
  results.reserve(paths.size() + 1);
  results.push_back(LintRegistry());
  for (const std::string& path : paths) {
    results.push_back(LintFile(path));
  }
  int exit_code = 0;
  for (const FileResult& result : results) {
    int code = result.ExitCode();
    if (strict && code == 1) code = 2;
    if (code > exit_code) exit_code = code;
  }

  if (json) {
    PrintJson(results, exit_code);
  } else {
    for (const FileResult& result : results) PrintHuman(result);
  }
  return exit_code;
}
