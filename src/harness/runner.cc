#include "harness/runner.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "analysis/corpus_auditor.h"
#include "common/check.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "datagen/generator.h"
#include "datagen/spec.h"
#include "engine/executor.h"
#include "features/featurizer.h"
#include "plan/pipeline.h"
#include "querygen/suites.h"

namespace t3 {

Result<Database> GenerateDatabase(const std::string& instance, uint64_t seed,
                                  double scale_override, ThreadPool* pool) {
  Result<const InstanceSpec*> spec = FindInstance(instance);
  if (!spec.ok()) return spec.status();
  DatagenOptions options;
  options.seed = seed;
  options.scale_override = scale_override;
  options.pool = pool;
  Result<Catalog> catalog = GenerateInstance(**spec, options);
  if (!catalog.ok()) return catalog.status();
  return Database((*spec)->name, *std::move(catalog));
}

int InstanceScaleIndex(const std::string& instance) {
  Result<const InstanceSpec*> spec = FindInstance(instance);
  if (!spec.ok()) return 0;
  int index = 0;
  for (const InstanceSpec& other : AllInstances()) {
    if (other.name == instance) return index;
    if (other.family == (*spec)->family) ++index;
  }
  return 0;
}

bool InstanceIsTest(const std::string& instance) {
  Result<const InstanceSpec*> spec = FindInstance(instance);
  return spec.ok() && (*spec)->family == "tpcds";
}

Result<QueryRecord> BenchmarkQuery(const Database& db,
                                   const GeneratedQuery& query, int runs) {
  if (runs < 1) return InvalidArgumentError("runs must be >= 1");
  PhysicalPlan plan = query.plan;
  Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
  if (!decomposition.ok()) return decomposition.status();
  AnnotatePipelineStages(&plan, *decomposition);

  const Executor executor(db.catalog());
  std::vector<double> total_seconds;
  std::vector<std::vector<double>> pipeline_seconds(
      decomposition->pipelines.size());
  std::vector<double> true_rows;
  for (int run = 0; run < runs; ++run) {
    Result<ExplainAnalyze> executed = executor.Execute(plan);
    if (!executed.ok()) return executed.status();
    total_seconds.push_back(executed->total_seconds);
    if (executed->pipelines.size() != decomposition->pipelines.size()) {
      return InternalError("executor pipeline count mismatch");
    }
    for (const PipelineStats& stats : executed->pipelines) {
      pipeline_seconds[static_cast<size_t>(stats.pipeline)].push_back(
          stats.seconds);
    }
    if (run == 0) {
      // Execution is deterministic, so measured cardinalities are identical
      // across runs; take them from the first.
      true_rows.reserve(executed->operators.size());
      for (const OperatorStats& stats : executed->operators) {
        true_rows.push_back(static_cast<double>(stats.rows_out));
      }
    }
  }

  Result<std::vector<PipelineFeatures>> feat_true =
      ComputePipelineFeatures(db.catalog(), plan, *decomposition, true_rows);
  if (!feat_true.ok()) return feat_true.status();
  Result<std::vector<PipelineFeatures>> feat_est = ComputePipelineFeatures(
      db.catalog(), plan, *decomposition, NodeOutputRowsFromPlan(plan));
  if (!feat_est.ok()) return feat_est.status();

  QueryRecord record;
  record.instance = db.name();
  record.is_test = InstanceIsTest(db.name());
  record.scale_index = InstanceScaleIndex(db.name());
  record.structure_group = query.structure_group;
  record.fixed_suite = query.fixed_suite;
  record.runs = runs;
  record.median_seconds = Median(total_seconds);
  record.plan_nodes = PlanToRecords(plan);
  record.total_run_seconds = std::move(total_seconds);
  for (size_t p = 0; p < pipeline_seconds.size(); ++p) {
    PipelineTiming timing;
    timing.pipeline = static_cast<int>(p);
    timing.median_seconds = Median(pipeline_seconds[p]);
    timing.run_seconds = std::move(pipeline_seconds[p]);
    record.pipeline_times.push_back(std::move(timing));
  }
  record.feat_true = *std::move(feat_true);
  record.feat_est = *std::move(feat_est);
  return record;
}

Result<Corpus> BuildLiveCorpus(const LiveCorpusOptions& options) {
  std::vector<std::string> instances = options.instances;
  if (instances.empty()) {
    for (const InstanceSpec& spec : AllInstances()) {
      instances.push_back(spec.name);
    }
  }
  Corpus corpus;
  for (const std::string& instance : instances) {
    Result<Database> db = GenerateDatabase(instance, options.seed,
                                           options.scale_override,
                                           options.pool);
    if (!db.ok()) return db.status();

    std::vector<GeneratedQuery> queries;
    QueryGenerator generator(&db->catalog(), options.seed);
    const std::vector<QueryGroup>& groups =
        options.groups.empty() ? AllQueryGroups() : options.groups;
    for (QueryGroup group : groups) {
      for (int index = 0; index < options.queries_per_group; ++index) {
        Result<GeneratedQuery> query = generator.Generate(group, index);
        if (query.ok()) queries.push_back(*std::move(query));
      }
    }
    if (options.fixed_suites) {
      Result<const InstanceSpec*> spec = FindInstance(instance);
      if (spec.ok()) {
        Result<std::vector<GeneratedQuery>> suite =
            FixedSuiteForFamily(db->catalog(), (*spec)->family);
        if (!suite.ok()) return suite.status();
        for (GeneratedQuery& query : *suite) {
          queries.push_back(std::move(query));
        }
      }
    }

    for (const GeneratedQuery& query : queries) {
      Result<QueryRecord> record = BenchmarkQuery(*db, query, options.runs);
      if (!record.ok()) {
        std::fprintf(stderr, "BuildLiveCorpus: skipping %s on %s: %s\n",
                     query.name.c_str(), instance.c_str(),
                     record.status().ToString().c_str());
        continue;
      }
      corpus.records.push_back(*std::move(record));
    }
  }
#ifndef NDEBUG
  // Debug-build self-audit: a freshly benchmarked corpus must pass the same
  // static checks t3_lint applies to saved corpora. Catching a featurizer or
  // decomposition regression here pins it to the producing run instead of a
  // later lint of the file.
  {
    const AnalysisReport audit = CorpusAuditor().Audit(corpus, "(live)");
    if (audit.HasErrors()) {
      std::fprintf(stderr, "BuildLiveCorpus: self-audit failed:\n%s",
                   audit.ToString().c_str());
      T3_CHECK(!audit.HasErrors());
    }
  }
#endif
  return corpus;
}

}  // namespace t3
