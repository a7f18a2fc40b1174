// The offline_build workload: the corpus -> model product path with no
// cross-run caching. One iteration builds a live corpus, trains the main
// configuration, compiles it with every proof enabled and evaluates it; the
// run repeats iterations for its duration. Trace mode times the same
// iterations and then, outside the timed region, calls each layer the
// iteration used again so its share can be attributed.

#include "offline.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/forest_diff.h"
#include "common/cpu_features.h"
#include "datagen/spec.h"
#include "features/featurizer.h"
#include "harness/runner.h"
#include "harness/training.h"
#include "harness/workbench.h"
#include "model/t3_model.h"
#include "plan/pipeline.h"
#include "querygen/querygen.h"
#include "querygen/suites.h"
#include "treejit/jit.h"

namespace t3bench {
namespace {

// Four training families and the held-out TPC-DS-like family, all at their
// smallest scale (perfbench/README.md).
const std::vector<std::string>& Instances() {
  static const std::vector<std::string> instances = {
      "tpch_sf0", "airline_small", "retail_small", "sensor_small",
      "tpcds_sf0"};
  return instances;
}
constexpr int kRuns = 3;
constexpr int kQueriesPerGroup = 6;
// Smaller tables than the instances' own scales, so a run holds more
// queries: the per-seed variation of the generated work averages out.
constexpr double kScale = 0.1;
// Iteration i builds the corpus of derived seed i mod kCorpusSeeds, and a run
// is whole rounds of the corpora: one seed's queries can need more engine
// work than another's, and every run weighs its corpora equally.
constexpr int kCorpusSeeds = 4;
constexpr size_t kMinIterations = 2 * kCorpusSeeds;
// Set-up repeats before the first iteration; one more follows each
// iteration, so the median spans the whole run, not one burst.
constexpr int kSetupRepeats = 5;

t3::LiveCorpusOptions CorpusOptions(uint64_t seed) {
  t3::LiveCorpusOptions options;
  options.instances = Instances();
  options.queries_per_group = kQueriesPerGroup;
  options.runs = kRuns;
  options.seed = seed;
  options.scale_override = kScale;
  return options;
}

uint64_t CorpusSeed(const Args& args, size_t iteration) {
  return args.seed * kCorpusSeeds + iteration % kCorpusSeeds;
}

t3::NamedModelConfig MainConfig() {
  for (const t3::NamedModelConfig& config : t3::NamedModelConfigs()) {
    if (config.name == "main") return config;
  }
  return t3::NamedModelConfig();
}

/// Per-layer times summed over the traced iterations (seconds unless named).
struct Layers {
  double corpus_s = 0.0;
  double datagen_s = 0.0;
  double querygen_s = 0.0;
  double engine_s = 0.0;
  size_t queries = 0;
  double featurize_s = 0.0;
  size_t featurized_plans = 0;
  size_t featurized_pipelines = 0;
  bool simd = false;
  double compile_s = 0.0;
  double validated_compile_s = 0.0;
  double load_s = 0.0;
  double forest_diff_s = 0.0;
  double live_qerror_p50 = 0.0;
};

/// Splits a BuildLiveCorpus call that has already been timed into its
/// layers by calling them again, outside the timed region, with the same
/// options: datagen and querygen per instance, and the featurizer on every
/// generated plan with estimated cardinalities. The engine's share is the
/// corpus records' own run times; per-query benchmarking is what is left of
/// the corpus time after datagen and querygen.
bool AttributeLiveCorpus(const t3::LiveCorpusOptions& options,
                         const t3::Corpus& corpus, Tracer* tracer,
                         uint64_t parent, Layers* layers, RunResult* result) {
  const uint32_t span_datagen = tracer->Name("datagen.generate");
  const uint32_t span_querygen = tracer->Name("querygen.generate");
  const uint32_t span_featurize = tracer->Name("features.featurize");
  for (const std::string& instance : options.instances) {
    int64_t t0 = NowNs();
    t3::Result<t3::Database> db = t3::GenerateDatabase(
        instance, options.seed, options.scale_override, options.pool);
    int64_t t1 = NowNs();
    tracer->Record(span_datagen, parent, t0, t1);
    layers->datagen_s += static_cast<double>(t1 - t0) * 1e-9;
    if (!db.ok()) {
      result->Fail("datagen: " + db.status().ToString());
      return false;
    }

    t0 = NowNs();
    std::vector<t3::GeneratedQuery> queries;
    t3::QueryGenerator generator(&db->catalog(), options.seed);
    const std::vector<t3::QueryGroup>& groups =
        options.groups.empty() ? t3::AllQueryGroups() : options.groups;
    for (t3::QueryGroup group : groups) {
      for (int index = 0; index < options.queries_per_group; ++index) {
        t3::Result<t3::GeneratedQuery> query = generator.Generate(group, index);
        if (query.ok()) queries.push_back(*std::move(query));
      }
    }
    t3::Result<const t3::InstanceSpec*> spec = t3::FindInstance(instance);
    if (options.fixed_suites && spec.ok()) {
      t3::Result<std::vector<t3::GeneratedQuery>> suite =
          t3::FixedSuiteForFamily(db->catalog(), (*spec)->family);
      if (!suite.ok()) {
        result->Fail("fixed suite: " + suite.status().ToString());
        return false;
      }
      for (t3::GeneratedQuery& query : *suite) {
        queries.push_back(std::move(query));
      }
    }
    t1 = NowNs();
    tracer->Record(span_querygen, parent, t0, t1);
    layers->querygen_s += static_cast<double>(t1 - t0) * 1e-9;

    for (const t3::GeneratedQuery& query : queries) {
      t3::PhysicalPlan plan = query.plan;
      t3::Result<t3::PipelineDecomposition> decomposition =
          t3::DecomposePipelines(plan);
      if (!decomposition.ok()) {
        result->Fail("decompose: " + decomposition.status().ToString());
        return false;
      }
      t3::AnnotatePipelineStages(&plan, *decomposition);
      const std::vector<double> cards = t3::NodeOutputRowsFromPlan(plan);
      t0 = NowNs();
      t3::Result<std::vector<t3::PipelineFeatureVector>> features =
          t3::ComputePipelineFeatures(db->catalog(), plan, *decomposition,
                                      cards);
      t1 = NowNs();
      tracer->Record(span_featurize, parent, t0, t1);
      if (!features.ok()) {
        result->Fail("featurize: " + features.status().ToString());
        return false;
      }
      layers->featurize_s += static_cast<double>(t1 - t0) * 1e-9;
      ++layers->featurized_plans;
      layers->featurized_pipelines += features->size();
    }
  }
  for (const t3::QueryRecord& record : corpus.records) {
    for (double seconds : record.total_run_seconds) layers->engine_s += seconds;
  }
  layers->queries += corpus.records.size();
  return true;
}

struct Iteration {
  double seconds = 0.0;  ///< Wall time of the product path.
  double cpu_s = 0.0;    ///< Process CPU time of the same region.
  size_t records = 0;
};

/// One pass of the product path. With `layers` non-null (trace mode) the
/// layers are also timed apart, after the timed region, so traced and
/// untraced iterations time the same work.
bool RunIteration(const Args& args, uint64_t corpus_seed, Tracer* tracer,
                  Layers* layers, RunResult* result, Iteration* out) {
  const t3::NamedModelConfig main_config = MainConfig();
  const t3::LiveCorpusOptions options = CorpusOptions(corpus_seed);
  const uint64_t root = tracer->Begin(tracer->Name("offline_build"), 0);
  const int64_t cpu_start = ProcessCpuNs();
  const int64_t start = NowNs();

  t3::Result<t3::Corpus> corpus = t3::BuildLiveCorpus(options);
  const int64_t corpus_end = NowNs();
  tracer->Record(tracer->Name("harness.build_live_corpus"), root, start,
                 corpus_end);
  if (!corpus.ok()) {
    result->Fail("live corpus: " + corpus.status().ToString());
    return false;
  }
  int64_t t0 = NowNs();
  t3::Result<t3::TrainingMatrix> matrix = t3::BuildTrainingMatrix(
      *corpus, main_config.train_filter, main_config.mode, main_config.config,
      main_config.runs_limit);
  int64_t t1 = NowNs();
  tracer->Record(tracer->Name("harness.build_matrix"), root, t0, t1);
  if (!matrix.ok()) {
    result->Fail("training matrix: " + matrix.status().ToString());
    return false;
  }
  t0 = NowNs();
  t3::Result<t3::Forest> forest =
      t3::TrainForest(matrix->rows, matrix->targets, matrix->num_features,
                      main_config.config.train);
  tracer->Record(tracer->Name("gbt.train"), root, t0, NowNs());
  if (!forest.ok()) {
    result->Fail("training: " + forest.status().ToString());
    return false;
  }
  const t3::T3Model model(*std::move(forest), main_config.config.target);

  t0 = NowNs();
  t3::JitCompileOptions checked;
  checked.audit = true;
  checked.validate_translation = true;
  checked.validate_batch = true;
  t3::Result<std::unique_ptr<t3::CompiledForest>> compiled =
      t3::CompiledForest::Compile(model.forest(), checked);
  t1 = NowNs();
  tracer->Record(tracer->Name("treejit.compile_validated"), root, t0, t1);
  if (!compiled.ok()) {
    result->Fail("validated compile: " + compiled.status().ToString());
    return false;
  }
  const int64_t validated_compile_ns = t1 - t0;

  const std::vector<const t3::QueryRecord*> test = t3::SelectRecords(
      *corpus, [](const t3::QueryRecord& r) { return r.is_test; });
  t0 = NowNs();
  const std::vector<t3::RecordEvaluation> evals =
      t3::EvaluateModel(model, test);
  t1 = NowNs();
  tracer->Record(tracer->Name("harness.evaluate"), root, t0, t1);
  out->seconds = static_cast<double>(t1 - start) * 1e-9;
  out->cpu_s = static_cast<double>(ProcessCpuNs() - cpu_start) * 1e-9;
  out->records = corpus->records.size();
  tracer->End(root);
  if (test.empty() || evals.size() != test.size()) {
    result->Fail("the live corpus has no test split to evaluate");
    return false;
  }

  // Correctness: the compiled batch path equals Forest::Predict bit for bit
  // on every test row, and the model survives a file round trip exactly.
  std::vector<double> rows;
  const size_t dim = static_cast<size_t>(model.forest().num_features);
  for (const t3::QueryRecord* record : test) {
    for (const t3::PipelineFeatures& features : record->feat_true) {
      if (features.values.size() != dim) continue;
      rows.insert(rows.end(), features.values.begin(), features.values.end());
    }
  }
  const size_t num_rows = rows.size() / dim;
  std::vector<double> batch(num_rows);
  (*compiled)->PredictBatch(rows.data(), num_rows, dim, batch.data());
  for (size_t i = 0; i < num_rows; ++i) {
    const double expected = model.forest().Predict(rows.data() + i * dim);
    if (std::memcmp(&expected, &batch[i], sizeof(double)) != 0) {
      result->Fail("compiled PredictBatch differs from Forest::Predict");
      return false;
    }
  }
  const std::string path = args.scratch_dir + "/offline_model.txt";
  if (t3::Status saved = model.SaveToFile(path); !saved.ok()) {
    result->Fail("save: " + saved.ToString());
    return false;
  }
  t0 = NowNs();
  t3::Result<t3::T3Model> reloaded = t3::T3Model::LoadFromFile(path);
  t1 = NowNs();
  std::remove(path.c_str());
  if (!reloaded.ok()) {
    result->Fail("reload: " + reloaded.status().ToString());
    return false;
  }
  t3::Result<t3::ForestDiffBounds> diff =
      t3::ForestDiff(model.forest(), reloaded->forest());
  const int64_t t2 = NowNs();
  if (!diff.ok() || diff->MaxAbs() != 0.0) {
    result->Fail("the saved model does not reload bit-exactly");
    return false;
  }
  if (layers == nullptr) return true;

  // Trace mode: the layers, timed apart from the product path.
  const uint64_t parent = tracer->Begin(tracer->Name("bench.layers"), 0);
  tracer->Record(tracer->Name("model.load"), parent, t0, t1);
  tracer->Record(tracer->Name("analysis.forest_diff"), parent, t1, t2);
  layers->load_s += static_cast<double>(t1 - t0) * 1e-9;
  layers->forest_diff_s += static_cast<double>(t2 - t1) * 1e-9;
  // The unchecked compile, so the proofs' share of the validated one shows.
  t3::JitCompileOptions plain;
  plain.audit = false;
  plain.validate_translation = false;
  plain.validate_batch = false;
  t0 = NowNs();
  t3::Result<std::unique_ptr<t3::CompiledForest>> unchecked =
      t3::CompiledForest::Compile(model.forest(), plain);
  t1 = NowNs();
  tracer->Record(tracer->Name("treejit.compile"), parent, t0, t1);
  if (!unchecked.ok()) {
    result->Fail("compile: " + unchecked.status().ToString());
    return false;
  }
  layers->compile_s += static_cast<double>(t1 - t0) * 1e-9;
  layers->validated_compile_s +=
      static_cast<double>(validated_compile_ns) * 1e-9;
  layers->corpus_s += static_cast<double>(corpus_end - start) * 1e-9;
  layers->live_qerror_p50 = t3::Summarize(evals).p50;
  layers->simd = (*compiled)->has_batch_kernels() && t3::BatchKernelsEnabled();
  const bool attributed =
      AttributeLiveCorpus(options, *corpus, tracer, parent, layers, result);
  tracer->End(parent);
  return attributed;
}

}  // namespace

RunResult RunOfflineBuild(const Args& args) {
  RunResult result;
  Tracer tracer(args.trace);

  // Set-up: the reference model of the tracked mini corpus (its q-error is
  // the accuracy metric).
  t3::QErrorSummary accuracy;
  std::vector<double> setup_times, setup_cpu_times;
  auto set_up = [&]() {
    const int64_t cpu_start = ProcessCpuNs();
    const int64_t start = NowNs();
    if (!MeasureMiniAccuracy(args, &result, &accuracy)) return false;
    setup_times.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    setup_cpu_times.push_back(
        static_cast<double>(ProcessCpuNs() - cpu_start) * 1e-9);
    return true;
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!set_up()) return result;
  }

  // Trace mode first times one untraced iteration, the baseline of the
  // tracing overhead.
  Iteration reference;
  if (args.trace) {
    tracer.set_enabled(false);
    const bool ok = RunIteration(args, CorpusSeed(args, 0), &tracer, nullptr,
                                 &result, &reference);
    tracer.set_enabled(true);
    if (!ok) {
      result.attempted = 1;
      result.failed = 1;
      return result;
    }
  }
  std::vector<Iteration> iterations;
  Layers layers;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  while (iterations.size() < kMinIterations || NowNs() < end ||
         iterations.size() % kCorpusSeeds != 0) {
    Iteration iteration;
    if (!RunIteration(args, CorpusSeed(args, iterations.size()), &tracer,
                      args.trace ? &layers : nullptr, &result, &iteration) ||
        !set_up()) {
      result.attempted = iterations.size() + 1;
      result.failed = 1;
      return result;
    }
    iterations.push_back(iteration);
  }
  NoteSetup(setup_times, setup_cpu_times, &result);
  std::vector<double> seconds;
  uint64_t records = 0;
  double wall_s = 0.0, cpu_s = 0.0;
  for (const Iteration& it : iterations) {
    seconds.push_back(it.seconds);
    records += it.records;
    wall_s += it.seconds;
    cpu_s += it.cpu_s;
  }
  const Distribution offline = Summarize(seconds);
  result.attempted = iterations.size();
  result.failed = 0;
  char line[200];
  std::snprintf(line, sizeof(line),
                "offline_s %.6g s (median of n=%zu iterations, max %.6g s; "
                "%zu records from %zu instances, runs=%d)",
                offline.p50, offline.n, offline.max, iterations[0].records,
                Instances().size(), kRuns);
  result.Note(line);
  const double cpu_us_per_op =
      NoteWork("corpus records", records, wall_s, cpu_s, &result);

  if (!args.trace) {
    result.Add("setup_s", Median(setup_times), "s");
    result.Add("cpu_us_per_op", cpu_us_per_op, "us");
    result.Add("answered_frac", 1.0, "ratio");
    AddAccuracyMetrics(accuracy, &result);
    return result;
  }
  const double n = static_cast<double>(iterations.size());
  result.Add("datagen.generate_s", layers.datagen_s / n, "s");
  result.Add("querygen.generate_ms", layers.querygen_s * 1e3 / n, "ms");
  result.Add("engine.execute_s", layers.engine_s / n, "s");
  result.Add("engine.queries", static_cast<double>(layers.queries) / n,
             "count");
  result.Add("harness.benchmark_query_s",
             (layers.corpus_s - layers.datagen_s - layers.querygen_s) / n,
             "s");
  result.Add("features.featurize_us",
             layers.featurize_s * 1e6 /
                 static_cast<double>(layers.featurized_plans),
             "us");
  result.Add("features.pipelines_per_plan",
             static_cast<double>(layers.featurized_pipelines) /
                 static_cast<double>(layers.featurized_plans),
             "count");
  result.Add("treejit.simd", layers.simd ? 1.0 : 0.0, "bool");
  result.Add("harness.build_matrix_ms",
             Median(tracer.Durations("harness.build_matrix")) * 1e3, "ms");
  result.Add("gbt.train_s", Median(tracer.Durations("gbt.train")), "s");
  result.Add("treejit.compile_ms", layers.compile_s * 1e3 / n, "ms");
  result.Add("analysis.validate_ms",
             (layers.validated_compile_s - layers.compile_s) * 1e3 / n, "ms");
  result.Add("harness.evaluate_ms",
             Median(tracer.Durations("harness.evaluate")) * 1e3, "ms");
  result.Add("harness.live_qerror_p50", layers.live_qerror_p50, "ratio");
  result.Add("model.load_ms", layers.load_s * 1e3 / n, "ms");
  result.Add("analysis.forest_diff_ms", layers.forest_diff_s * 1e3 / n, "ms");
  result.Add("bench.throughput_per_s", static_cast<double>(records) / wall_s,
             "1/s");
  // The reference and the first traced iteration build the same corpus.
  AddTraceOverhead(reference.seconds, iterations[0].seconds, &result);
  if (!tracer.WriteJson(args.trace_out)) result.Fail("cannot write trace");
  return result;
}

}  // namespace t3bench
