#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/forest_diff.h"
#include "common/file_util.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "gbt/trainer.h"
#include "harness/corpus.h"
#include "harness/evaluate.h"
#include "harness/report.h"
#include "harness/training.h"
#include "harness/workbench.h"
#include "model/t3_model.h"
#include "treejit/jit.h"

namespace t3 {
namespace {

// The tracked mini corpus: a checked-in t3_corpusgen run over tpch_sf0 +
// tpcds_sf0 (groups Se and SeJA plus the fixed suites; see EXPERIMENTS.md
// for the exact invocation). Small enough for git, real enough to pin the
// format end to end.
const Result<Corpus>& TestCorpus() {
  static const Result<Corpus>* corpus = new Result<Corpus>(
      LoadCorpusFromFile(std::string(T3_SOURCE_DIR) + "/data/corpus_mini.txt"));
  return *corpus;
}

#define T3_REQUIRE_CORPUS()                                             \
  const Result<Corpus>& loaded_corpus = TestCorpus();                   \
  ASSERT_TRUE(loaded_corpus.ok()) << loaded_corpus.status().ToString(); \
  const Corpus& corpus = *loaded_corpus

TEST(CorpusTest, LoadsCheckedInCorpusFixture) {
  T3_REQUIRE_CORPUS();
  EXPECT_EQ(corpus.records.size(), 24u);

  // Every record is internally consistent.
  size_t test_records = 0;
  for (const QueryRecord& record : corpus.records) {
    ASSERT_FALSE(record.instance.empty());
    ASSERT_EQ(record.total_run_seconds.size(),
              static_cast<size_t>(record.runs));
    ASSERT_EQ(record.feat_true.size(), record.pipeline_times.size());
    ASSERT_EQ(record.feat_est.size(), record.pipeline_times.size());
    ASSERT_GT(record.median_seconds, 0.0);
    for (const PipelineFeatures& features : record.feat_true) {
      ASSERT_EQ(features.values.size(), 48u);
    }
    if (record.is_test) ++test_records;
  }
  // The held-out TPC-DS-like instance contributes half the records.
  EXPECT_EQ(test_records, 12u);
  EXPECT_EQ(corpus.NumPipelines(), 61u);

  // The fixture is writer output, so parse -> write is the identity on it.
  Result<std::string> text = ReadFileToString(std::string(T3_SOURCE_DIR) +
                                              "/data/corpus_mini.txt");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(CorpusToText(corpus), *text);
}

TEST(CorpusTest, SaveLoadRoundTripsExactly) {
  // Round-trip the whole fixture through the writer and parser.
  T3_REQUIRE_CORPUS();
  Corpus slice;
  slice.records = corpus.records;

  const std::string text = CorpusToText(slice);
  Result<Corpus> reparsed = ParseCorpus(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->records.size(), slice.records.size());
  // Bit-exact: re-serializing gives the identical text.
  EXPECT_EQ(CorpusToText(*reparsed), text);

  const QueryRecord& a = slice.records[0];
  const QueryRecord& b = reparsed->records[0];
  EXPECT_EQ(b.instance, a.instance);
  EXPECT_EQ(b.median_seconds, a.median_seconds);
  EXPECT_EQ(b.plan_nodes.size(), a.plan_nodes.size());
  EXPECT_EQ(b.feat_true[0].values, a.feat_true[0].values);
}

TEST(CorpusTest, MissingFileIsAnError) {
  Result<Corpus> corpus = LoadCorpusFromFile("/nonexistent/corpus.txt");
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kNotFound);
}

TEST(CorpusTest, RejectsMalformedHeader) {
  EXPECT_FALSE(ParseCorpus("bogus v1\nrecords 0\n").ok());
}

// A minimal valid one-record corpus used as the starting point for the
// corruption tests below.
std::string TinyCorpusText() {
  return "t3corpus v1\nrecords 1\n"
         "R tpch_sf0 0 0 3 0 1 2 1 0.5\n"
         "N 4 -1 -1 100 0 8 0\n"
         "T 0.5 0.6\n"
         "P 0 0.25 0.2 0.3\n"
         "FT 0 100 4 2 0:1.5 2:7\n"
         "FE 0 90 4 1 1:2.5\n";
}

TEST(CorpusTest, TinyCorpusRoundTrips) {
  Result<Corpus> corpus = ParseCorpus(TinyCorpusText());
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_EQ(corpus->records.size(), 1u);
  EXPECT_EQ(corpus->records[0].feat_true[0].values[2], 7.0);
  EXPECT_TRUE(ParseCorpus(CorpusToText(*corpus)).ok());
}

TEST(CorpusTest, TruncatedCorpusIsAnErrorNotACrash) {
  const std::string full = TinyCorpusText();
  // Every prefix cut before the final token must fail with a Status (a cut
  // *inside* the final number is indistinguishable from a shorter value,
  // so the detectable range ends at the last token's first byte).
  const size_t last_token = full.find_last_of(' ') + 1;
  for (size_t cut = 0; cut <= last_token; cut += 3) {
    // An exact-size heap copy: no NUL after the prefix, so a read past the
    // view is a sanitizer error.
    const std::vector<char> prefix(full.begin(),
                                   full.begin() + static_cast<long>(cut));
    Result<Corpus> corpus =
        ParseCorpus(std::string_view(prefix.data(), prefix.size()));
    EXPECT_FALSE(corpus.ok()) << "prefix of " << cut << " bytes parsed";
    EXPECT_EQ(corpus.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CorpusTest, RejectsTrailingGarbage) {
  Result<Corpus> corpus = ParseCorpus(TinyCorpusText() + "R leftover\n");
  ASSERT_FALSE(corpus.ok());
  EXPECT_NE(corpus.status().message().find("trailing"), std::string::npos);
}

TEST(CorpusTest, RejectsNonNumericFields) {
  // Non-numeric run time on the T line.
  std::string bad = TinyCorpusText();
  const size_t t_pos = bad.find("T 0.5 0.6");
  ASSERT_NE(t_pos, std::string::npos);
  bad.replace(t_pos, 9, "T 0.5 abc");
  Result<Corpus> corpus = ParseCorpus(bad);
  ASSERT_FALSE(corpus.ok());
  EXPECT_NE(corpus.status().message().find("T line"), std::string::npos);
}

TEST(CorpusTest, RejectsSparseFeatureIndexBeyondDimension) {
  // "2:7" claims index 2 of a dim-4 vector; "9:7" is out of range.
  std::string bad = TinyCorpusText();
  const size_t pos = bad.find("2:7");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 3, "9:7");
  Result<Corpus> corpus = ParseCorpus(bad);
  ASSERT_FALSE(corpus.ok());
  EXPECT_NE(corpus.status().message().find("sparse"), std::string::npos);
}

TEST(CorpusTest, RejectsNonFiniteDoublesWithLineDiagnostic) {
  // TinyCorpusText's T line is line 5 of the file; a non-finite run value
  // there must be rejected and named by line. NaN/inf in a corpus would
  // otherwise flow silently into every downstream statistic.
  for (const char* bad_value : {"nan", "inf", "-inf", "1e999"}) {
    std::string bad = TinyCorpusText();
    const size_t pos = bad.find("T 0.5 0.6");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 9, std::string("T 0.5 ") + bad_value);
    Result<Corpus> corpus = ParseCorpus(bad);
    ASSERT_FALSE(corpus.ok()) << bad_value << " parsed";
    EXPECT_NE(corpus.status().message().find("T line"), std::string::npos)
        << corpus.status().ToString();
    EXPECT_NE(corpus.status().message().find("line 5"), std::string::npos)
        << corpus.status().ToString();
  }
}

TEST(CorpusTest, RejectsNonFiniteMedianOnRLine) {
  std::string bad = TinyCorpusText();
  const size_t pos = bad.find("0.5\nN");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 3, "nan");
  Result<Corpus> corpus = ParseCorpus(bad);
  ASSERT_FALSE(corpus.ok());
  EXPECT_NE(corpus.status().message().find("R line"), std::string::npos);
  EXPECT_NE(corpus.status().message().find("line 3"), std::string::npos)
      << corpus.status().ToString();
}

TEST(CorpusTest, RejectsNonFiniteFeatureValue) {
  std::string bad = TinyCorpusText();
  const size_t pos = bad.find("0:1.5");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 5, "0:inf");
  Result<Corpus> corpus = ParseCorpus(bad);
  ASSERT_FALSE(corpus.ok());
  EXPECT_NE(corpus.status().message().find("sparse"), std::string::npos);
}

TEST(CorpusTest, RejectsBadCountsAndIntFields) {
  const std::string tiny = TinyCorpusText();
  const std::string r_line = "R tpch_sf0 0 0 3 0 1 2 1 0.5";
  ASSERT_NE(tiny.find(r_line), std::string::npos);
  auto with_r_line = [&](const std::string& line) {
    return std::string(tiny).replace(tiny.find(r_line), r_line.size(), line);
  };
  std::vector<std::string> bad = {
      // Pipeline count -1 in the R line.
      with_r_line("R tpch_sf0 0 0 3 0 -1 2 1 0.5"),
      // Counts are checked against the bytes that remain before they size
      // anything; these used to end in std::bad_alloc. 2000000000 fits the
      // int fields, so it reaches the byte check; 99999999999999 does not.
      "t3corpus v1\nrecords 99999999999999\n",
      "t3corpus v1\nrecords 2000000000\n",
  };
  for (const char* count : {"99999999999999", "2000000000"}) {
    const std::string huge = count;
    bad.push_back(with_r_line("R tpch_sf0 0 0 3 0 1 2 " + huge + " 0.5"));
    bad.push_back(with_r_line("R tpch_sf0 0 0 3 0 1 " + huge + " 1 0.5"));
    bad.push_back(with_r_line("R tpch_sf0 0 0 3 0 " + huge + " 2 1 0.5"));
  }
  // Int fields out of int range used to be truncated.
  bad.push_back(with_r_line("R tpch_sf0 0 0 4294967299 0 1 2 1 0.5"));
  bad.push_back(std::string(tiny).replace(tiny.find("N 4 "), 4,
                                          "N 4294967300 "));
  bad.push_back(std::string(tiny).replace(tiny.find("P 0 "), 4,
                                          "P 4294967296 "));
  bad.push_back(std::string(tiny).replace(tiny.find("0:1.5"), 5,
                                          "4294967296:1.5"));
  // A dense dimension far beyond any feature space.
  bad.push_back(std::string(tiny).replace(tiny.find("FT 0 100 4 "), 11,
                                          "FT 0 100 2000000000 "));
  for (const std::string& text : bad) {
    EXPECT_EQ(ParseCorpus(text).status().code(), StatusCode::kInvalidArgument)
        << text;
  }
}

TEST(EvaluateTest, QErrorIsSymmetricRatio) {
  EXPECT_DOUBLE_EQ(QError(2.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(1.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(3.0, 3.0), 1.0);
  // Degenerate actuals are floored, not infinite.
  EXPECT_TRUE(std::isfinite(QError(1.0, 0.0)));
}

TEST(EvaluateTest, SummarizeReducesQErrors) {
  const QErrorSummary summary = Summarize({1, 1, 1, 1, 1, 1, 1, 1, 1, 10});
  EXPECT_DOUBLE_EQ(summary.p50, 1.0);
  EXPECT_NEAR(summary.avg, 1.9, 1e-12);
  EXPECT_GE(summary.p90, 1.0);
}

TEST(EvaluateTest, SelectRecordsFiltersTrainAndTest) {
  T3_REQUIRE_CORPUS();
  const auto train = SelectRecords(
      corpus, [](const QueryRecord& r) { return !r.is_test; });
  const auto test = SelectRecords(
      corpus, [](const QueryRecord& r) { return r.is_test; });
  EXPECT_EQ(train.size() + test.size(), corpus.records.size());
  EXPECT_EQ(test.size(), 12u);
}

TEST(EvaluateTest, TrainedModelBeatsTrivialBaselineOnTrainSet) {
  // Train a small per-tuple model on the fixture and check its q-error is
  // better than predicting the global median for everything.
  T3_REQUIRE_CORPUS();
  std::vector<const QueryRecord*> records;
  for (const QueryRecord& record : corpus.records) records.push_back(&record);

  std::vector<double> rows;
  std::vector<double> targets;
  for (const QueryRecord* record : records) {
    for (size_t p = 0; p < record->feat_true.size(); ++p) {
      const PipelineFeatures& features = record->feat_true[p];
      rows.insert(rows.end(), features.values.begin(), features.values.end());
      const double tuples = std::max(features.input_cardinality, 1.0);
      targets.push_back(TransformTarget(
          record->pipeline_times[p].median_seconds / tuples));
    }
  }
  TrainParams params;
  params.num_trees = 60;
  params.objective = Objective::kMape;
  params.min_data_in_leaf = 2;       // 61 training pipelines in the fixture.
  params.validation_fraction = 0.0;  // Too small to split.
  Result<Forest> forest = TrainForest(rows, targets, 48, params);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  const T3Model model(*std::move(forest), PredictionTarget::kPerTuple);

  const QErrorSummary summary = Summarize(QErrors(model, records));
  EXPECT_LT(summary.p50, 2.0);

  std::vector<double> medians;
  for (const QueryRecord* r : records) medians.push_back(r->median_seconds);
  const double global = Median(medians);
  std::vector<double> baseline_errors;
  for (const QueryRecord* r : records) {
    baseline_errors.push_back(QError(global, r->median_seconds));
  }
  const QErrorSummary baseline = Summarize(baseline_errors);
  EXPECT_LT(summary.p50, baseline.p50)
      << "model p50 " << summary.p50 << " vs baseline p50 " << baseline.p50;
}

// --- Workbench: per-config training, caching, and determinism. ---

std::string MiniCorpusPath() {
  return std::string(T3_SOURCE_DIR) + "/data/corpus_mini.txt";
}

const char* ModeSuffix(CardinalityMode mode) {
  return mode == CardinalityMode::kTrue ? "true" : "est";
}

std::string CacheModelPath(const std::string& data_dir,
                           const std::string& name, CardinalityMode mode) {
  return data_dir + "/cache_model_" + name + "_" + ModeSuffix(mode) + ".txt";
}

/// A fresh (per test-case) scratch data_dir with no stale model caches, so
/// every GetModel call below provably trains rather than reloads.
std::string MakeScratchDataDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/t3_harness_" + name;
  ::mkdir(dir.c_str(), 0755);
  for (const NamedModelConfig& named : NamedModelConfigs()) {
    std::remove(CacheModelPath(dir, named.name, named.mode).c_str());
  }
  std::remove(CacheModelPath(dir, "golden", CardinalityMode::kTrue).c_str());
  return dir;
}

WorkbenchOptions MiniCorpusOptions(size_t num_threads = 4) {
  // Hermetic: a capped tree count from the CI bench-smoke environment would
  // change what these tests train and break the byte-level assertions.
  ::unsetenv("T3_QUICK_TREES");
  WorkbenchOptions options;
  options.corpus_path = MiniCorpusPath();
  options.num_threads = num_threads;
  return options;
}

TEST(WorkbenchTest, GetModelCachesEveryNamedConfigBitExactly) {
  const std::string dir = MakeScratchDataDir("named_configs");
  Workbench workbench(dir, MiniCorpusOptions());

  for (NamedModelConfig named : NamedModelConfigs()) {
    // Small forests keep 7 training runs fast; everything else (target,
    // mode, filters, dropped features, runs limit) is the registry entry.
    named.config.train.num_trees = 12;
    const T3Model& model = workbench.GetModel(named);
    EXPECT_EQ(model.target(), named.config.target) << named.name;

    // The cache file exists and reloads into a forest that ForestDiff
    // proves pointwise identical over the entire input space.
    const std::string cache_path =
        CacheModelPath(dir, named.name, named.mode);
    Result<T3Model> reloaded = T3Model::LoadFromFile(cache_path);
    ASSERT_TRUE(reloaded.ok())
        << named.name << ": " << reloaded.status().ToString();
    EXPECT_EQ(reloaded->target(), model.target()) << named.name;
    Result<ForestDiffBounds> drift =
        ForestDiff(model.forest(), reloaded->forest());
    ASSERT_TRUE(drift.ok()) << drift.status().ToString();
    EXPECT_EQ(drift->MaxAbs(), 0.0) << named.name;

    // A second request is served from memory: same instance, no retrain.
    EXPECT_EQ(&workbench.GetModel(named), &model) << named.name;
  }
}

TEST(WorkbenchTest, SecondWorkbenchServesTheCacheFileUnchanged) {
  const std::string dir = MakeScratchDataDir("cache_reuse");
  T3Config config;
  config.train.num_trees = 10;

  Workbench first(dir, MiniCorpusOptions());
  const T3Model& trained =
      first.GetModel("main", CardinalityMode::kTrue, nullptr, config);
  const std::string cache_path =
      CacheModelPath(dir, "main", CardinalityMode::kTrue);
  Result<std::string> bytes = ReadFileToString(cache_path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  // A fresh process (modeled by a fresh Workbench) loads the cache instead
  // of retraining: the file is byte-identical afterwards and the served
  // model matches the trained one everywhere.
  Workbench second(dir, MiniCorpusOptions());
  const T3Model& served =
      second.GetModel("main", CardinalityMode::kTrue, nullptr, config);
  Result<std::string> bytes_after = ReadFileToString(cache_path);
  ASSERT_TRUE(bytes_after.ok());
  EXPECT_EQ(*bytes_after, *bytes);
  Result<ForestDiffBounds> drift =
      ForestDiff(trained.forest(), served.forest());
  ASSERT_TRUE(drift.ok());
  EXPECT_EQ(drift->MaxAbs(), 0.0);
}

TEST(WorkbenchTest, TrainingIsByteDeterministicAcrossThreadCounts) {
  // The tentpole determinism contract: the same corpus and config produce
  // byte-identical cache files no matter how many threads assemble the
  // training matrix.
  T3Config config;
  config.train.num_trees = 24;

  std::string reference_bytes;
  size_t thread_counts[] = {1, 5};
  for (size_t i = 0; i < 2; ++i) {
    const std::string dir = MakeScratchDataDir(
        StrFormat("determinism_%zu", thread_counts[i]));
    Workbench workbench(dir, MiniCorpusOptions(thread_counts[i]));
    workbench.GetModel("main", CardinalityMode::kTrue, nullptr, config);
    Result<std::string> bytes = ReadFileToString(
        CacheModelPath(dir, "main", CardinalityMode::kTrue));
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    ASSERT_FALSE(bytes->empty());
    if (i == 0) {
      reference_bytes = *std::move(bytes);
    } else {
      EXPECT_EQ(*bytes, reference_bytes)
          << "training with " << thread_counts[i]
          << " threads diverged from the single-threaded run";
    }
  }
}

TEST(WorkbenchTest, GetModelIsThreadSafeUnderConcurrentCallers) {
  // Regression: the model-cache map had no locking, so two threads
  // requesting models concurrently raced on `models_` (a crash or a
  // double-train under TSan/ASan). The prediction server trains its
  // serving model while a SIGHUP swap can request another, so GetModel
  // must serialize internally. Hammer it from several threads asking for
  // the same and for different configurations; every same-name call must
  // return the same instance (trained exactly once).
  const std::string dir = MakeScratchDataDir("concurrent_getmodel");
  Workbench workbench(dir, MiniCorpusOptions());

  T3Config small;
  small.train.num_trees = 8;
  T3Config per_pipeline = small;
  per_pipeline.target = PredictionTarget::kPerPipeline;

  constexpr int kThreads = 8;
  const T3Model* mains[kThreads] = {};
  const T3Model* others[kThreads] = {};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      mains[i] = &workbench.GetModel("main", CardinalityMode::kTrue,
                                     nullptr, small);
      others[i] = &workbench.GetModel(
          i % 2 == 0 ? "conc_a" : "conc_b", CardinalityMode::kTrue, nullptr,
          i % 2 == 0 ? small : per_pipeline);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(mains[i], nullptr);
    EXPECT_EQ(mains[i], mains[0]) << "thread " << i;
    ASSERT_NE(others[i], nullptr);
    EXPECT_EQ(others[i], others[i % 2]) << "thread " << i;
  }
  EXPECT_EQ(others[0]->target(), PredictionTarget::kPerTuple);
  EXPECT_EQ(others[1]->target(), PredictionTarget::kPerPipeline);

  // The scratch-dir hygiene of MakeScratchDataDir only clears registry
  // names; clear this test's extra cache files for the next run.
  std::remove(CacheModelPath(dir, "conc_a", CardinalityMode::kTrue).c_str());
  std::remove(CacheModelPath(dir, "conc_b", CardinalityMode::kTrue).c_str());
  std::remove(CacheModelPath(dir, "main", CardinalityMode::kTrue).c_str());
}

TEST(WorkbenchTest, CorruptCacheIsRejectedAndRetrained) {
  // tests/data/model_corrupt.txt parses but fails validation: a split node
  // reads feature 99 of a 48-feature model. The loader must reject it (as
  // an error, not a missing file) and GetModel must retrain and overwrite
  // it rather than serve the bad model.
  const std::string fixture =
      std::string(T3_SOURCE_DIR) + "/tests/data/model_corrupt.txt";
  Result<std::string> corrupt = ReadFileToString(fixture);
  ASSERT_TRUE(corrupt.ok()) << corrupt.status().ToString();

  Result<T3Model> direct = T3Model::LoadFromFile(fixture);
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.status().code(), StatusCode::kNotFound);
  EXPECT_NE(direct.status().message().find("out of range"),
            std::string::npos)
      << direct.status().ToString();

  const std::string dir = MakeScratchDataDir("corrupt_cache");
  const std::string cache_path =
      CacheModelPath(dir, "main", CardinalityMode::kTrue);
  ASSERT_TRUE(WriteStringToFile(cache_path, *corrupt).ok());

  T3Config config;
  config.train.num_trees = 10;
  Workbench workbench(dir, MiniCorpusOptions());
  const T3Model& model =
      workbench.GetModel("main", CardinalityMode::kTrue, nullptr, config);
  // The served model is a real retrained forest, not the planted stub...
  EXPECT_GT(model.forest().trees.size(), 1u);
  // ...and the cache now holds it, proven by reload + ForestDiff.
  Result<T3Model> reloaded = T3Model::LoadFromFile(cache_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  Result<ForestDiffBounds> drift =
      ForestDiff(model.forest(), reloaded->forest());
  ASSERT_TRUE(drift.ok());
  EXPECT_EQ(drift->MaxAbs(), 0.0);
}

TEST(EvaluateTest, EvaluateModelMatchesGoldenFixture) {
  // Digit-level golden for the whole EvaluateModel path: a deterministic
  // 32-tree model trained on the mini corpus train split, evaluated on the
  // 12 held-out records. Regenerate intentionally after a trainer or
  // featurizer change with:
  //   T3_UPDATE_GOLDEN=1 ./build/tests/harness_test
  //     --gtest_filter='*EvaluateModelMatchesGoldenFixture*'
  const std::string dir = MakeScratchDataDir("eval_golden");
  Workbench workbench(dir, MiniCorpusOptions());
  T3Config config;
  config.train.num_trees = 32;
  const T3Model& model =
      workbench.GetModel("golden", CardinalityMode::kTrue, nullptr, config);

  const auto test_records = SelectRecords(
      workbench.corpus(), [](const QueryRecord& r) { return r.is_test; });
  ASSERT_EQ(test_records.size(), 12u);
  const std::vector<RecordEvaluation> evals =
      EvaluateModel(model, test_records);
  ASSERT_EQ(evals.size(), test_records.size());

  std::string text;
  for (const RecordEvaluation& eval : evals) {
    EXPECT_DOUBLE_EQ(
        eval.q_error, QError(eval.predicted_seconds, eval.actual_seconds));
    text += StrFormat("%s g%d predicted=%.17g actual=%.17g q=%.17g\n",
                      eval.record->instance.c_str(),
                      eval.record->structure_group, eval.predicted_seconds,
                      eval.actual_seconds, eval.q_error);
  }
  text += "summary " + Summarize(evals).ToString() + "\n";

  const std::string golden_path =
      std::string(T3_SOURCE_DIR) + "/tests/data/eval_golden.txt";
  if (std::getenv("T3_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(WriteStringToFile(golden_path, text).ok());
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  Result<std::string> golden = ReadFileToString(golden_path);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_EQ(text, *golden)
      << "EvaluateModel output drifted from tests/data/eval_golden.txt; "
         "if the trainer/featurizer change is intentional, regenerate with "
         "T3_UPDATE_GOLDEN=1.";
}

// One record of hand-picked two-feature pipeline rows, plus a one-feature
// row that a two-feature model must skip rather than read past.
QueryRecord HandRecord() {
  QueryRecord record;
  record.median_seconds = 7.0;
  record.feat_true = {{0, 10.0, {1.0, 0.0}}, {1, 0.0, {2.0, 0.0}},
                      {2, 4.0, {5.0}}};
  record.pipeline_times = {{0, 20.0, {}}, {1, 3.0, {}}, {2, 1.0, {}}};
  return record;
}

// x0 < 2.5 predicts raw 0 (1 s), otherwise raw 1 (exp(-1) s) behind a split
// on x1, so a one-feature row that is not skipped reads past its end.
Forest HandForest() {
  Forest forest;
  forest.num_features = 2;
  Tree tree;
  tree.nodes.resize(5);
  auto split = [&tree](int node, int feature, double threshold) {
    tree.nodes[node].feature = feature;
    tree.nodes[node].threshold = threshold;
    tree.nodes[node].left = node + 1;
    tree.nodes[node].right = node + 2;
  };
  auto leaf = [&tree](int node, double value) {
    tree.nodes[node].is_leaf = true;
    tree.nodes[node].value = value;
  };
  split(0, 0, 2.5);
  leaf(1, 0.0);
  split(2, 1, 0.5);
  leaf(3, 1.0);
  leaf(4, 1.0);
  forest.trees.push_back(tree);
  return forest;
}

TEST(EvaluateTest, QuerySecondsFollowEachTargetsRule) {
  const QueryRecord record = HandRecord();
  const QueryRecord empty;
  const std::vector<const QueryRecord*> records = {&record, &empty};
  struct Case {
    PredictionTarget target;
    double seconds;
  };
  // Per tuple: 1 s x 10 tuples + 1 s x max(0, 1) tuples. Per pipeline:
  // 1 s + 1 s. Per query: one prediction over the summed row {3, 0}.
  for (const Case& c : {Case{PredictionTarget::kPerTuple, 11.0},
                        Case{PredictionTarget::kPerPipeline, 2.0},
                        Case{PredictionTarget::kPerQuery, std::exp(-1.0)}}) {
    const T3Model model(HandForest(), c.target);
    const std::vector<double> seconds =
        PredictQuerySecondsBatched(model, FlatEvaluator(model.forest()),
                                   records);
    ASSERT_EQ(seconds.size(), 2u);
    EXPECT_EQ(seconds[0], c.seconds) << static_cast<int>(c.target);
    EXPECT_EQ(seconds[1], 0.0) << static_cast<int>(c.target);
    EXPECT_EQ(PredictQuerySeconds(model, record), c.seconds);
  }
}

TEST(TrainingTest, LabelsFollowEachTargetsRule) {
  Corpus corpus;
  corpus.records = {HandRecord()};
  struct Case {
    PredictionTarget target;
    std::vector<double> rows;
    std::vector<double> label_seconds;
  };
  // The one-feature row is skipped; per-tuple labels are per-tuple seconds.
  for (const Case& c :
       {Case{PredictionTarget::kPerTuple, {1, 0, 2, 0}, {2.0, 3.0}},
        Case{PredictionTarget::kPerPipeline, {1, 0, 2, 0}, {20.0, 3.0}},
        Case{PredictionTarget::kPerQuery, {3, 0}, {7.0}}}) {
    T3Config config;
    config.target = c.target;
    Result<TrainingMatrix> matrix = BuildTrainingMatrix(
        corpus, [](const QueryRecord&) { return true; },
        CardinalityMode::kTrue, config, 0);
    ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
    EXPECT_EQ(matrix->num_features, 2u);
    EXPECT_EQ(matrix->rows, c.rows);
    std::vector<double> labels;
    for (const double s : c.label_seconds) labels.push_back(TransformTarget(s));
    EXPECT_EQ(matrix->targets, labels) << static_cast<int>(c.target);
  }
}

TEST(EvaluateTest, CompiledAndInterpretedQuerySecondsBitMatchForEveryTarget) {
  T3_REQUIRE_CORPUS();
  std::vector<const QueryRecord*> records;
  for (const QueryRecord& record : corpus.records) records.push_back(&record);
  for (const PredictionTarget target :
       {PredictionTarget::kPerTuple, PredictionTarget::kPerPipeline,
        PredictionTarget::kPerQuery}) {
    T3Config config;
    config.target = target;
    config.train.num_trees = 20;
    config.train.min_data_in_leaf = 2;
    config.train.validation_fraction = 0.0;
    Result<TrainingMatrix> matrix = BuildTrainingMatrix(
        corpus, [](const QueryRecord&) { return true; },
        CardinalityMode::kTrue, config, 0);
    ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
    Result<Forest> forest = TrainForest(matrix->rows, matrix->targets,
                                        matrix->num_features, config.train);
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    const T3Model model(*std::move(forest), target);

    const std::vector<RecordEvaluation> evals = EvaluateModel(model, records);
    ASSERT_EQ(evals.size(), records.size());
    for (size_t i = 0; i < evals.size(); ++i) {
      EXPECT_EQ(evals[i].record, records[i]);
      EXPECT_EQ(evals[i].actual_seconds, records[i]->median_seconds);
    }
    EXPECT_EQ(QErrors(model, records), QErrors(evals));
    if (!JitSupported()) continue;
    // EvaluateModel interprets (FlatEvaluator); the compiled forest is the
    // independent evaluator it must match bit for bit.
    Result<std::unique_ptr<CompiledForest>> compiled =
        CompiledForest::Compile(model.forest());
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const std::vector<double> seconds =
        PredictQuerySecondsBatched(model, **compiled, records);
    for (size_t i = 0; i < evals.size(); ++i) {
      EXPECT_EQ(seconds[i], evals[i].predicted_seconds)
          << static_cast<int>(target) << " record " << i;
    }
  }
}

TEST(ReportTest, TableFormatsAlignedColumns) {
  ReportTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "20000"});
  const std::string text = table.ToString();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("20000"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

}  // namespace
}  // namespace t3
