#ifndef T3_HARNESS_RUNNER_H_
#define T3_HARNESS_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "harness/corpus.h"
#include "querygen/querygen.h"
#include "storage/database.h"

namespace t3 {

/// The live corpus pipeline: querygen emits
/// plans, the engine executes them on generated instances, the featurizer
/// turns timed pipelines into the corpus rows harness/corpus.cc parses.

/// Generates a named datagen instance into a Database. `scale_override` and
/// `pool` follow DatagenOptions semantics (0 / nullptr = defaults).
Result<Database> GenerateDatabase(const std::string& instance, uint64_t seed,
                                  double scale_override, ThreadPool* pool);

/// Scale-factor index of an instance within its family (position among the
/// family's instances in AllInstances() order), e.g. tpch_sf2 -> 2.
int InstanceScaleIndex(const std::string& instance);

/// Corpus test-split convention: the TPC-DS-like instances are held out.
bool InstanceIsTest(const std::string& instance);

/// Benchmarks one generated query on a database: decomposes and stage-
/// annotates the plan, executes it `runs` times, and assembles the full
/// corpus record — medians, per-pipeline timings, and both feature-vector
/// sets (FT from measured cardinalities, FE from the plan's estimates).
/// The caller still owns the split bookkeeping (is_test, scale_index).
Result<QueryRecord> BenchmarkQuery(const Database& db,
                                   const GeneratedQuery& query, int runs);

struct LiveCorpusOptions {
  std::vector<std::string> instances;  ///< Empty = all 21 instances.
  std::vector<QueryGroup> groups;      ///< Empty = all 16 groups.
  int queries_per_group = 2;
  bool fixed_suites = true;  ///< Add the family's fixed suite when it has one.
  int runs = 3;
  uint64_t seed = 42;          ///< Datagen + querygen seed.
  double scale_override = 0.0; ///< 0 = each instance's own scale.
  ThreadPool* pool = nullptr;  ///< Datagen worker pool (generation only;
                               ///  execution stays single-threaded).
};

/// Builds a corpus by running the full live pipeline over the selected
/// instances. Queries the engine rejects are skipped (the generator only
/// emits valid plans, so this is defensive); instances that fail to
/// generate fail the whole build.
Result<Corpus> BuildLiveCorpus(const LiveCorpusOptions& options);

}  // namespace t3

#endif  // T3_HARNESS_RUNNER_H_
