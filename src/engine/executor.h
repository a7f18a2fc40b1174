#ifndef T3_ENGINE_EXECUTOR_H_
#define T3_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/chunk.h"
#include "plan/pipeline.h"
#include "plan/plan.h"
#include "storage/catalog.h"

namespace t3 {

/// Measured tuple flow through one plan node. For a hash join, `rows_in`
/// accumulates both build-side insertions and probe-side inputs; `rows_out`
/// counts probe emissions only.
struct OperatorStats {
  PlanOp op = PlanOp::kScan;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
};

/// Measured execution of one pipeline.
///
/// Measurement contract: `seconds` is the wall time of the pipeline's whole
/// run — source reads, streaming operators, sink insertion, and the sink's
/// finalization (a sort's sort, an aggregate's result materialization, a
/// join build's hash-table construction). It excludes plan validation,
/// pipeline setup, and every other pipeline. Pipelines run sequentially
/// inside the total-time window, so the per-pipeline times sum to slightly
/// less than `ExplainAnalyze::total_seconds`; the difference is
/// orchestration overhead.
struct PipelineStats {
  int pipeline = 0;
  double seconds = 0.0;
  /// Static estimate (Pipeline::driving_cardinality).
  double driving_cardinality = 0.0;
  /// Measured tuples the source actually produced.
  uint64_t source_rows = 0;
  uint64_t morsels = 0;
  std::vector<int> nodes;
};

/// The result of executing a plan with instrumentation: T3's measurement
/// substrate (per-pipeline wall times + per-operator true cardinalities).
struct ExplainAnalyze {
  double total_seconds = 0.0;
  std::vector<PipelineStats> pipelines;
  std::vector<OperatorStats> operators;  ///< Indexed by plan node id.
  /// Materialized query output. Its string cells view the executed
  /// Catalog's column storage: they stay valid while that Catalog lives
  /// and is not modified.
  DataChunk result;

  uint64_t result_rows() const { return result.num_rows; }

  /// Pipeline table + annotated operator tree, EXPLAIN ANALYZE style.
  std::string ToString(const PhysicalPlan& plan) const;
};

/// Vectorized push-based executor over catalog tables. Stateless between
/// queries; one executor can run many plans.
///
///   Executor executor(catalog);
///   Result<ExplainAnalyze> run = executor.Execute(plan);
///
/// Execution is single-threaded and deterministic: morsels of kMorselRows
/// rows stream through each pipeline's operator chain in row order, and
/// hash joins emit matches in build-row order.
class Executor {
 public:
  explicit Executor(const Catalog& catalog) : catalog_(&catalog) {}

  /// Runs the plan's pipelines in topological order. Returns
  /// kInvalidArgument for invalid or type-incorrect plans (the
  /// ResolvePlanSchemas checks), never T3_CHECKs on bad plans.
  Result<ExplainAnalyze> Execute(const PhysicalPlan& plan) const;

 private:
  const Catalog* catalog_;
};

}  // namespace t3

#endif  // T3_ENGINE_EXECUTOR_H_
