#ifndef T3_PLAN_PLAN_H_
#define T3_PLAN_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/report.h"
#include "common/status.h"
#include "plan/plan_record.h"
#include "storage/catalog.h"
#include "storage/types.h"

namespace t3 {

/// Physical operator kind. The numeric codes are the on-disk `op` values of
/// corpus "N" lines and must never be renumbered. Code 7 is reserved for the
/// window operator (pending reconstruction); code 8 being the root output is
/// a format convention the checked-in corpus fixture already follows.
enum class PlanOp : int {
  kScan = 0,           // leaf: read a base table
  kFilter = 1,         // streaming: conjunctive predicates
  kProject = 2,        // streaming: reorder / drop columns
  kHashJoin = 3,       // left child = probe side, right child = build side
  kHashAggregate = 4,  // breaker: hash group-by + aggregates
  kSort = 5,           // breaker: full sort
  kLimit = 6,          // streaming: first-n with early stop
  kOutput = 8,         // root sink: materialize the query result
};

/// "scan", "filter", ... (stable, used in ExplainAnalyze output).
const char* PlanOpName(PlanOp op);

/// True when `code` is a valid PlanOp numeric code.
bool IsPlanOpCode(int code);

/// Comparison operator of a filter predicate.
enum class CompareOp { kLt = 0, kLe, kGt, kGe, kEq, kNe };

const char* CompareOpName(CompareOp op);

/// One conjunct `column <cmp> constant` over a numeric (int64/float64/date)
/// input column; integer values compare through a double cast. Rows whose
/// column value is NULL never pass.
struct FilterPredicate {
  int column = 0;
  CompareOp cmp = CompareOp::kLt;
  double constant = 0.0;
};

/// Aggregate function. kCountStar counts rows; the others skip NULL inputs,
/// and produce NULL for a group with no non-NULL input.
enum class AggFunc { kCountStar = 0, kCount, kSum, kMin, kMax };

const char* AggFuncName(AggFunc fn);

struct AggregateSpec {
  AggFunc fn = AggFunc::kCountStar;
  int column = -1;  ///< Input column; ignored (-1) for kCountStar.
};

/// Sort key: NULLs order after every value ascending, before it descending.
struct SortKey {
  int column = 0;
  bool ascending = true;
};

/// One node of a physical plan. `left`/`right` index earlier nodes in
/// PhysicalPlan::nodes (-1 = none); unary operators use `left`. The
/// annotation block (cardinality/extra/width/stage) is what serializes to
/// corpus "N" lines; the payload block parameterizes execution.
struct PlanNode {
  PlanOp op = PlanOp::kScan;
  int left = -1;
  int right = -1;

  // --- Annotations (serialized). ---
  double cardinality = 0.0;  ///< Estimated output rows.
  double extra = 0.0;        ///< Op-specific scalar; see PlanToRecords.
  double width = 0.0;        ///< Output tuple width in bytes.
  int stage = -1;            ///< Pipeline id from DecomposePipelines, or -1.

  // --- Payloads (not serialized; corpus stores plan shape only). ---
  std::string table;                       ///< kScan: table name.
  std::vector<int> columns;                ///< kScan/kProject: column indices.
  std::vector<FilterPredicate> predicates; ///< kFilter.
  std::vector<int> left_keys;              ///< kHashJoin: probe key columns.
  std::vector<int> right_keys;             ///< kHashJoin: build key columns.
  std::vector<int> group_by;               ///< kHashAggregate.
  std::vector<AggregateSpec> aggregates;   ///< kHashAggregate.
  std::vector<SortKey> sort_keys;          ///< kSort.
  int64_t limit = 0;                       ///< kLimit.
};

/// A physical plan: operator tree stored as a vector with children before
/// parents; the root is the last node and is always kOutput. The layout
/// matches the corpus record order, so serialization is a plain copy.
struct PhysicalPlan {
  std::vector<PlanNode> nodes;

  size_t num_nodes() const { return nodes.size(); }
  int root() const { return static_cast<int>(nodes.size()) - 1; }
};

/// The plan rules, every violation reported as an Error (check ids in
/// parentheses): at least one node (plan-empty), known op codes (plan-op),
/// per-op arity (plan-arity), children strictly before parents
/// (plan-topology), finite non-negative cardinality and width and a finite
/// extra (plan-annotation), well-formed payloads (plan-payload), exactly
/// one kOutput and it at the root (plan-root), every non-root node consumed
/// exactly once (plan-consumer). Execution additionally type-checks
/// payloads against the catalog (ResolvePlanSchemas).
AnalysisReport CheckPlan(const PhysicalPlan& plan);

/// The gate of every plan consumer: CheckPlan(plan).ToStatus().
Status ValidatePlan(const PhysicalPlan& plan);

/// The largest count a serialized `extra` may carry. A count names columns
/// of one node's schema (scan and project outputs, predicate, join key,
/// group and sort columns), so the bound comes from the widest schema a
/// generated plan carries: four joined tables (querygen chains at most
/// three joins) of at most eight columns (datagen's widest), 32 columns.
/// Twice that leaves headroom and keeps a rehydrated node's placeholder
/// payload within 1 KiB, whatever the text asks for.
inline constexpr int kMaxPlanExtraCount = 64;

/// CheckPlan's rules over serialized rows, plus what makes PlanFromRecords
/// total and exact: stage tags are non-negative (plan-stage), and `extra`
/// is an integer PlanNodeExtra reproduces from the rehydrated skeleton
/// (plan-extra): a count in [0, kMaxPlanExtraCount], at least 1 for filter,
/// join and sort; a limit in [0, 2^63); 0 for the output; never -0.0.
AnalysisReport CheckPlanRecords(const std::vector<PlanNodeRecord>& records);

/// The `extra` annotation a node's payload implies: kScan/kProject = output
/// column count, kFilter = predicate count, kHashJoin = key pair count,
/// kHashAggregate = group column count, kSort = sort key count, kLimit = the
/// limit, kOutput = 0. PlanBuilder and PlanToRecords keep node.extra equal
/// to this; PlanVerifier flags divergence.
double PlanNodeExtra(const PlanNode& node);

/// The plan's shape + annotations as corpus "N" rows (one per node, same
/// order). `extra` per op follows PlanNodeExtra.
std::vector<PlanNodeRecord> PlanToRecords(const PhysicalPlan& plan);

/// Rebuilds a *skeleton* plan (ops, structure, annotations, placeholder
/// payloads of the right size) from corpus rows. Gated on
/// CheckPlanRecords(records).ToStatus() before anything is allocated, so it
/// accepts exactly the records that round-trip:
/// PlanToRecords(*PlanFromRecords(r)) == r, bit for bit.
Result<PhysicalPlan> PlanFromRecords(const std::vector<PlanNodeRecord>& records);

/// Indented one-node-per-line rendering for logs and tests.
std::string PlanToString(const PhysicalPlan& plan);

/// Incremental plan construction against a catalog. Each method appends a
/// node, computes its output schema (for index/type validation), and fills
/// the annotation block with deterministic defaults: scan cardinality =
/// table rows, filter = input / 3 per conjunct, join = probe cardinality
/// (FK assumption), aggregate = input / 10 (>= 1), limit = min(input, n).
/// Callers may overwrite node annotations before Output() finalizes.
///
///   PlanBuilder b(&catalog);
///   int scan = *b.Scan("lineitem");
///   int agg = *b.HashAggregate(scan, {0}, {{AggFunc::kCountStar, -1}});
///   PhysicalPlan plan = *b.Output(agg);
class PlanBuilder {
 public:
  explicit PlanBuilder(const Catalog* catalog) : catalog_(catalog) {}

  /// Scans `columns` (empty = all columns) of a base table.
  Result<int> Scan(const std::string& table, std::vector<int> columns = {});
  Result<int> Filter(int input, std::vector<FilterPredicate> predicates);
  Result<int> Project(int input, std::vector<int> columns);
  /// Output schema = probe columns then build columns. Keys must be
  /// integer-backed (int64/date) and pair up positionally.
  Result<int> HashJoin(int probe, int build, std::vector<int> probe_keys,
                       std::vector<int> build_keys);
  /// Output schema = group columns then one column per aggregate
  /// (count -> int64, sum -> float64, min/max -> input type).
  Result<int> HashAggregate(int input, std::vector<int> group_by,
                            std::vector<AggregateSpec> aggregates);
  Result<int> Sort(int input, std::vector<SortKey> keys);
  Result<int> Limit(int input, int64_t n);

  /// Appends the kOutput root over `input` and returns the finished,
  /// validated plan. The builder is left empty, ready for the next plan.
  Result<PhysicalPlan> Output(int input);

  /// Direct annotation access for callers adjusting estimates.
  PlanNode& node(int id) { return plan_.nodes[static_cast<size_t>(id)]; }

  /// Output column types of a built node.
  const std::vector<ColumnType>& schema(int id) const {
    return schemas_[static_cast<size_t>(id)];
  }

 private:
  Result<int> Append(PlanNode node, std::vector<ColumnType> schema);
  Status CheckInput(int id) const;

  const Catalog* catalog_;
  PhysicalPlan plan_;
  std::vector<std::vector<ColumnType>> schemas_;
};

/// Output column types of every node of a full (payload-carrying) plan,
/// resolved against the catalog. Fails where execution would: unknown
/// table/column, non-integer join or group keys, predicates or sort keys on
/// unsupported types. This is the executor's type-checking pass.
Result<std::vector<std::vector<ColumnType>>> ResolvePlanSchemas(
    const Catalog& catalog, const PhysicalPlan& plan);

/// Bytes per materialized value of a column type (strings count their
/// representation header only; contents are out-of-line).
double ColumnTypeWidthBytes(ColumnType type);

}  // namespace t3

#endif  // T3_PLAN_PLAN_H_
