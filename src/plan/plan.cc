#include "plan/plan.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/string_util.h"

namespace t3 {

double PlanNodeExtra(const PlanNode& node) {
  switch (node.op) {
    case PlanOp::kScan:
    case PlanOp::kProject:
      return static_cast<double>(node.columns.size());
    case PlanOp::kFilter:
      return static_cast<double>(node.predicates.size());
    case PlanOp::kHashJoin:
      return static_cast<double>(node.left_keys.size());
    case PlanOp::kHashAggregate:
      return static_cast<double>(node.group_by.size());
    case PlanOp::kSort:
      return static_cast<double>(node.sort_keys.size());
    case PlanOp::kLimit:
      return static_cast<double>(node.limit);
    case PlanOp::kOutput:
      return 0.0;
  }
  return 0.0;
}

namespace {

double SchemaWidthBytes(const std::vector<ColumnType>& schema) {
  double width = 0.0;
  for (ColumnType type : schema) width += ColumnTypeWidthBytes(type);
  return width;
}

bool IsNumeric(ColumnType type) {
  return type != ColumnType::kString;
}

/// Output schema of one node given its children's schemas; also the type
/// checker for the node's payload. `table_rows` is filled for kScan.
Result<std::vector<ColumnType>> NodeOutputSchema(
    const Catalog& catalog, const PlanNode& node, int id,
    const std::vector<ColumnType>* left_schema,
    const std::vector<ColumnType>* right_schema, uint64_t* table_rows) {
  auto err = [&](const std::string& message) {
    return InvalidArgumentError(
        StrFormat("plan node %d (%s): %s", id, PlanOpName(node.op),
                  message.c_str()));
  };
  auto in_range = [](int column, const std::vector<ColumnType>& schema) {
    return column >= 0 && static_cast<size_t>(column) < schema.size();
  };

  switch (node.op) {
    case PlanOp::kScan: {
      Result<const Table*> table = catalog.FindTable(node.table);
      if (!table.ok()) return table.status();
      if (table_rows != nullptr) *table_rows = (*table)->num_rows();
      std::vector<ColumnType> schema;
      for (int column : node.columns) {
        if (column < 0 ||
            static_cast<size_t>(column) >= (*table)->num_columns()) {
          return err(StrFormat("column %d out of range for table %s", column,
                               node.table.c_str()));
        }
        schema.push_back(
            (*table)->column(static_cast<size_t>(column)).type());
      }
      return schema;
    }
    case PlanOp::kFilter: {
      for (const FilterPredicate& predicate : node.predicates) {
        if (!in_range(predicate.column, *left_schema)) {
          return err(StrFormat("predicate column %d out of range",
                               predicate.column));
        }
        if (!IsNumeric((*left_schema)[static_cast<size_t>(
                predicate.column)])) {
          return err(StrFormat("predicate column %d is not numeric",
                               predicate.column));
        }
      }
      return *left_schema;
    }
    case PlanOp::kProject: {
      std::vector<ColumnType> schema;
      for (int column : node.columns) {
        if (!in_range(column, *left_schema)) {
          return err(StrFormat("projected column %d out of range", column));
        }
        schema.push_back((*left_schema)[static_cast<size_t>(column)]);
      }
      return schema;
    }
    case PlanOp::kHashJoin: {
      for (size_t k = 0; k < node.left_keys.size(); ++k) {
        const int probe_key = node.left_keys[k];
        const int build_key = node.right_keys[k];
        if (!in_range(probe_key, *left_schema) ||
            !in_range(build_key, *right_schema)) {
          return err("join key column out of range");
        }
        const ColumnType probe_type =
            (*left_schema)[static_cast<size_t>(probe_key)];
        const ColumnType build_type =
            (*right_schema)[static_cast<size_t>(build_key)];
        if (!IsIntegerBacked(probe_type) || !IsIntegerBacked(build_type)) {
          return err("join keys must be integer-backed (int64/date)");
        }
      }
      std::vector<ColumnType> schema = *left_schema;
      schema.insert(schema.end(), right_schema->begin(), right_schema->end());
      return schema;
    }
    case PlanOp::kHashAggregate: {
      std::vector<ColumnType> schema;
      for (int column : node.group_by) {
        if (!in_range(column, *left_schema)) {
          return err(StrFormat("group column %d out of range", column));
        }
        const ColumnType type = (*left_schema)[static_cast<size_t>(column)];
        if (!IsIntegerBacked(type)) {
          return err("group keys must be integer-backed (int64/date)");
        }
        schema.push_back(type);
      }
      for (const AggregateSpec& spec : node.aggregates) {
        if (spec.fn == AggFunc::kCountStar) {
          schema.push_back(ColumnType::kInt64);
          continue;
        }
        if (!in_range(spec.column, *left_schema)) {
          return err(StrFormat("aggregate column %d out of range",
                               spec.column));
        }
        const ColumnType type = (*left_schema)[static_cast<size_t>(
            spec.column)];
        switch (spec.fn) {
          case AggFunc::kCount:
            schema.push_back(ColumnType::kInt64);
            break;
          case AggFunc::kSum:
            if (!IsNumeric(type)) return err("sum over non-numeric column");
            schema.push_back(ColumnType::kFloat64);
            break;
          case AggFunc::kMin:
          case AggFunc::kMax:
            schema.push_back(type);
            break;
          case AggFunc::kCountStar:
            break;
        }
      }
      return schema;
    }
    case PlanOp::kSort: {
      for (const SortKey& key : node.sort_keys) {
        if (!in_range(key.column, *left_schema)) {
          return err(StrFormat("sort column %d out of range", key.column));
        }
      }
      return *left_schema;
    }
    case PlanOp::kLimit:
    case PlanOp::kOutput:
      return *left_schema;
  }
  return err("unknown operator");
}

}  // namespace

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kScan:
      return "scan";
    case PlanOp::kFilter:
      return "filter";
    case PlanOp::kProject:
      return "project";
    case PlanOp::kHashJoin:
      return "hash_join";
    case PlanOp::kHashAggregate:
      return "hash_aggregate";
    case PlanOp::kSort:
      return "sort";
    case PlanOp::kLimit:
      return "limit";
    case PlanOp::kOutput:
      return "output";
  }
  return "?";
}

bool IsPlanOpCode(int code) {
  return (code >= 0 && code <= 6) || code == 8;
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
  }
  return "?";
}

const char* AggFuncName(AggFunc fn) {
  switch (fn) {
    case AggFunc::kCountStar:
      return "count(*)";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

double ColumnTypeWidthBytes(ColumnType type) {
  return type == ColumnType::kString ? 16.0 : 8.0;
}

namespace {

int OpCode(const PlanNode& node) { return static_cast<int>(node.op); }
int OpCode(const PlanNodeRecord& record) { return record.op; }

void AddError(AnalysisReport* report, const char* check, int id,
              std::string message) {
  report->Add(Severity::kError, check, -1, id, std::move(message));
}

/// Child-reference check under children-before-parents order. Returns true
/// when `child` is a usable back reference.
bool CheckChildRef(AnalysisReport* report, int id, int child,
                   const char* which, int num_nodes) {
  if (child < 0 || child >= num_nodes) {
    AddError(report, "plan-topology", id,
             StrFormat("%s child %d out of range [0, %d)", which, child,
                       num_nodes));
    return false;
  }
  if (child >= id) {
    AddError(report, "plan-topology", id,
             StrFormat("%s child %d does not precede the node (a cycle under "
                       "children-before-parents order)",
                       which, child));
    return false;
  }
  return true;
}

/// Arity + topology of one node; increments consumer counts for usable
/// child references.
void CheckShape(AnalysisReport* report, int id, PlanOp op, int left,
                int right, int num_nodes, std::vector<int>* consumers) {
  if (op == PlanOp::kScan) {
    if (left != -1 || right != -1) {
      AddError(report, "plan-arity", id, "scan must not have inputs");
    }
    return;
  }
  if (op == PlanOp::kHashJoin) {
    const bool left_ok = CheckChildRef(report, id, left, "probe", num_nodes);
    const bool right_ok = CheckChildRef(report, id, right, "build", num_nodes);
    if (left_ok && right_ok && left == right) {
      AddError(report, "plan-arity", id, "join sides must differ");
    }
    if (left_ok) ++(*consumers)[static_cast<size_t>(left)];
    if (right_ok && left != right) {
      ++(*consumers)[static_cast<size_t>(right)];
    }
    return;
  }
  if (CheckChildRef(report, id, left, "unary", num_nodes)) {
    ++(*consumers)[static_cast<size_t>(left)];
  }
  if (right != -1) {
    AddError(report, "plan-arity", id,
             StrFormat("unary operator with a right child %d", right));
  }
}

void CheckAnnotations(AnalysisReport* report, int id, double cardinality,
                      double extra, double width) {
  if (!std::isfinite(cardinality) || cardinality < 0.0) {
    AddError(report, "plan-annotation", id,
             StrFormat("cardinality %g must be finite and non-negative",
                       cardinality));
  }
  if (!std::isfinite(width) || width < 0.0) {
    AddError(report, "plan-annotation", id,
             StrFormat("width %g must be finite and non-negative", width));
  }
  if (!std::isfinite(extra)) {
    AddError(report, "plan-annotation", id,
             StrFormat("extra %g must be finite", extra));
  }
}

/// Payload shape of a live node (type checks happen against the catalog,
/// in ResolvePlanSchemas).
void CheckPayload(AnalysisReport* report, int id, const PlanNode& node) {
  switch (node.op) {
    case PlanOp::kFilter:
      if (node.predicates.empty()) {
        AddError(report, "plan-payload", id, "filter with no predicates");
      }
      for (const FilterPredicate& predicate : node.predicates) {
        if (!std::isfinite(predicate.constant)) {
          AddError(report, "plan-payload", id,
                   "predicate constant must be finite");
        }
      }
      break;
    case PlanOp::kHashJoin:
      if (node.left_keys.empty() ||
          node.left_keys.size() != node.right_keys.size()) {
        AddError(report, "plan-payload", id,
                 "join keys must pair up and be non-empty");
      }
      break;
    case PlanOp::kHashAggregate:
      if (node.group_by.empty() && node.aggregates.empty()) {
        AddError(report, "plan-payload", id,
                 "aggregate with no groups and no aggregates");
      }
      break;
    case PlanOp::kSort:
      if (node.sort_keys.empty()) {
        AddError(report, "plan-payload", id, "sort with no keys");
      }
      break;
    case PlanOp::kLimit:
      if (node.limit < 0) AddError(report, "plan-payload", id, "negative limit");
      break;
    case PlanOp::kScan:
    case PlanOp::kProject:
    case PlanOp::kOutput:
      break;
  }
}

/// What a serialized node needs beyond the shared rules so that
/// PlanFromRecords is total and exact: a non-negative stage tag, and an
/// `extra` that PlanNodeExtra reproduces bit for bit from the rehydrated
/// payload. That is an integer with no sign bit: a count in
/// [0, kMaxPlanExtraCount] (at least 1 where the payload must be
/// non-empty), a limit below 2^63, or 0 for the output.
void CheckPayload(AnalysisReport* report, int id,
                  const PlanNodeRecord& record) {
  if (record.stage < 0) {
    AddError(report, "plan-stage", id,
             StrFormat("serialized stage tag %d must be non-negative",
                       record.stage));
  }
  const double extra = record.extra;
  if (!std::isfinite(extra)) return;  // A plan-annotation error already.
  double lo = 0.0;
  double hi = kMaxPlanExtraCount;
  switch (static_cast<PlanOp>(record.op)) {
    case PlanOp::kFilter:
    case PlanOp::kHashJoin:
    case PlanOp::kSort:
      lo = 1.0;
      break;
    case PlanOp::kLimit:
      hi = 0x1p63 - 1024.0;  // The largest double an int64 holds.
      break;
    case PlanOp::kOutput:
      hi = 0.0;
      break;
    case PlanOp::kScan:
    case PlanOp::kProject:
    case PlanOp::kHashAggregate:
      break;
  }
  if (extra < lo || extra > hi || extra != std::trunc(extra) ||
      std::signbit(extra)) {
    AddError(report, "plan-extra", id,
             StrFormat("extra %g is not an integer in [%.17g, %.17g]", extra,
                       lo, hi));
  }
}

/// The plan rules over live nodes or serialized records: op codes, arity,
/// topology, annotations, payloads, the output root and single consumers.
template <typename Node>
AnalysisReport CheckNodes(const std::vector<Node>& nodes) {
  AnalysisReport report;
  if (nodes.empty()) {
    AddError(&report, "plan-empty", -1, "plan has no nodes");
    return report;
  }
  const int n = static_cast<int>(nodes.size());
  std::vector<int> consumers(nodes.size(), 0);
  for (int i = 0; i < n; ++i) {
    const Node& node = nodes[static_cast<size_t>(i)];
    if (!IsPlanOpCode(OpCode(node))) {
      AddError(&report, "plan-op", i,
               StrFormat("unknown op code %d", OpCode(node)));
      continue;
    }
    const PlanOp op = static_cast<PlanOp>(OpCode(node));
    CheckShape(&report, i, op, node.left, node.right, n, &consumers);
    CheckAnnotations(&report, i, node.cardinality, node.extra, node.width);
    CheckPayload(&report, i, node);
    if (op == PlanOp::kOutput && i != n - 1) {
      AddError(&report, "plan-root", i, "output below the root");
    }
  }
  if (OpCode(nodes.back()) != static_cast<int>(PlanOp::kOutput)) {
    AddError(&report, "plan-root", n - 1, "root must be the output node");
  }
  for (int i = 0; i < n - 1; ++i) {
    if (consumers[static_cast<size_t>(i)] != 1) {
      AddError(&report, "plan-consumer", i,
               StrFormat("consumed %d times (plans are trees)",
                         consumers[static_cast<size_t>(i)]));
    }
  }
  return report;
}

}  // namespace

AnalysisReport CheckPlan(const PhysicalPlan& plan) {
  return CheckNodes(plan.nodes);
}

AnalysisReport CheckPlanRecords(const std::vector<PlanNodeRecord>& records) {
  return CheckNodes(records);
}

Status ValidatePlan(const PhysicalPlan& plan) {
  return CheckPlan(plan).ToStatus();
}

std::vector<PlanNodeRecord> PlanToRecords(const PhysicalPlan& plan) {
  std::vector<PlanNodeRecord> records;
  records.reserve(plan.nodes.size());
  for (const PlanNode& node : plan.nodes) {
    PlanNodeRecord record;
    record.op = static_cast<int>(node.op);
    record.left = node.left;
    record.right = node.right;
    record.cardinality = node.cardinality;
    record.extra = PlanNodeExtra(node);
    record.width = node.width;
    record.stage = node.stage < 0 ? 0 : node.stage;
    records.push_back(record);
  }
  return records;
}

Result<PhysicalPlan> PlanFromRecords(
    const std::vector<PlanNodeRecord>& records) {
  Status status = CheckPlanRecords(records).ToStatus();
  if (!status.ok()) return status;
  PhysicalPlan plan;
  plan.nodes.resize(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const PlanNodeRecord& record = records[i];
    PlanNode& node = plan.nodes[i];
    node.op = static_cast<PlanOp>(record.op);
    node.left = record.left;
    node.right = record.right;
    node.cardinality = record.cardinality;
    node.extra = record.extra;
    node.width = record.width;
    node.stage = record.stage;
    // Rehydrate the payload shape the plan rules check from `extra`, which
    // the record rules proved a count this op carries (contents stay
    // unknown), so PlanNodeExtra(node) == record.extra.
    const size_t count = static_cast<size_t>(record.extra);
    switch (node.op) {
      case PlanOp::kFilter:
        node.predicates.resize(count);
        break;
      case PlanOp::kHashJoin:
        node.left_keys.resize(count);
        node.right_keys.resize(count);
        break;
      case PlanOp::kHashAggregate:
        node.group_by.resize(count);
        if (count == 0) node.aggregates.resize(1);
        break;
      case PlanOp::kSort:
        node.sort_keys.resize(count);
        break;
      case PlanOp::kLimit:
        node.limit = static_cast<int64_t>(record.extra);
        break;
      case PlanOp::kScan:
      case PlanOp::kProject:
        node.columns.resize(count);
        break;
      case PlanOp::kOutput:
        break;
    }
  }
  return plan;
}

std::string PlanToString(const PhysicalPlan& plan) {
  std::string out;
  // Render the tree root-first with indentation; children-before-parents
  // order means recursing from the back.
  struct Renderer {
    const PhysicalPlan& plan;
    std::string* out;
    void Render(int id, int depth) {
      const PlanNode& node = plan.nodes[static_cast<size_t>(id)];
      out->append(static_cast<size_t>(depth) * 2, ' ');
      out->append(StrFormat("#%d %s", id, PlanOpName(node.op)));
      if (node.op == PlanOp::kScan) {
        out->append(StrFormat(" %s", node.table.c_str()));
      }
      if (node.op == PlanOp::kLimit) {
        out->append(StrFormat(" %lld", static_cast<long long>(node.limit)));
      }
      out->append(StrFormat(" (card=%.0f width=%.0f", node.cardinality,
                            node.width));
      if (node.stage >= 0) out->append(StrFormat(" pipeline=%d", node.stage));
      out->append(")\n");
      if (node.left >= 0) Render(node.left, depth + 1);
      if (node.right >= 0) Render(node.right, depth + 1);
    }
  };
  if (!plan.nodes.empty()) Renderer{plan, &out}.Render(plan.root(), 0);
  return out;
}

Result<std::vector<std::vector<ColumnType>>> ResolvePlanSchemas(
    const Catalog& catalog, const PhysicalPlan& plan) {
  Status status = ValidatePlan(plan);
  if (!status.ok()) return status;
  std::vector<std::vector<ColumnType>> schemas(plan.nodes.size());
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    const std::vector<ColumnType>* left =
        node.left >= 0 ? &schemas[static_cast<size_t>(node.left)] : nullptr;
    const std::vector<ColumnType>* right =
        node.right >= 0 ? &schemas[static_cast<size_t>(node.right)] : nullptr;
    Result<std::vector<ColumnType>> schema = NodeOutputSchema(
        catalog, node, static_cast<int>(i), left, right, nullptr);
    if (!schema.ok()) return schema.status();
    schemas[i] = *std::move(schema);
  }
  return schemas;
}

Status PlanBuilder::CheckInput(int id) const {
  if (id < 0 || static_cast<size_t>(id) >= plan_.nodes.size()) {
    return InvalidArgumentError(StrFormat("plan builder: bad input node %d",
                                          id));
  }
  return Status::OK();
}

Result<int> PlanBuilder::Append(PlanNode node,
                                std::vector<ColumnType> schema) {
  node.width = SchemaWidthBytes(schema);
  node.extra = PlanNodeExtra(node);
  plan_.nodes.push_back(std::move(node));
  schemas_.push_back(std::move(schema));
  return static_cast<int>(plan_.nodes.size()) - 1;
}

Result<int> PlanBuilder::Scan(const std::string& table,
                              std::vector<int> columns) {
  PlanNode node;
  node.op = PlanOp::kScan;
  node.table = table;
  if (columns.empty()) {
    Result<const Table*> found = catalog_->FindTable(table);
    if (!found.ok()) return found.status();
    for (size_t c = 0; c < (*found)->num_columns(); ++c) {
      columns.push_back(static_cast<int>(c));
    }
  }
  node.columns = std::move(columns);
  uint64_t rows = 0;
  Result<std::vector<ColumnType>> schema = NodeOutputSchema(
      *catalog_, node, static_cast<int>(plan_.nodes.size()), nullptr, nullptr,
      &rows);
  if (!schema.ok()) return schema.status();
  node.cardinality = static_cast<double>(rows);
  return Append(std::move(node), *std::move(schema));
}

Result<int> PlanBuilder::Filter(int input,
                                std::vector<FilterPredicate> predicates) {
  Status status = CheckInput(input);
  if (!status.ok()) return status;
  PlanNode node;
  node.op = PlanOp::kFilter;
  node.left = input;
  node.predicates = std::move(predicates);
  const double input_card =
      plan_.nodes[static_cast<size_t>(input)].cardinality;
  node.cardinality =
      input_card *
      std::pow(1.0 / 3.0, static_cast<double>(node.predicates.size()));
  Result<std::vector<ColumnType>> schema = NodeOutputSchema(
      *catalog_, node, static_cast<int>(plan_.nodes.size()),
      &schemas_[static_cast<size_t>(input)], nullptr, nullptr);
  if (!schema.ok()) return schema.status();
  return Append(std::move(node), *std::move(schema));
}

Result<int> PlanBuilder::Project(int input, std::vector<int> columns) {
  Status status = CheckInput(input);
  if (!status.ok()) return status;
  PlanNode node;
  node.op = PlanOp::kProject;
  node.left = input;
  node.columns = std::move(columns);
  node.cardinality = plan_.nodes[static_cast<size_t>(input)].cardinality;
  Result<std::vector<ColumnType>> schema = NodeOutputSchema(
      *catalog_, node, static_cast<int>(plan_.nodes.size()),
      &schemas_[static_cast<size_t>(input)], nullptr, nullptr);
  if (!schema.ok()) return schema.status();
  return Append(std::move(node), *std::move(schema));
}

Result<int> PlanBuilder::HashJoin(int probe, int build,
                                  std::vector<int> probe_keys,
                                  std::vector<int> build_keys) {
  Status status = CheckInput(probe);
  if (status.ok()) status = CheckInput(build);
  if (!status.ok()) return status;
  if (probe == build) {
    return InvalidArgumentError("plan builder: join sides must differ");
  }
  PlanNode node;
  node.op = PlanOp::kHashJoin;
  node.left = probe;
  node.right = build;
  node.left_keys = std::move(probe_keys);
  node.right_keys = std::move(build_keys);
  if (node.left_keys.empty() ||
      node.left_keys.size() != node.right_keys.size()) {
    return InvalidArgumentError(
        "plan builder: join keys must pair up and be non-empty");
  }
  node.cardinality = plan_.nodes[static_cast<size_t>(probe)].cardinality;
  Result<std::vector<ColumnType>> schema = NodeOutputSchema(
      *catalog_, node, static_cast<int>(plan_.nodes.size()),
      &schemas_[static_cast<size_t>(probe)],
      &schemas_[static_cast<size_t>(build)], nullptr);
  if (!schema.ok()) return schema.status();
  return Append(std::move(node), *std::move(schema));
}

Result<int> PlanBuilder::HashAggregate(int input, std::vector<int> group_by,
                                       std::vector<AggregateSpec> aggregates) {
  Status status = CheckInput(input);
  if (!status.ok()) return status;
  PlanNode node;
  node.op = PlanOp::kHashAggregate;
  node.left = input;
  node.group_by = std::move(group_by);
  node.aggregates = std::move(aggregates);
  const double input_card =
      plan_.nodes[static_cast<size_t>(input)].cardinality;
  node.cardinality =
      node.group_by.empty() ? 1.0 : std::max(1.0, input_card / 10.0);
  Result<std::vector<ColumnType>> schema = NodeOutputSchema(
      *catalog_, node, static_cast<int>(plan_.nodes.size()),
      &schemas_[static_cast<size_t>(input)], nullptr, nullptr);
  if (!schema.ok()) return schema.status();
  return Append(std::move(node), *std::move(schema));
}

Result<int> PlanBuilder::Sort(int input, std::vector<SortKey> keys) {
  Status status = CheckInput(input);
  if (!status.ok()) return status;
  PlanNode node;
  node.op = PlanOp::kSort;
  node.left = input;
  node.sort_keys = std::move(keys);
  node.cardinality = plan_.nodes[static_cast<size_t>(input)].cardinality;
  Result<std::vector<ColumnType>> schema = NodeOutputSchema(
      *catalog_, node, static_cast<int>(plan_.nodes.size()),
      &schemas_[static_cast<size_t>(input)], nullptr, nullptr);
  if (!schema.ok()) return schema.status();
  return Append(std::move(node), *std::move(schema));
}

Result<int> PlanBuilder::Limit(int input, int64_t n) {
  Status status = CheckInput(input);
  if (!status.ok()) return status;
  if (n < 0) return InvalidArgumentError("plan builder: negative limit");
  PlanNode node;
  node.op = PlanOp::kLimit;
  node.left = input;
  node.limit = n;
  node.cardinality = std::min(
      plan_.nodes[static_cast<size_t>(input)].cardinality,
      static_cast<double>(n));
  return Append(std::move(node), schemas_[static_cast<size_t>(input)]);
}

Result<PhysicalPlan> PlanBuilder::Output(int input) {
  Status status = CheckInput(input);
  if (!status.ok()) return status;
  PlanNode node;
  node.op = PlanOp::kOutput;
  node.left = input;
  node.cardinality = plan_.nodes[static_cast<size_t>(input)].cardinality;
  Result<int> appended =
      Append(std::move(node), schemas_[static_cast<size_t>(input)]);
  if (!appended.ok()) return appended.status();
  PhysicalPlan plan = std::move(plan_);
  plan_ = PhysicalPlan();
  schemas_.clear();
  status = ValidatePlan(plan);
  if (!status.ok()) return status;
  return plan;
}

}  // namespace t3
