#include "engine/executor.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace t3 {
namespace {

/// Folds one key column's value into a running key hash. Joins and
/// aggregation share it; a NULL hashes apart from every value.
uint64_t HashKeyPart(uint64_t hash, bool is_null, int64_t value) {
  return SplitMix64(hash ^ static_cast<uint64_t>(is_null ? 0 : value)) +
         (is_null ? 1 : 0);
}

/// Hash of one row's join key over the integer-backed key columns; the row
/// must have no NULL key. The same function hashes build and probe rows.
uint64_t HashJoinKey(const DataChunk& chunk,
                     const std::vector<int>& key_columns, size_t row) {
  uint64_t hash = kFnv64Offset;
  for (int column : key_columns) {
    hash = HashKeyPart(
        hash, false, chunk.columns[static_cast<size_t>(column)].i64[row]);
  }
  return hash;
}

/// True when any of the key columns is NULL at `row`.
bool AnyKeyNull(const DataChunk& chunk, const std::vector<int>& key_columns,
                size_t row) {
  for (int column : key_columns) {
    if (chunk.columns[static_cast<size_t>(column)].IsNull(row)) return true;
  }
  return false;
}

/// Chained hash table over the materialized build side of a join. Chains
/// are threaded so probing emits matches in ascending build-row order —
/// execution stays deterministic and matches the scalar reference.
struct JoinHashTable {
  DataChunk rows;                 // Materialized build-side output.
  std::vector<int> key_columns;   // Build key columns within `rows`.
  std::vector<uint64_t> hashes;   // row -> key hash (rows with a NULL key
                                  // are never chained).
  std::vector<uint32_t> heads;    // bucket -> row index + 1 (0 = empty).
  std::vector<uint32_t> next;     // row -> next row in bucket + 1.
  uint64_t mask = 0;

  void Finish() {
    size_t buckets = 16;
    while (buckets < rows.num_rows * 2) buckets *= 2;
    mask = buckets - 1;
    heads.assign(buckets, 0);
    next.assign(rows.num_rows, 0);
    hashes.assign(rows.num_rows, 0);
    // Reverse insertion + head chaining = forward emission order.
    for (size_t r = rows.num_rows; r-- > 0;) {
      if (AnyKeyNull(rows, key_columns, r)) continue;
      hashes[r] = HashJoinKey(rows, key_columns, r);
      const size_t bucket = hashes[r] & mask;
      next[r] = heads[bucket];
      heads[bucket] = static_cast<uint32_t>(r) + 1;
    }
  }

  /// True when build row `build_row` (chained, so its key is not NULL)
  /// has the same key as non-NULL probe row `probe_row` of `probe`.
  bool KeysEqual(size_t build_row, const DataChunk& probe,
                 const std::vector<int>& probe_keys, size_t probe_row) const {
    for (size_t k = 0; k < key_columns.size(); ++k) {
      const ColumnVector& build_values =
          rows.columns[static_cast<size_t>(key_columns[k])];
      const ColumnVector& probe_values =
          probe.columns[static_cast<size_t>(probe_keys[k])];
      if (build_values.i64[build_row] != probe_values.i64[probe_row]) {
        return false;
      }
    }
    return true;
  }
};

/// One aggregate accumulator (one group x one AggregateSpec).
struct Accumulator {
  uint64_t count = 0;
  double sum = 0.0;
  bool has_value = false;
  int64_t min_max_i64 = 0;
  double min_max_f64 = 0.0;
  std::string_view min_max_str;  // A view of catalog storage.
};

/// Groups of one hash aggregation, numbered in first-seen order. Group g's
/// key is `keys[g * width, (g + 1) * width)`: a (null flag, value) pair per
/// group-by column, where a NULL keeps value 0 so NULLs form one group.
struct AggregationState {
  size_t width = 0;
  std::vector<int64_t> keys;
  std::vector<uint64_t> hashes;                // group -> key hash.
  std::vector<uint32_t> slots;                 // Open addressing: group + 1.
  std::vector<std::vector<Accumulator>> accs;  // [aggregate][group].

  AggregationState(size_t key_columns, size_t aggregates)
      : width(2 * key_columns), slots(16, 0), accs(aggregates) {}

  size_t num_groups() const { return hashes.size(); }

  uint32_t AddGroup(uint64_t hash) {
    const uint32_t group = static_cast<uint32_t>(num_groups());
    hashes.push_back(hash);
    keys.resize(keys.size() + width);
    for (std::vector<Accumulator>& column : accs) column.emplace_back();
    return group;
  }

  /// The group of `row`'s key over `group_by` (hash `hash`), added with a
  /// copy of the key when it is new.
  uint32_t FindOrAdd(const DataChunk& chunk, const std::vector<int>& group_by,
                     size_t row, uint64_t hash) {
    const uint64_t mask = slots.size() - 1;
    for (uint64_t slot = hash & mask;; slot = (slot + 1) & mask) {
      if (slots[slot] == 0) {
        const uint32_t group = AddGroup(hash);
        int64_t* key = keys.data() + group * width;
        for (size_t k = 0; k < group_by.size(); ++k) {
          const ColumnVector& values =
              chunk.columns[static_cast<size_t>(group_by[k])];
          key[2 * k] = values.null[row];
          key[2 * k + 1] = values.i64[row];  // 0 when NULL.
        }
        slots[slot] = group + 1;
        if (2 * num_groups() > slots.size()) Grow();
        return group;
      }
      const uint32_t group = slots[slot] - 1;
      if (hashes[group] == hash && KeyEquals(group, chunk, group_by, row)) {
        return group;
      }
    }
  }

 private:
  bool KeyEquals(uint32_t group, const DataChunk& chunk,
                 const std::vector<int>& group_by, size_t row) const {
    const int64_t* key = keys.data() + group * width;
    for (size_t k = 0; k < group_by.size(); ++k) {
      const ColumnVector& values =
          chunk.columns[static_cast<size_t>(group_by[k])];
      if (key[2 * k] != values.null[row] ||
          key[2 * k + 1] != values.i64[row]) {
        return false;
      }
    }
    return true;
  }

  void Grow() {
    slots.assign(slots.size() * 2, 0);
    const uint64_t mask = slots.size() - 1;
    for (size_t group = 0; group < num_groups(); ++group) {
      uint64_t slot = hashes[group] & mask;
      while (slots[slot] != 0) slot = (slot + 1) & mask;
      slots[slot] = static_cast<uint32_t>(group) + 1;
    }
  }
};

/// Applies `fold(accumulator, value)` to every non-NULL row of `values`, in
/// row order, with the accumulator of the row's group.
template <typename T, typename Fold>
void FoldValues(const std::vector<T>& values, const std::vector<uint8_t>& null,
                const std::vector<uint32_t>& groups,
                std::vector<Accumulator>* accs, Fold fold) {
  for (size_t r = 0; r < groups.size(); ++r) {
    if (null[r] == 0) fold(&(*accs)[groups[r]], values[r]);
  }
}

int64_t& MinMaxSlot(Accumulator* acc, int64_t) { return acc->min_max_i64; }
double& MinMaxSlot(Accumulator* acc, double) { return acc->min_max_f64; }
std::string_view& MinMaxSlot(Accumulator* acc, std::string_view) {
  return acc->min_max_str;
}

/// Folds one chunk's input column into one aggregate's accumulators;
/// `groups[r]` is row r's group. NULL inputs are skipped.
void UpdateAggregate(const AggregateSpec& spec, const DataChunk& chunk,
                     const std::vector<uint32_t>& groups,
                     std::vector<Accumulator>* accs) {
  if (spec.fn == AggFunc::kCountStar) {
    for (uint32_t group : groups) ++(*accs)[group].count;
    return;
  }
  const ColumnVector& values = chunk.columns[static_cast<size_t>(spec.column)];
  switch (spec.fn) {
    case AggFunc::kCount:
      for (size_t r = 0; r < groups.size(); ++r) {
        if (values.null[r] == 0) ++(*accs)[groups[r]].count;
      }
      break;
    case AggFunc::kSum: {
      const auto add = [](Accumulator* acc, auto value) {
        acc->sum += static_cast<double>(value);
        acc->has_value = true;
      };
      if (values.type == ColumnType::kFloat64) {
        FoldValues(values.f64, values.null, groups, accs, add);
      } else {
        FoldValues(values.i64, values.null, groups, accs, add);
      }
      break;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const bool want_min = spec.fn == AggFunc::kMin;
      const auto keep = [want_min](Accumulator* acc, const auto& value) {
        auto& best = MinMaxSlot(acc, value);
        if (!acc->has_value || (want_min ? value < best : value > best)) {
          best = value;
        }
        acc->has_value = true;
      };
      switch (values.type) {
        case ColumnType::kInt64:
        case ColumnType::kDate:
          FoldValues(values.i64, values.null, groups, accs, keep);
          break;
        case ColumnType::kFloat64:
          FoldValues(values.f64, values.null, groups, accs, keep);
          break;
        case ColumnType::kString:
          FoldValues(values.str, values.null, groups, accs, keep);
          break;
      }
      break;
    }
    case AggFunc::kCountStar:
      break;
  }
}

/// Writes one aggregate's per-group results into the empty `column`. Sum,
/// min and max of a group that saw no input are NULL, with the zero/empty
/// placeholder.
void EmitAggregate(const AggregateSpec& spec,
                   const std::vector<Accumulator>& accs, ColumnVector* column) {
  const size_t groups = accs.size();
  column->null.assign(groups, 0);
  if (spec.fn == AggFunc::kCountStar || spec.fn == AggFunc::kCount) {
    column->i64.resize(groups);
    for (size_t g = 0; g < groups; ++g) {
      column->i64[g] = static_cast<int64_t>(accs[g].count);
    }
    return;
  }
  for (size_t g = 0; g < groups; ++g) {
    column->null[g] = accs[g].has_value ? 0 : 1;
  }
  if (spec.fn == AggFunc::kSum) {
    column->f64.resize(groups);
    for (size_t g = 0; g < groups; ++g) {
      column->f64[g] = accs[g].has_value ? accs[g].sum : 0.0;
    }
    return;
  }
  switch (column->type) {  // kMin / kMax.
    case ColumnType::kInt64:
    case ColumnType::kDate:
      column->i64.resize(groups);
      for (size_t g = 0; g < groups; ++g) {
        column->i64[g] = accs[g].has_value ? accs[g].min_max_i64 : 0;
      }
      break;
    case ColumnType::kFloat64:
      column->f64.resize(groups);
      for (size_t g = 0; g < groups; ++g) {
        column->f64[g] = accs[g].has_value ? accs[g].min_max_f64 : 0.0;
      }
      break;
    case ColumnType::kString:
      column->str.resize(groups);
      for (size_t g = 0; g < groups; ++g) {
        if (accs[g].has_value) column->str[g] = accs[g].min_max_str;
      }
      break;
  }
}

/// One sort key resolved for the comparator: raw pointers into the sort
/// buffer, each key compared in its own type (int64 and date keys as
/// int64, so keys beyond 2^53 stay distinct).
struct SortColumn {
  const uint8_t* null = nullptr;
  const int64_t* i64 = nullptr;           // Int64/date keys.
  const double* f64 = nullptr;            // Float64 keys.
  const std::string_view* str = nullptr;  // String keys.
  bool ascending = true;

  /// -1/0/1 three-way compare of two rows; NULLs order after every value
  /// (so they come last ascending, first descending).
  int Compare(uint32_t a, uint32_t b) const {
    if (null[a] != 0 || null[b] != 0) return null[a] - null[b];
    if (str != nullptr) {
      const int cmp = str[a].compare(str[b]);
      return (cmp > 0) - (cmp < 0);
    }
    if (i64 != nullptr) return (i64[a] > i64[b]) - (i64[a] < i64[b]);
    if (f64[a] < f64[b]) return -1;
    return f64[a] == f64[b] ? 0 : 1;
  }
};

/// For each node, which columns of its output some consumer reads. Every
/// non-root node has exactly one consumer, at a higher id, so one pass from
/// the root down completes a node's set before it derives its inputs' sets.
/// A scan's set picks the storage columns to copy.
std::vector<std::vector<bool>> LiveColumns(
    const PhysicalPlan& plan,
    const std::vector<std::vector<ColumnType>>& schemas) {
  std::vector<std::vector<bool>> live(plan.nodes.size());
  for (size_t id = 0; id < plan.nodes.size(); ++id) {
    live[id].assign(schemas[id].size(), false);
  }
  const auto mark = [](std::vector<bool>* set, int column) {
    (*set)[static_cast<size_t>(column)] = true;
  };
  for (size_t id = plan.nodes.size(); id-- > 0;) {
    const PlanNode& node = plan.nodes[id];
    const std::vector<bool>& out = live[id];
    std::vector<bool>* in =
        node.left >= 0 ? &live[static_cast<size_t>(node.left)] : nullptr;
    switch (node.op) {
      case PlanOp::kScan:
        break;
      case PlanOp::kOutput:  // The query result: every column is read.
        in->assign(in->size(), true);
        break;
      case PlanOp::kLimit:
        *in = out;
        break;
      case PlanOp::kFilter:
        *in = out;
        for (const FilterPredicate& predicate : node.predicates) {
          mark(in, predicate.column);
        }
        break;
      case PlanOp::kSort:
        *in = out;
        for (const SortKey& key : node.sort_keys) mark(in, key.column);
        break;
      case PlanOp::kProject:
        for (size_t c = 0; c < node.columns.size(); ++c) {
          if (out[c]) mark(in, node.columns[c]);
        }
        break;
      case PlanOp::kHashJoin: {
        std::vector<bool>& build = live[static_cast<size_t>(node.right)];
        const size_t probe_width = in->size();
        for (size_t c = 0; c < out.size(); ++c) {
          if (!out[c]) continue;
          if (c < probe_width) {
            (*in)[c] = true;
          } else {
            build[c - probe_width] = true;
          }
        }
        for (int key : node.left_keys) mark(in, key);
        for (int key : node.right_keys) mark(&build, key);
        break;
      }
      case PlanOp::kHashAggregate:
        for (int column : node.group_by) mark(in, column);
        for (const AggregateSpec& spec : node.aggregates) {
          if (spec.fn != AggFunc::kCountStar) mark(in, spec.column);
        }
        break;
    }
  }
  return live;
}

struct NodeState {
  std::unique_ptr<JoinHashTable> join;
  std::unique_ptr<AggregationState> agg;
  std::unique_ptr<DataChunk> sort_buffer;
  /// Breaker output (aggregate/sort), scanned by the consumer pipeline.
  std::unique_ptr<DataChunk> materialized;
  /// A streaming operator's output buffer, reused for every morsel.
  std::unique_ptr<DataChunk> output;
};

/// Appends rows [begin, end) of `column` to `values` and `null`: one loop
/// copies every row's value through `value_at`, then the NULL rows, found a
/// bitmap word at a time, get their flag and a `T{}` placeholder whatever
/// the storage slot holds.
template <typename T, typename ValueAt>
void AppendTypedRange(const Column& column, size_t begin, size_t end,
                      ValueAt value_at, std::vector<T>* values,
                      std::vector<uint8_t>* null) {
  const size_t base = null->size();
  const size_t n = end - begin;
  values->resize(base + n);
  null->resize(base + n, 0);
  T* dst = values->data() + base;
  uint8_t* flags = null->data() + base;
  for (size_t i = 0; i < n; ++i) dst[i] = value_at(begin + i);
  const std::vector<uint64_t>& words = column.null_words();
  for (size_t i = 0; i < n;) {
    const size_t row = begin + i;
    const size_t take = std::min<size_t>(64 - (row & 63), n - i);
    uint64_t bits = words[row >> 6] >> (row & 63);
    if (take < 64) bits &= (uint64_t{1} << take) - 1;
    for (; bits != 0; bits &= bits - 1) {
      const size_t r = i + static_cast<size_t>(std::countr_zero(bits));
      flags[r] = 1;
      dst[r] = T{};
    }
    i += take;
  }
}

/// Copies rows [begin, end) of a storage column onto the end of `out`
/// (same type). A string cell is a view of the storage string. Skips a
/// dead `out`.
void AppendColumnRange(const Column& column, size_t begin, size_t end,
                       ColumnVector* out) {
  if (!out->live) return;
  switch (column.type()) {
    case ColumnType::kInt64:
    case ColumnType::kDate:
      AppendTypedRange(
          column, begin, end,
          [&column](size_t row) { return column.Int64At(row); }, &out->i64,
          &out->null);
      break;
    case ColumnType::kFloat64:
      AppendTypedRange(
          column, begin, end,
          [&column](size_t row) { return column.Float64At(row); },
          &out->f64, &out->null);
      break;
    case ColumnType::kString:
      AppendTypedRange(
          column, begin, end,
          [&column](size_t row) -> std::string_view {
            return column.StringAt(row);
          },
          &out->str, &out->null);
      break;
  }
}

/// Reads morsels out of a base table or a materialized chunk into one
/// buffer that every morsel of the pipeline reuses.
class Source {
 public:
  Source(const Table* table, const std::vector<int>* columns,
         const DataChunk* chunk, const std::vector<ColumnType>& schema,
         const std::vector<bool>& live)
      : table_(table),
        columns_(columns),
        chunk_(chunk),
        morsel_(schema, live) {}

  size_t total_rows() const {
    return table_ != nullptr ? table_->num_rows() : chunk_->num_rows;
  }

  /// The next morsel, valid until the following call; nullptr at end of
  /// input.
  const DataChunk* Next() {
    const size_t total = total_rows();
    if (offset_ >= total) return nullptr;
    const size_t end = std::min(total, offset_ + kMorselRows);
    morsel_.Clear();
    if (table_ != nullptr) {
      for (size_t c = 0; c < columns_->size(); ++c) {
        AppendColumnRange(table_->column(static_cast<size_t>((*columns_)[c])),
                          offset_, end, &morsel_.columns[c]);
      }
      morsel_.num_rows = end - offset_;
    } else {
      morsel_.AppendRange(*chunk_, offset_, end);
    }
    offset_ = end;
    return &morsel_;
  }

 private:
  const Table* table_;
  const std::vector<int>* columns_;
  const DataChunk* chunk_;
  DataChunk morsel_;
  size_t offset_ = 0;
};

/// Keeps the entries of `sel` whose row of `values` is not NULL and passes
/// `value <cmp> constant`; the survivors stay in order. Returns their count.
template <typename T, typename Cmp>
size_t RefineSelection(const std::vector<T>& values,
                       const std::vector<uint8_t>& null, double constant,
                       Cmp cmp, std::vector<uint32_t>* sel) {
  uint32_t* rows = sel->data();
  size_t kept = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    const uint32_t row = rows[i];
    const bool pass =
        null[row] == 0 && cmp(static_cast<double>(values[row]), constant);
    rows[kept] = row;
    kept += pass ? 1 : 0;
  }
  return kept;
}

/// Narrows `sel` to the rows of `chunk` that pass `predicate` (NULL never
/// passes). The comparison is done in double, int64/date values cast.
void ApplyPredicate(const DataChunk& chunk, const FilterPredicate& predicate,
                    std::vector<uint32_t>* sel) {
  const ColumnVector& values =
      chunk.columns[static_cast<size_t>(predicate.column)];
  const auto refine = [&](auto cmp) {
    return values.type == ColumnType::kFloat64
               ? RefineSelection(values.f64, values.null, predicate.constant,
                                 cmp, sel)
               : RefineSelection(values.i64, values.null, predicate.constant,
                                 cmp, sel);
  };
  size_t kept = 0;
  switch (predicate.cmp) {
    case CompareOp::kLt:
      kept = refine([](double v, double c) { return v < c; });
      break;
    case CompareOp::kLe:
      kept = refine([](double v, double c) { return v <= c; });
      break;
    case CompareOp::kGt:
      kept = refine([](double v, double c) { return v > c; });
      break;
    case CompareOp::kGe:
      kept = refine([](double v, double c) { return v >= c; });
      break;
    case CompareOp::kEq:
      kept = refine([](double v, double c) { return v == c; });
      break;
    case CompareOp::kNe:
      kept = refine([](double v, double c) { return v != c; });
      break;
  }
  sel->resize(kept);
}

/// Execution of one plan; holds all per-query state.
class Run {
 public:
  Run(const Catalog& catalog, const PhysicalPlan& plan,
      std::vector<std::vector<ColumnType>> schemas,
      PipelineDecomposition decomposition)
      : catalog_(catalog),
        plan_(plan),
        schemas_(std::move(schemas)),
        live_(LiveColumns(plan, schemas_)),
        decomposition_(std::move(decomposition)),
        states_(plan.nodes.size()) {
    ea_.operators.resize(plan.nodes.size());
    for (size_t i = 0; i < plan.nodes.size(); ++i) {
      ea_.operators[i].op = plan.nodes[i].op;
    }
  }

  Result<ExplainAnalyze> Execute() {
    for (const Pipeline& pipeline : decomposition_.pipelines) {
      Status status = RunPipeline(pipeline);
      if (!status.ok()) return status;
    }
    return std::move(ea_);
  }

 private:
  const PlanNode& Node(int id) const {
    return plan_.nodes[static_cast<size_t>(id)];
  }
  const std::vector<ColumnType>& Schema(int id) const {
    return schemas_[static_cast<size_t>(id)];
  }
  const std::vector<bool>& Live(int id) const {
    return live_[static_cast<size_t>(id)];
  }
  NodeState& State(int id) { return states_[static_cast<size_t>(id)]; }
  OperatorStats& Stats(int id) {
    return ea_.operators[static_cast<size_t>(id)];
  }

  Status RunPipeline(const Pipeline& pipeline) {
    Stopwatch timer;
    PipelineStats stats;
    stats.pipeline = pipeline.id;
    stats.driving_cardinality = pipeline.driving_cardinality;
    stats.nodes = pipeline.nodes;

    // The source: a table scan, or a breaker's materialized output.
    const int source_id = pipeline.source();
    const PlanNode& source_node = Node(source_id);
    const Table* table = nullptr;
    const DataChunk* materialized = nullptr;
    if (source_node.op == PlanOp::kScan) {
      Result<const Table*> found = catalog_.FindTable(source_node.table);
      if (!found.ok()) return found.status();
      table = *found;
    } else {
      materialized = State(source_id).materialized.get();
      T3_CHECK(materialized != nullptr);  // Topological pipeline order.
    }
    Source source(table, &source_node.columns, materialized,
                  Schema(source_id), Live(source_id));

    const int sink_id = pipeline.sink();
    InitSink(pipeline, sink_id);

    // Reset per-pipeline limit counters; give each streaming operator the
    // output buffer it reuses for every morsel.
    for (size_t n = 1; n + 1 < pipeline.nodes.size(); ++n) {
      const int id = pipeline.nodes[n];
      if (Node(id).op == PlanOp::kLimit) {
        limit_remaining_[id] = Node(id).limit;
      }
      State(id).output = std::make_unique<DataChunk>(Schema(id), Live(id));
    }

    bool stop = false;
    const DataChunk* chunk = nullptr;
    while (!stop && (chunk = source.Next()) != nullptr) {
      ++stats.morsels;
      stats.source_rows += chunk->num_rows;
      if (source_node.op == PlanOp::kScan) {
        Stats(source_id).rows_in += chunk->num_rows;
        Stats(source_id).rows_out += chunk->num_rows;
      }
      // Stream through the chain; the last node is the sink. A limit that
      // exhausts mid-chain sets `stop` but its truncated chunk still flows
      // on to the sink before the morsel loop ends.
      for (size_t n = 1; n < pipeline.nodes.size(); ++n) {
        const int id = pipeline.nodes[n];
        const bool is_sink = n + 1 == pipeline.nodes.size();
        if (is_sink) {
          AbsorbIntoSink(pipeline, id, *chunk);
          break;
        }
        Status status = Transform(id, &chunk, &stop);
        if (!status.ok()) return status;
        if (chunk->num_rows == 0) break;  // Nothing left for this morsel.
      }
    }

    Status status = FinishSink(pipeline, sink_id);
    if (!status.ok()) return status;
    stats.seconds = timer.ElapsedSeconds();
    ea_.pipelines.push_back(std::move(stats));
    return Status::OK();
  }

  void InitSink(const Pipeline& pipeline, int sink_id) {
    const PlanNode& sink = Node(sink_id);
    NodeState& state = State(sink_id);
    if (pipeline.builds_hash_table) {
      state.join = std::make_unique<JoinHashTable>();
      state.join->rows = DataChunk(Schema(sink.right), Live(sink.right));
      state.join->key_columns = sink.right_keys;
    } else if (sink.op == PlanOp::kHashAggregate) {
      state.agg = std::make_unique<AggregationState>(sink.group_by.size(),
                                                     sink.aggregates.size());
    } else if (sink.op == PlanOp::kSort) {
      // The buffer also holds the sort keys, which the output may not.
      state.sort_buffer =
          std::make_unique<DataChunk>(Schema(sink_id), Live(sink.left));
    } else if (sink.op == PlanOp::kOutput &&
               ea_.result.columns.empty()) {
      ea_.result = DataChunk(Schema(sink_id));
    }
  }

  void AbsorbIntoSink(const Pipeline& pipeline, int sink_id,
                      const DataChunk& chunk) {
    const PlanNode& sink = Node(sink_id);
    OperatorStats& stats = Stats(sink_id);
    stats.rows_in += chunk.num_rows;
    if (pipeline.builds_hash_table) {
      State(sink_id).join->rows.AppendRange(chunk, 0, chunk.num_rows);
      return;
    }
    switch (sink.op) {
      case PlanOp::kHashAggregate:
        AccumulateGroups(sink_id, chunk);
        break;
      case PlanOp::kSort:
        State(sink_id).sort_buffer->AppendRange(chunk, 0, chunk.num_rows);
        break;
      case PlanOp::kOutput:
        ea_.result.AppendRange(chunk, 0, chunk.num_rows);
        stats.rows_out += chunk.num_rows;
        break;
      default:
        T3_CHECK(false);  // Decomposition only ends pipelines at sinks.
    }
  }

  Status FinishSink(const Pipeline& pipeline, int sink_id) {
    const PlanNode& sink = Node(sink_id);
    if (pipeline.builds_hash_table) {
      State(sink_id).join->Finish();
      return Status::OK();
    }
    if (sink.op == PlanOp::kHashAggregate) {
      MaterializeGroups(sink_id);
      Stats(sink_id).rows_out = State(sink_id).materialized->num_rows;
      return Status::OK();
    }
    if (sink.op == PlanOp::kSort) {
      MaterializeSorted(sink_id);
      Stats(sink_id).rows_out = State(sink_id).materialized->num_rows;
      return Status::OK();
    }
    return Status::OK();
  }

  /// Applies a streaming operator to `*chunk` and points it at the result:
  /// the operator's own output buffer, or the input itself when every row
  /// passes unchanged. Sets `stop` when a limit is exhausted (the pipeline
  /// stops fetching morsels).
  Status Transform(int id, const DataChunk** chunk, bool* stop) {
    const PlanNode& node = Node(id);
    OperatorStats& stats = Stats(id);
    const DataChunk& in = **chunk;
    DataChunk& out = *State(id).output;
    stats.rows_in += in.num_rows;
    switch (node.op) {
      case PlanOp::kFilter: {
        sel_.resize(in.num_rows);
        std::iota(sel_.begin(), sel_.end(), 0u);
        for (const FilterPredicate& predicate : node.predicates) {
          ApplyPredicate(in, predicate, &sel_);
        }
        if (sel_.size() < in.num_rows) {
          out.Clear();
          out.Gather(in, sel_);
          *chunk = &out;
        }
        break;
      }
      case PlanOp::kProject: {
        out.Clear();
        for (size_t c = 0; c < node.columns.size(); ++c) {
          out.columns[c].AppendRange(
              in.columns[static_cast<size_t>(node.columns[c])], 0,
              in.num_rows);
        }
        out.num_rows = in.num_rows;
        *chunk = &out;
        break;
      }
      case PlanOp::kHashJoin: {
        ProbeJoin(node, *State(id).join, in, &out);
        *chunk = &out;
        break;
      }
      case PlanOp::kLimit: {
        int64_t& remaining = limit_remaining_[id];
        const int64_t rows = static_cast<int64_t>(in.num_rows);
        if (rows >= remaining) {
          out.Clear();
          out.AppendRange(in, 0, static_cast<size_t>(remaining));
          *chunk = &out;
          remaining = 0;
          *stop = true;
        } else {
          remaining -= rows;
        }
        break;
      }
      default:
        return InternalError(
            StrFormat("node %d (%s) is not a streaming operator", id,
                      PlanOpName(node.op)));
    }
    stats.rows_out += (*chunk)->num_rows;
    return Status::OK();
  }

  /// Emits the matches of every probe row of `in` into `out`, probe columns
  /// then build columns: probe rows in order, each one's matching build
  /// rows ascending. Rows with a NULL key never match.
  void ProbeJoin(const PlanNode& node, const JoinHashTable& join,
                 const DataChunk& in, DataChunk* out) {
    sel_.clear();
    build_sel_.clear();
    for (size_t r = 0; r < in.num_rows; ++r) {
      if (AnyKeyNull(in, node.left_keys, r)) continue;
      const uint64_t hash = HashJoinKey(in, node.left_keys, r);
      for (uint32_t slot = join.heads[hash & join.mask]; slot != 0;
           slot = join.next[slot - 1]) {
        const size_t build_row = slot - 1;
        if (join.hashes[build_row] != hash ||
            !join.KeysEqual(build_row, in, node.left_keys, r)) {
          continue;
        }
        sel_.push_back(static_cast<uint32_t>(r));
        build_sel_.push_back(static_cast<uint32_t>(build_row));
      }
    }
    out->Clear();
    const size_t probe_columns = in.columns.size();
    for (size_t c = 0; c < probe_columns; ++c) {
      out->columns[c].Gather(in.columns[c], sel_);
    }
    for (size_t c = 0; c < join.rows.columns.size(); ++c) {
      out->columns[probe_columns + c].Gather(join.rows.columns[c],
                                             build_sel_);
    }
    out->num_rows = sel_.size();
  }

  /// Assigns every row of `chunk` its group (first-seen order), then folds
  /// the chunk into each aggregate's accumulators, one aggregate at a time.
  void AccumulateGroups(int id, const DataChunk& chunk) {
    const PlanNode& node = Node(id);
    AggregationState& agg = *State(id).agg;
    sel_.resize(chunk.num_rows);
    if (node.group_by.empty()) {
      if (agg.num_groups() == 0 && chunk.num_rows > 0) agg.AddGroup(0);
      std::fill(sel_.begin(), sel_.end(), 0);
    } else {
      key_hashes_.assign(chunk.num_rows, kFnv64Offset);
      for (int column : node.group_by) {
        const ColumnVector& values = chunk.columns[static_cast<size_t>(column)];
        for (size_t r = 0; r < chunk.num_rows; ++r) {
          key_hashes_[r] =
              HashKeyPart(key_hashes_[r], values.null[r] != 0, values.i64[r]);
        }
      }
      for (size_t r = 0; r < chunk.num_rows; ++r) {
        sel_[r] = agg.FindOrAdd(chunk, node.group_by, r, key_hashes_[r]);
      }
    }
    for (size_t a = 0; a < node.aggregates.size(); ++a) {
      UpdateAggregate(node.aggregates[a], chunk, sel_, &agg.accs[a]);
    }
  }

  /// Writes one row per group, first-seen order: the group keys, then
  /// each aggregate's results, one column at a time.
  void MaterializeGroups(int id) {
    const PlanNode& node = Node(id);
    AggregationState& agg = *State(id).agg;
    // Global aggregation produces its single group even on empty input.
    if (node.group_by.empty() && agg.num_groups() == 0) agg.AddGroup(0);
    const size_t groups = agg.num_groups();
    auto out = std::make_unique<DataChunk>(Schema(id));
    for (size_t k = 0; k < node.group_by.size(); ++k) {
      ColumnVector& column = out->columns[k];
      column.null.resize(groups);
      column.i64.resize(groups);
      for (size_t g = 0; g < groups; ++g) {
        const int64_t* key = agg.keys.data() + g * agg.width + 2 * k;
        column.null[g] = static_cast<uint8_t>(key[0]);
        column.i64[g] = key[1];  // 0 when NULL.
      }
    }
    for (size_t a = 0; a < node.aggregates.size(); ++a) {
      EmitAggregate(node.aggregates[a], agg.accs[a],
                    &out->columns[node.group_by.size() + a]);
    }
    out->num_rows = groups;
    State(id).materialized = std::move(out);
  }

  /// Stable sort of the buffered rows: a uint32_t row order sorted on the
  /// resolved keys, then one gather.
  void MaterializeSorted(int id) {
    const PlanNode& node = Node(id);
    DataChunk& buffer = *State(id).sort_buffer;
    std::vector<SortColumn> keys;
    for (const SortKey& key : node.sort_keys) {
      const ColumnVector& values =
          buffer.columns[static_cast<size_t>(key.column)];
      SortColumn column;
      column.null = values.null.data();
      column.ascending = key.ascending;
      if (values.type == ColumnType::kString) {
        column.str = values.str.data();
      } else if (values.type == ColumnType::kFloat64) {
        column.f64 = values.f64.data();
      } else {
        column.i64 = values.i64.data();
      }
      keys.push_back(column);
    }
    std::vector<uint32_t> order(buffer.num_rows);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&keys](uint32_t a, uint32_t b) {
                       for (const SortColumn& key : keys) {
                         const int cmp = key.Compare(a, b);
                         if (cmp != 0) {
                           return key.ascending ? cmp < 0 : cmp > 0;
                         }
                       }
                       return false;
                     });
    auto out = std::make_unique<DataChunk>(Schema(id), Live(id));
    out->Gather(buffer, order);
    State(id).materialized = std::move(out);
    State(id).sort_buffer.reset();
  }

  const Catalog& catalog_;
  const PhysicalPlan& plan_;
  std::vector<std::vector<ColumnType>> schemas_;
  std::vector<std::vector<bool>> live_;  // LiveColumns, per node.
  PipelineDecomposition decomposition_;
  std::vector<NodeState> states_;
  std::unordered_map<int, int64_t> limit_remaining_;
  // Selection vectors reused across morsels: filter survivors, a join
  // probe's (probe row, build row) match pairs, and an aggregate input's
  // group ids and key hashes.
  std::vector<uint32_t> sel_;
  std::vector<uint32_t> build_sel_;
  std::vector<uint64_t> key_hashes_;
  ExplainAnalyze ea_;
};

}  // namespace

Result<ExplainAnalyze> Executor::Execute(const PhysicalPlan& plan) const {
  Stopwatch total;
  Result<std::vector<std::vector<ColumnType>>> schemas =
      ResolvePlanSchemas(*catalog_, plan);
  if (!schemas.ok()) return schemas.status();
  Result<PipelineDecomposition> decomposition = DecomposePipelines(plan);
  if (!decomposition.ok()) return decomposition.status();

  Run run(*catalog_, plan, *std::move(schemas), *std::move(decomposition));
  Result<ExplainAnalyze> result = run.Execute();
  if (!result.ok()) return result;
  result->total_seconds = total.ElapsedSeconds();
  return result;
}

std::string ExplainAnalyze::ToString(const PhysicalPlan& plan) const {
  std::string out = StrFormat("query: %s, %llu result rows\n",
                              FormatDuration(total_seconds * 1e9).c_str(),
                              static_cast<unsigned long long>(result_rows()));
  for (const PipelineStats& stats : pipelines) {
    out += StrFormat(
        "pipeline %d: %s, driving=%.0f, source_rows=%llu, morsels=%llu |",
        stats.pipeline, FormatDuration(stats.seconds * 1e9).c_str(),
        stats.driving_cardinality,
        static_cast<unsigned long long>(stats.source_rows),
        static_cast<unsigned long long>(stats.morsels));
    for (int id : stats.nodes) {
      out += StrFormat(" %s#%d",
                       PlanOpName(plan.nodes[static_cast<size_t>(id)].op), id);
    }
    out.push_back('\n');
  }
  for (size_t i = 0; i < operators.size(); ++i) {
    out += StrFormat("  #%zu %-14s in=%llu out=%llu\n", i,
                     PlanOpName(operators[i].op),
                     static_cast<unsigned long long>(operators[i].rows_in),
                     static_cast<unsigned long long>(operators[i].rows_out));
  }
  return out;
}

}  // namespace t3
