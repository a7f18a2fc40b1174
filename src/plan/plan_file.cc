#include "plan/plan_file.h"

#include "common/string_util.h"

namespace t3 {

bool ReadPlanNodeLine(TokenCursor* cursor, PlanNodeRecord* record) {
  return cursor->NextToken() == "N" && cursor->NextNumber(&record->op) &&
         cursor->NextNumber(&record->left) &&
         cursor->NextNumber(&record->right) &&
         cursor->NextFiniteDouble(&record->cardinality) &&
         cursor->NextFiniteDouble(&record->extra) &&
         cursor->NextFiniteDouble(&record->width) &&
         cursor->NextNumber(&record->stage);
}

void AppendPlanNodeLine(std::string* out, const PlanNodeRecord& record) {
  *out += "N ";
  AppendInt(out, record.op);
  *out += ' ';
  AppendInt(out, record.left);
  *out += ' ';
  AppendInt(out, record.right);
  *out += ' ';
  AppendDouble(out, record.cardinality);
  *out += ' ';
  AppendDouble(out, record.extra);
  *out += ' ';
  AppendDouble(out, record.width);
  *out += ' ';
  AppendInt(out, record.stage);
  *out += '\n';
}

Result<std::vector<PlanNodeRecord>> ParsePlanText(std::string_view text) {
  TokenCursor cursor(text);
  if (cursor.NextToken() != "t3plan" || cursor.NextToken() != "v1") {
    return InvalidArgumentError("not a t3plan v1 file");
  }
  auto error = [&cursor](const char* what) {
    return InvalidArgumentError(
        StrFormat("plan line %d: %s", cursor.line(), what));
  };
  size_t num_nodes = 0;
  if (cursor.NextToken() != "nodes" || !cursor.NextNumber(&num_nodes) ||
      num_nodes > cursor.Remaining() / kMinPlanNodeLineBytes) {
    return error("bad node count");
  }
  std::vector<PlanNodeRecord> records(num_nodes);
  for (PlanNodeRecord& record : records) {
    if (!ReadPlanNodeLine(&cursor, &record)) return error("malformed N line");
  }
  if (!cursor.AtEnd()) return error("trailing data after last node");
  return records;
}

std::string PlanRecordsToText(const std::vector<PlanNodeRecord>& records) {
  std::string out = "t3plan v1\nnodes ";
  AppendInt(&out, records.size());
  out += '\n';
  for (const PlanNodeRecord& record : records) {
    AppendPlanNodeLine(&out, record);
  }
  return out;
}

}  // namespace t3
