#ifndef T3_PLAN_PLAN_FILE_H_
#define T3_PLAN_PLAN_FILE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/token_cursor.h"
#include "plan/plan_record.h"

namespace t3 {

/// Standalone plan files ("t3plan v1"): a plan skeleton serialized outside a
/// corpus, using the exact corpus "N" row schema. Golden plan fixtures under
/// data/ use this format and t3_lint runs PlanVerifier over them.
///
///   t3plan v1
///   nodes <n>
///   N <op> <left> <right> <cardinality> <extra> <width> <stage>   (x n)
///
/// Parsing is purely syntactic — the plan rules (CheckPlanRecords, gated on
/// by PlanFromRecords and reported in full by PlanVerifier) come after, so a
/// file with a cycle or a bad op code still parses and every violation gets
/// reported, not just the first. A node count larger than the rest of the
/// text could encode is rejected before anything is allocated.
Result<std::vector<PlanNodeRecord>> ParsePlanText(std::string_view text);

/// Serializes records back to "t3plan v1" text. Round-trips with
/// ParsePlanText bit-exactly (the same %.17g convention as the corpus).
std::string PlanRecordsToText(const std::vector<PlanNodeRecord>& records);

/// The one reader of the N row schema, shared by plan files and corpora:
/// reads "N <op> <left> <right> <cardinality> <extra> <width> <stage>".
/// op, left, right and stage must fit in an int, the three doubles must be
/// finite; false otherwise.
bool ReadPlanNodeLine(TokenCursor* cursor, PlanNodeRecord* record);

/// Appends `record` as one N line, the inverse of ReadPlanNodeLine.
void AppendPlanNodeLine(std::string* out, const PlanNodeRecord& record);

/// A lower bound on the bytes one N line takes: eight tokens, each after a
/// separator. A node count is checked against this before it sizes
/// anything.
inline constexpr size_t kMinPlanNodeLineBytes = 8 * 2;

}  // namespace t3

#endif  // T3_PLAN_PLAN_FILE_H_
