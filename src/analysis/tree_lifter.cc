#include "analysis/tree_lifter.h"

#include <algorithm>
#include <string>

#include "common/string_util.h"

namespace t3 {
namespace {

/// `bad-entry` unless the regions tile [0, end): entries ascend from 0 and
/// each lies inside, so every instruction byte belongs to one region.
bool CheckEntries(const std::vector<size_t>& entries, size_t end,
                  AnalysisReport* report) {
  if (entries.empty() && end != 0) {
    report->Add(Severity::kError, "bad-entry", -1, -1,
                StrFormat("no region owns the %zu code bytes", end));
    return false;
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    const bool in_order =
        i == 0 ? entries[i] == 0 : entries[i] > entries[i - 1];
    if (!in_order || entries[i] >= end) {
      report->Add(Severity::kError, "bad-entry", static_cast<int>(i),
                  static_cast<int>(entries[i]),
                  StrFormat("entry offset %zu breaks the region table: "
                            "entries must ascend from 0 inside the %zu "
                            "code bytes",
                            entries[i], end));
      return false;
    }
  }
  return true;
}

size_t RegionEnd(const std::vector<size_t>& entries, size_t i, size_t end) {
  return i + 1 < entries.size() ? entries[i + 1] : end;
}

void ReportFeatureOob(int feature, int num_features, size_t offset,
                      int tree_index, AnalysisReport* report) {
  report->Add(Severity::kError, "lifted-feature-oob", tree_index,
              static_cast<int>(offset),
              StrFormat("compiled node at byte offset %zu loads feature %d "
                        "of a %d-feature row",
                        offset, feature, num_features));
}

/// Reads one region [begin, end) front to back, decoding each instruction
/// in place when the grammar asks for it. The decoder sees the whole
/// buffer [0, size): bytes that do not decode there fail as
/// `undecodable-code`, an instruction that ends past the region as
/// `unliftable-code`. After either, the cursor yields nothing more and
/// failed() tells the grammar not to add a diagnostic of its own.
class InstructionCursor {
 public:
  InstructionCursor(const uint8_t* code, size_t size, size_t begin,
                    size_t end, int tree_index, AnalysisReport* report)
      : code_(code),
        size_(size),
        end_(end),
        tree_index_(tree_index),
        report_(report),
        at_(begin) {}

  size_t at() const { return at_; }
  bool failed() const { return failed_; }

  /// The instruction at the cursor, or nullptr at the region's end or after
  /// a failure.
  const JitInstruction* Peek() {
    if (failed_ || at_ >= end_) return nullptr;
    if (decoded_) return &instruction_;
    if (!DecodeInstruction(code_, size_, at_, &instruction_)) {
      return Fail("undecodable-code",
                  StrFormat("byte 0x%02X at offset %zu is not in the emitter "
                            "whitelist",
                            code_[at_], at_));
    }
    if (instruction_.length > end_ - at_) {
      return Fail("unliftable-code",
                  StrFormat("instruction at byte offset %zu runs past its "
                            "region's end at %zu",
                            at_, end_));
    }
    decoded_ = true;
    return &instruction_;
  }

  /// Steps past the instruction Peek returns.
  void Take() {
    if (Peek() == nullptr) return;
    at_ += instruction_.length;
    decoded_ = false;
  }

 private:
  const JitInstruction* Fail(const char* check, const std::string& message) {
    report_->Add(Severity::kError, check, tree_index_, static_cast<int>(at_),
                 message);
    failed_ = true;
    return nullptr;
  }

  const uint8_t* code_;
  size_t size_;
  size_t end_;
  int tree_index_;
  AnalysisReport* report_;
  size_t at_;
  bool decoded_ = false;  // instruction_ holds the instruction at at_.
  bool failed_ = false;
  JitInstruction instruction_;
};

/// Index of the lifted node starting exactly at `offset`, or -1. Nodes are
/// lifted front to back, so `nodes` is ordered by offset.
int NodeAt(const std::vector<LiftedNode>& nodes, size_t offset) {
  const auto it = std::lower_bound(
      nodes.begin(), nodes.end(), offset,
      [](const LiftedNode& node, size_t at) { return node.offset < at; });
  if (it == nodes.end() || it->offset != offset) return -1;
  return static_cast<int>(it - nodes.begin());
}

/// Lifts one scalar region [begin, end) of the `size`-byte buffer,
/// appending any diagnostics with `tree_index` as location.
void LiftScalarTree(const uint8_t* code, size_t size, size_t begin,
                    size_t end, int num_features, int tree_index,
                    LiftedTree* out, AnalysisReport* report) {
  InstructionCursor cursor(code, size, begin, end, tree_index, report);
  const auto fail = [&](size_t offset, const std::string& message) {
    if (cursor.failed()) return;
    report->Add(Severity::kError, "unliftable-code", tree_index,
                static_cast<int>(offset), message);
  };

  // Pass 1: group the region's instructions into node shapes, front to
  // back. Every node starts with `mov rax, imm64`; the following
  // instruction discriminates leaf from inner node.
  std::vector<size_t> jump_targets;  // Per inner node.
  while (cursor.at() < end) {
    const size_t at = cursor.at();
    const JitInstruction* head = cursor.Peek();
    if (head == nullptr || head->op != JitOp::kMovRaxImm64) {
      return fail(at, "node does not start with mov rax, imm64");
    }
    LiftedNode node;
    node.offset = at;
    const uint64_t imm = head->imm;
    cursor.Take();
    const JitInstruction* select = cursor.Peek();
    if (select == nullptr) {
      return fail(at, "truncated node after mov rax, imm64");
    }
    if (select->op == JitOp::kMovqXmm0Rax) {
      // Leaf: mov rax, value; movq xmm0, rax; ret.
      cursor.Take();
      const JitInstruction* ret = cursor.Peek();
      if (ret == nullptr || ret->op != JitOp::kRet) {
        return fail(at, "leaf shape not closed by ret");
      }
      cursor.Take();
      node.is_leaf = true;
      node.value_bits = imm;
    } else if (select->op == JitOp::kMovqXmm1Rax) {
      // Inner: mov rax, threshold; movq xmm1, rax; movsd xmm0, [rdi+8k];
      // ucomisd; jcc.
      cursor.Take();
      const JitInstruction* load = cursor.Peek();
      if (load == nullptr || (load->op != JitOp::kLoadFeature8 &&
                              load->op != JitOp::kLoadFeature32)) {
        return fail(at, "inner node missing its feature load");
      }
      if (load->disp % 8 != 0) {
        return fail(load->offset,
                    StrFormat("feature load displacement %u not 8-byte "
                              "aligned",
                              load->disp));
      }
      const size_t load_offset = load->offset;
      const int feature = static_cast<int>(load->disp / 8);
      cursor.Take();
      const JitInstruction* compare = cursor.Peek();
      if (compare == nullptr || (compare->op != JitOp::kUcomisdXmm1Xmm0 &&
                                 compare->op != JitOp::kUcomisdXmm0Xmm1)) {
        return fail(at, "inner node missing its ucomisd");
      }
      const bool threshold_first = compare->op == JitOp::kUcomisdXmm1Xmm0;
      cursor.Take();
      const JitInstruction* branch = cursor.Peek();
      if (branch == nullptr ||
          (branch->op != JitOp::kJa && branch->op != JitOp::kJb)) {
        return fail(at, "inner node missing its conditional branch");
      }
      // The four ucomisd/jcc combinations, lifted to exact semantics (see
      // LiftedNode). ucomisd a, b + ja is taken iff a > b ordered;
      // + jb iff a < b *or* unordered (unordered sets ZF = PF = CF = 1).
      const bool jump_above = branch->op == JitOp::kJa;
      jump_targets.push_back(branch->target);
      cursor.Take();
      node.is_leaf = false;
      node.threshold_bits = imm;
      node.feature = feature;
      if (node.feature >= num_features) {
        ReportFeatureOob(node.feature, num_features, load_offset, tree_index,
                         report);
      }
      node.cmp = threshold_first == jump_above ? LiftedNode::Cmp::kLt
                                               : LiftedNode::Cmp::kGt;
      node.nan_jumps = !jump_above;
    } else {
      return fail(at, "mov rax, imm64 followed by neither movq form");
    }
    out->nodes.push_back(node);
  }

  // Pass 2: link children. Nodes tile the region, so an inner node falls
  // through to the next one unless it is the region's last; jump targets
  // must land on a lifted node boundary of this region (an instruction
  // boundary is not enough — jumping into the middle of a node's compare
  // sequence has no tree meaning).
  size_t inner = 0;
  for (size_t i = 0; i < out->nodes.size(); ++i) {
    LiftedNode& node = out->nodes[i];
    if (node.is_leaf) continue;
    const size_t target = jump_targets[inner++];
    node.jump_child = NodeAt(out->nodes, target);
    if (node.jump_child < 0) {
      return fail(node.offset,
                  StrFormat("branch to offset %zu, which is not a lifted "
                            "node boundary",
                            target));
    }
    if (i + 1 == out->nodes.size()) {
      return fail(node.offset,
                  "inner node falls through past the end of its region");
    }
    node.fall_child = static_cast<int>(i + 1);
  }

  // Pass 3: the lifted graph must be acyclic — cyclic machine code can
  // loop forever, which no decision tree does — and every node must be
  // reachable from the entry. Iterative DFS, colors: 0 = unvisited, 1 = on
  // the current path, 2 = done.
  std::vector<char> color(out->nodes.size(), 0);
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const int index = stack.back();
    const LiftedNode& node = out->nodes[static_cast<size_t>(index)];
    if (color[static_cast<size_t>(index)] == 0) {
      color[static_cast<size_t>(index)] = 1;
      if (!node.is_leaf) {
        for (const int child : {node.jump_child, node.fall_child}) {
          if (color[static_cast<size_t>(child)] == 1) {
            report->Add(Severity::kError, "lifted-cycle", tree_index,
                        static_cast<int>(node.offset),
                        "branch creates a control-flow cycle");
            return;
          }
          if (color[static_cast<size_t>(child)] == 0) stack.push_back(child);
        }
      }
    } else {
      if (color[static_cast<size_t>(index)] == 1) {
        color[static_cast<size_t>(index)] = 2;
      }
      stack.pop_back();
    }
  }
  for (size_t i = 0; i < out->nodes.size(); ++i) {
    if (color[i] != 0) continue;
    report->Add(Severity::kError, "unreachable-node", tree_index,
                static_cast<int>(out->nodes[i].offset),
                StrFormat("node at byte offset %zu is unreachable from its "
                          "tree entry",
                          out->nodes[i].offset));
  }
}

}  // namespace

AnalysisReport TreeLifter::LiftForest(const uint8_t* code, size_t size,
                                      const std::vector<size_t>& entries,
                                      int num_features,
                                      std::vector<LiftedTree>* out) const {
  AnalysisReport report;
  out->assign(entries.size(), LiftedTree{});
  if (!CheckEntries(entries, size, &report)) return report;
  for (size_t i = 0; i < entries.size(); ++i) {
    LiftScalarTree(code, size, entries[i],
                   RegionEnd(entries, i, size), num_features,
                   static_cast<int>(i), &(*out)[i], &report);
  }
  return report;
}

}  // namespace t3
