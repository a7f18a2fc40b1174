#include "analysis/translation_validator.h"

#include <cmath>
#include <utility>

#include "analysis/interval_domain.h"
#include "analysis/tree_lifter.h"
#include "common/string_util.h"

namespace t3 {
namespace {

/// Compact witness text: the constrained features of a box, as one concrete
/// row ("x[3]=0.5, x[7]=nan"), capped so a wide model cannot flood a
/// diagnostic line.
std::string WitnessText(const FeatureBox& box) {
  std::string out;
  int listed = 0;
  const std::vector<double> row = box.Witness();
  for (size_t f = 0; f < box.ranges.size(); ++f) {
    const FeatureRange& range = box.ranges[f];
    const bool constrained =
        range.lo != kMinKey || range.hi != kMaxKey || !range.nan;
    if (!constrained) continue;
    if (listed == 8) {
      out += ", ...";
      break;
    }
    if (listed > 0) out += ", ";
    out += StrFormat("x[%zu]=%.17g", f, row[f]);
    ++listed;
  }
  return out.empty() ? "any row" : out;
}

/// Structural pass: reports every mismatch; descent stops below a shape or
/// polarity mismatch where the correspondence is no longer defined.
void CheckLiftedTreeStructure(const Tree& tree, const LiftedTree& lifted,
                              int tree_index, AnalysisReport* report) {
  struct Frame {
    int ir;
    int code;
  };
  std::vector<Frame> stack = {{0, 0}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const TreeNode& ir = tree.nodes[static_cast<size_t>(frame.ir)];
    const LiftedNode& code = lifted.nodes[static_cast<size_t>(frame.code)];
    const int at = static_cast<int>(code.offset);
    if (ir.is_leaf != code.is_leaf) {
      report->Add(Severity::kError, "shape-mismatch", tree_index, at,
                  StrFormat("IR node %d is a %s but the compiled node is a "
                            "%s",
                            frame.ir, ir.is_leaf ? "leaf" : "split",
                            code.is_leaf ? "leaf" : "split"));
      continue;
    }
    if (ir.is_leaf) {
      if (DoubleBits(ir.value) != code.value_bits) {
        report->Add(Severity::kError, "leaf-value-mismatch", tree_index, at,
                    StrFormat("IR leaf %d returns %.17g but the compiled "
                              "leaf returns bits 0x%016llX",
                              frame.ir, ir.value,
                              static_cast<unsigned long long>(
                                  code.value_bits)));
      }
      continue;
    }
    if (code.cmp != LiftedNode::Cmp::kLt) {
      // The emitter only produces jump-on-(x < t); a kGt lift means a
      // swapped ja/jb byte. The semantic pass pins down the exact cells
      // where the swap changes the output.
      report->Add(Severity::kError, "branch-polarity-mismatch", tree_index,
                  at,
                  StrFormat("compiled node branches on x[%d] > threshold; "
                            "the emitter only produces x < threshold",
                            code.feature));
      continue;
    }
    if (ir.feature != code.feature) {
      report->Add(Severity::kError, "feature-mismatch", tree_index, at,
                  StrFormat("IR node %d splits on feature %d but the "
                            "compiled node loads feature %d",
                            frame.ir, ir.feature, code.feature));
    }
    if (DoubleBits(ir.threshold) != code.threshold_bits) {
      report->Add(Severity::kError, "threshold-mismatch", tree_index, at,
                  StrFormat("IR node %d threshold %.17g differs from "
                            "compiled threshold bits 0x%016llX",
                            frame.ir, ir.threshold,
                            static_cast<unsigned long long>(
                                code.threshold_bits)));
    }
    if (ir.default_left != code.nan_jumps) {
      report->Add(Severity::kError, "nan-routing-mismatch", tree_index, at,
                  StrFormat("IR node %d routes NaN %s but the compiled node "
                            "routes NaN %s",
                            frame.ir, ir.default_left ? "left" : "right",
                            code.nan_jumps ? "left" : "right"));
    }
    stack.push_back(Frame{ir.right, code.fall_child});
    stack.push_back(Frame{ir.left, code.jump_child});
  }
}

/// Refines `box` by a lifted node's predicate and pushes the feasible
/// successor boxes onto `stack`. A NaN threshold (possible only in corrupt
/// code) makes ucomisd unconditionally unordered, so every input — NaN or
/// not — takes the jump iff the branch triggers on unordered.
struct LiftedFrame {
  int node;
  FeatureBox box;
};

void PushLiftedChildren(const LiftedNode& node, const FeatureBox& box,
                        std::vector<LiftedFrame>* stack) {
  const double threshold = DoubleFromBits(node.threshold_bits);
  if (std::isnan(threshold)) {
    stack->push_back(
        LiftedFrame{node.nan_jumps ? node.jump_child : node.fall_child, box});
    return;
  }
  FeatureBox jump_box =
      node.cmp == LiftedNode::Cmp::kLt
          ? box.Below(node.feature, threshold, node.nan_jumps)
          : box.Above(node.feature, threshold, node.nan_jumps);
  FeatureBox fall_box =
      node.cmp == LiftedNode::Cmp::kLt
          ? box.AtOrAbove(node.feature, threshold, !node.nan_jumps)
          : box.AtOrBelow(node.feature, threshold, !node.nan_jumps);
  if (jump_box.Feasible()) {
    stack->push_back(LiftedFrame{node.jump_child, std::move(jump_box)});
  }
  if (fall_box.Feasible()) {
    stack->push_back(LiftedFrame{node.fall_child, std::move(fall_box)});
  }
}

/// Semantic pass: reports the first offending cell with a concrete witness
/// row, then stops (one flipped threshold byte shifts many cells; one
/// witness per tree is the useful signal).
void CheckLiftedTreeSemantics(const Tree& tree, const LiftedTree& lifted,
                              int num_features, int tree_index,
                              AnalysisReport* report) {
  bool mismatch_reported = false;
  ForEachLeafCell(
      tree, FeatureBox::Full(num_features),
      [&](int ir_leaf, const FeatureBox& cell) {
        if (mismatch_reported) return;
        const uint64_t want_bits = DoubleBits(
            tree.nodes[static_cast<size_t>(ir_leaf)].value);
        std::vector<LiftedFrame> stack = {{0, cell}};
        while (!stack.empty() && !mismatch_reported) {
          LiftedFrame frame = std::move(stack.back());
          stack.pop_back();
          const LiftedNode& node =
              lifted.nodes[static_cast<size_t>(frame.node)];
          if (!node.is_leaf) {
            PushLiftedChildren(node, frame.box, &stack);
            continue;
          }
          if (node.value_bits == want_bits) continue;
          mismatch_reported = true;
          report->Add(
              Severity::kError, "semantic-mismatch", tree_index,
              static_cast<int>(node.offset),
              StrFormat("compiled tree returns %.17g where IR leaf %d "
                        "returns %.17g, e.g. on %s",
                        DoubleFromBits(node.value_bits), ir_leaf,
                        tree.nodes[static_cast<size_t>(ir_leaf)].value,
                        WitnessText(frame.box).c_str()));
        }
      });
}

/// Step 0 of the pipeline (translation_validator.h).
AnalysisReport CheckEquivalencePreconditions(const Forest& forest,
                                             size_t num_regions) {
  AnalysisReport report;
  const Status valid = forest.Validate();
  if (!valid.ok()) {
    report.Add(Severity::kError, "invalid-forest", -1, -1,
               StrFormat("IR side of the equivalence check is invalid: %s",
                         valid.message().c_str()));
  } else if (num_regions != forest.trees.size()) {
    report.Add(Severity::kError, "tree-count-mismatch", -1, -1,
               StrFormat("%zu code regions for %zu IR trees", num_regions,
                         forest.trees.size()));
  }
  return report;
}

/// Steps 2 and 3 for each tree of `forest` against `lifted[i]` (one
/// error-free lift per tree).
void CheckLiftedForest(const Forest& forest,
                       const std::vector<LiftedTree>& lifted,
                       AnalysisReport* report) {
  for (size_t t = 0; t < forest.trees.size(); ++t) {
    const int tree_index = static_cast<int>(t);
    const size_t errors_before = report->NumErrors();
    CheckLiftedTreeStructure(forest.trees[t], lifted[t], tree_index, report);
    // A clean structural pass (same shape, bit-equal thresholds and leaves,
    // same feature, kLt polarity, same NaN routing) already implies every
    // cell agrees; the semantic pass only runs to give a mismatch its
    // witness row.
    if (report->NumErrors() == errors_before) continue;
    CheckLiftedTreeSemantics(forest.trees[t], lifted[t], forest.num_features,
                             tree_index, report);
  }
}

}  // namespace

AnalysisReport TranslationValidator::Validate(
    const Forest& forest, const uint8_t* code, size_t size,
    const std::vector<size_t>& entries) const {
  AnalysisReport report = CheckEquivalencePreconditions(forest, entries.size());
  if (report.HasErrors()) return report;
  std::vector<LiftedTree> lifted;
  report = TreeLifter().LiftForest(code, size, entries, forest.num_features,
                                   &lifted);
  if (!report.HasErrors()) CheckLiftedForest(forest, lifted, &report);
  return report;
}

}  // namespace t3
