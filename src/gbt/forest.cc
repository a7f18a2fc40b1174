#include "gbt/forest.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string_view>

#include "common/string_util.h"
#include "common/token_cursor.h"

namespace t3 {

double PredictTree(const Tree& tree, const double* row) {
  int index = 0;
  while (true) {
    const TreeNode& node = tree.nodes[static_cast<size_t>(index)];
    if (node.is_leaf) return node.value;
    index = GoesLeft(node, row[node.feature]) ? node.left : node.right;
  }
}

double Forest::Predict(const double* row) const {
  double sum = base_score;
  for (const Tree& tree : trees) sum += PredictTree(tree, row);
  return sum;
}

size_t Forest::NumNodes() const {
  size_t n = 0;
  for (const Tree& tree : trees) n += tree.nodes.size();
  return n;
}

size_t Forest::NumLeaves() const {
  size_t n = 0;
  for (const Tree& tree : trees) {
    for (const TreeNode& node : tree.nodes) n += node.is_leaf ? 1 : 0;
  }
  return n;
}

std::vector<int> FeatureSplitCounts(const Forest& forest) {
  std::vector<int> counts(static_cast<size_t>(forest.num_features), 0);
  for (const Tree& tree : forest.trees) {
    for (const TreeNode& node : tree.nodes) {
      if (node.is_leaf) continue;
      if (node.feature >= 0 && node.feature < static_cast<int>(counts.size())) {
        ++counts[static_cast<size_t>(node.feature)];
      }
    }
  }
  return counts;
}

namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool SameNode(const TreeNode& a, const TreeNode& b) {
  if (a.is_leaf != b.is_leaf) return false;
  if (a.is_leaf) return DoubleBits(a.value) == DoubleBits(b.value);
  return a.feature == b.feature &&
         DoubleBits(a.threshold) == DoubleBits(b.threshold) &&
         a.left == b.left && a.right == b.right &&
         a.default_left == b.default_left;
}

/// Lower bounds on the text one node line and one tree take, counting the
/// whitespace before each token: six one-character tokens, and "tree" plus
/// a one-digit count ahead of at least one node. A count larger than the
/// remaining bytes can hold is rejected before anything is allocated.
constexpr size_t kMinNodeBytes = 6 * 2;
constexpr size_t kMinTreeBytes = 5 + 2 + kMinNodeBytes;

/// Reads one node line in the exact form ToText writes it: an inner node as
/// "0 <feature> <threshold> <left> <right> <0|1>" and a leaf as the literal
/// "1 -1 0 -1 -1 " and its value, fields one space apart and the line ended
/// by '\n'. The cursor sits on the '\n' before the line and, on success,
/// moves to the one that ends it. On any other line, a canonical line that
/// goes wrong partway included, it returns false having consumed and written
/// nothing, and the caller reads the line token by token. Each field goes
/// through std::from_chars into the type the token path parses it as, so a
/// line both paths accept gives the same node.
bool ReadCanonicalNode(TokenCursor* cursor, TreeNode* node) {
  static constexpr std::string_view kLeafPrefix = "\n1 -1 0 -1 -1 ";
  const char* p = cursor->pos();
  const char* const end = cursor->end();
  // One number, then the byte that must follow it, which is consumed too.
  auto field = [&p, end](auto* out, char next) {
    const std::from_chars_result parsed = std::from_chars(p, end, *out);
    if (parsed.ec != std::errc() || parsed.ptr == end || *parsed.ptr != next) {
      return false;
    }
    p = parsed.ptr + 1;
    return true;
  };
  if (static_cast<size_t>(end - p) > kLeafPrefix.size() &&
      std::memcmp(p, kLeafPrefix.data(), kLeafPrefix.size()) == 0) {
    p += kLeafPrefix.size();
    double value;
    if (!field(&value, '\n')) return false;
    node->is_leaf = true;
    node->feature = -1;
    node->threshold = 0.0;
    node->left = -1;
    node->right = -1;
    node->value = value;
    cursor->Advance(p - 1);
    return true;
  }
  if (end - p < 3 || p[0] != '\n' || p[1] != '0' || p[2] != ' ') return false;
  p += 3;
  int feature, left, right;
  double threshold;
  if (!field(&feature, ' ') || !field(&threshold, ' ') || !field(&left, ' ') ||
      !field(&right, ' ') || end - p < 2 || (p[0] != '0' && p[0] != '1') ||
      p[1] != '\n') {
    return false;
  }
  node->is_leaf = false;
  node->feature = feature;
  node->threshold = threshold;
  node->left = left;
  node->right = right;
  node->default_left = p[0] == '1';
  cursor->Advance(p + 1);
  return true;
}

/// The rules of one tree, every violation reported. Nodes are checked one
/// by one; the reachability walk runs only when every child index is in
/// range, and it never re-walks a node it has seen, so a cycle ends it.
void CheckTree(const Forest& forest, int tree_index, AnalysisReport* report) {
  const Tree& tree = forest.trees[static_cast<size_t>(tree_index)];
  const int n = static_cast<int>(tree.nodes.size());
  if (n == 0) {
    report->Add(Severity::kError, "empty-tree", tree_index, -1,
                "tree has no nodes");
    return;
  }

  bool children_in_range = true;
  size_t leaves = 0;
  for (int i = 0; i < n; ++i) {
    const TreeNode& node = tree.nodes[static_cast<size_t>(i)];
    if (node.is_leaf) {
      ++leaves;
      if (!std::isfinite(node.value)) {
        report->Add(Severity::kError, "nonfinite-leaf-value", tree_index, i,
                    "leaf value is NaN or infinite");
      }
      continue;
    }
    if (node.feature < 0 || node.feature >= forest.num_features) {
      report->Add(
          Severity::kError, "bad-feature-index", tree_index, i,
          StrFormat("split feature %d out of range [0, %d)", node.feature,
                    forest.num_features));
    }
    if (!std::isfinite(node.threshold)) {
      report->Add(Severity::kError, "nonfinite-threshold", tree_index, i,
                  "split threshold is NaN or infinite");
    }
    for (const int child : {node.left, node.right}) {
      if (child < 0 || child >= n) {
        report->Add(Severity::kError, "missing-child", tree_index, i,
                    StrFormat("child index %d outside the %d-node tree",
                              child, n));
        children_in_range = false;
      }
    }
  }
  if (leaves != static_cast<size_t>(n) - leaves + 1) {
    report->Add(Severity::kError, "leaf-count-mismatch", tree_index, -1,
                StrFormat("%zu leaves but %zu inner nodes (want inner + 1)",
                          leaves, static_cast<size_t>(n) - leaves));
  }
  if (!children_in_range) return;

  // Reachability: every node must be reached from the root exactly once.
  std::vector<char> seen(static_cast<size_t>(n), 0);
  std::vector<int> stack = {0};
  seen[0] = 1;
  int visited = 1;
  while (!stack.empty()) {
    const TreeNode& node = tree.nodes[static_cast<size_t>(stack.back())];
    stack.pop_back();
    if (node.is_leaf) continue;
    for (const int child : {node.left, node.right}) {
      if (seen[static_cast<size_t>(child)]) {
        report->Add(Severity::kError, "node-shared", tree_index, child,
                    "node reachable twice from the root (cycle or diamond)");
        continue;  // Do not re-walk: a cycle would never terminate.
      }
      seen[static_cast<size_t>(child)] = 1;
      ++visited;
      stack.push_back(child);
    }
  }
  for (int i = 0; i < n && visited < n; ++i) {
    if (!seen[static_cast<size_t>(i)]) {
      report->Add(Severity::kError, "orphan-node", tree_index, i,
                  "node unreachable from the root");
    }
  }
}

}  // namespace

bool SameForest(const Forest& a, const Forest& b) {
  if (a.num_features != b.num_features ||
      DoubleBits(a.base_score) != DoubleBits(b.base_score) ||
      a.trees.size() != b.trees.size()) {
    return false;
  }
  for (size_t t = 0; t < a.trees.size(); ++t) {
    const std::vector<TreeNode>& x = a.trees[t].nodes;
    const std::vector<TreeNode>& y = b.trees[t].nodes;
    if (x.size() != y.size() ||
        !std::equal(x.begin(), x.end(), y.begin(), SameNode)) {
      return false;
    }
  }
  return true;
}

std::string Forest::ToText() const {
  std::string out;
  out.reserve(64 + NumNodes() * 48);
  out += "t3gbt v1\nnum_features ";
  AppendInt(&out, num_features);
  out += "\nbase_score ";
  AppendDouble(&out, base_score);
  out += "\nnum_trees ";
  AppendInt(&out, trees.size());
  out += '\n';
  for (const Tree& tree : trees) {
    out += "tree ";
    AppendInt(&out, tree.nodes.size());
    out += '\n';
    for (const TreeNode& node : tree.nodes) {
      if (node.is_leaf) {
        out += "1 -1 0 -1 -1 ";
        AppendDouble(&out, node.value);
      } else {
        out += "0 ";
        AppendInt(&out, node.feature);
        out += ' ';
        AppendDouble(&out, node.threshold);
        out += ' ';
        AppendInt(&out, node.left);
        out += ' ';
        AppendInt(&out, node.right);
        out += node.default_left ? " 1" : " 0";
      }
      out += '\n';
    }
  }
  return out;
}

Result<Forest> Forest::FromText(std::string_view text) {
  Result<Forest> forest = ParseTextUnvalidated(text);
  if (!forest.ok()) return forest.status();
  Status valid = forest->Validate();
  if (!valid.ok()) return valid;
  return forest;
}

Result<Forest> Forest::ParseTextUnvalidated(std::string_view text) {
  TokenCursor cursor(text);
  if (cursor.NextToken() != "t3gbt" || cursor.NextToken() != "v1") {
    return InvalidArgumentError("not a t3gbt v1 forest file");
  }

  Forest forest;
  if (cursor.NextToken() != "num_features") {
    return InvalidArgumentError("expected num_features");
  }
  if (!cursor.NextNumber(&forest.num_features) || forest.num_features <= 0) {
    return InvalidArgumentError("bad num_features");
  }
  if (cursor.NextToken() != "base_score" ||
      !cursor.NextNumber(&forest.base_score)) {
    return InvalidArgumentError("bad base_score");
  }
  int64_t num_trees = 0;
  if (cursor.NextToken() != "num_trees" || !cursor.NextNumber(&num_trees) ||
      num_trees < 0 ||
      static_cast<uint64_t>(num_trees) > cursor.Remaining() / kMinTreeBytes) {
    return InvalidArgumentError("bad num_trees");
  }

  forest.trees.resize(static_cast<size_t>(num_trees));
  for (int64_t t = 0; t < num_trees; ++t) {
    if (cursor.NextToken() != "tree") {
      return InvalidArgumentError(StrFormat("tree %lld: missing header",
                                            static_cast<long long>(t)));
    }
    int64_t num_nodes = 0;
    if (!cursor.NextNumber(&num_nodes) || num_nodes <= 0 ||
        static_cast<uint64_t>(num_nodes) > cursor.Remaining() / kMinNodeBytes) {
      return InvalidArgumentError(StrFormat("tree %lld: bad node count",
                                            static_cast<long long>(t)));
    }
    std::vector<TreeNode>& nodes = forest.trees[static_cast<size_t>(t)].nodes;
    nodes.resize(static_cast<size_t>(num_nodes));
    for (size_t n = 0; n < nodes.size(); ++n) {
      TreeNode& node = nodes[n];
      if (ReadCanonicalNode(&cursor, &node)) continue;
      int is_leaf = 0;
      if (!cursor.NextNumber(&is_leaf) || !cursor.NextNumber(&node.feature) ||
          !cursor.NextNumber(&node.threshold) || !cursor.NextNumber(&node.left) ||
          !cursor.NextNumber(&node.right)) {
        return InvalidArgumentError(
            StrFormat("tree %lld node %zu: malformed",
                      static_cast<long long>(t), n));
      }
      node.is_leaf = is_leaf != 0;
      if (node.is_leaf) {
        if (!cursor.NextNumber(&node.value)) {
          return InvalidArgumentError("leaf: missing value");
        }
      } else {
        int default_left = 0;
        if (!cursor.NextNumber(&default_left)) {
          return InvalidArgumentError("inner node: missing default_left");
        }
        node.default_left = default_left != 0;
      }
    }
  }
  if (!cursor.AtEnd()) {
    return InvalidArgumentError("trailing data after the last tree");
  }
  return forest;
}

AnalysisReport Forest::CheckStructure() const {
  AnalysisReport report;
  if (num_features <= 0) {
    report.Add(Severity::kError, "bad-num-features", -1, -1,
               StrFormat("num_features is %d, need > 0", num_features));
  }
  if (!std::isfinite(base_score)) {
    report.Add(Severity::kError, "nonfinite-base-score", -1, -1,
               "base_score is NaN or infinite");
  }
  for (size_t t = 0; t < trees.size(); ++t) {
    CheckTree(*this, static_cast<int>(t), &report);
  }
  return report;
}

Status Forest::Validate() const { return CheckStructure().ToStatus(); }

}  // namespace t3
