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
/// instruction span [0, span): bytes that do not decode there fail as
/// `undecodable-<what>`, an instruction that ends past the region as
/// `unliftable-<what>`. After either, the cursor yields nothing more and
/// failed() tells the grammar not to add a diagnostic of its own.
class InstructionCursor {
 public:
  InstructionCursor(const uint8_t* code, size_t span, size_t begin,
                    size_t end, const char* what, int tree_index,
                    AnalysisReport* report)
      : code_(code),
        span_(span),
        end_(end),
        what_(what),
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
    if (!DecodeInstruction(code_, span_, at_, &instruction_)) {
      return Fail("undecodable-",
                  StrFormat("byte 0x%02X at offset %zu is not in the emitter "
                            "whitelist",
                            code_[at_], at_));
    }
    if (instruction_.length > end_ - at_) {
      return Fail("unliftable-",
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
    report_->Add(Severity::kError, check + std::string(what_), tree_index_,
                 static_cast<int>(at_), message);
    failed_ = true;
    return nullptr;
  }

  const uint8_t* code_;
  size_t span_;
  size_t end_;
  const char* what_;  // "code" or "batch-code".
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
  InstructionCursor cursor(code, size, begin, end, "code", tree_index,
                           report);
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

// Register roles and vcmppd predicates of the batch emitter's grammar; must
// stay in lockstep with treejit's BatchForestEmitter.
constexpr uint8_t kAcc0 = 0;     // leaf-value accumulator, lanes 0-3
constexpr uint8_t kAcc1 = 1;     // leaf-value accumulator, lanes 4-7
constexpr uint8_t kConst = 2;    // broadcast pool constant
constexpr uint8_t kCmp0 = 3;     // split compare result, lanes 0-3
constexpr uint8_t kCmp1 = 4;     // split compare result, lanes 4-7
constexpr uint8_t kMask0 = 5;    // live path mask, lanes 0-3
constexpr uint8_t kMask1 = 6;    // live path mask, lanes 4-7
constexpr uint8_t kScratch = 7;
constexpr uint8_t kPredTrue = 0x0F;      // TRUE_UQ: all-ones mask init
constexpr uint8_t kPredNanRight = 0x1E;  // GT_OQ: t > x, NaN -> fall/right
constexpr uint8_t kPredNanLeft = 0x16;   // NLE_UQ: !(t <= x), NaN -> jump/left
constexpr uint32_t kHalfBytes = 32;      // one ymm half: 4 lanes of 8 bytes
constexpr uint32_t kFeatureStrideBytes = 64;  // 8 lanes per feature

/// Parses one kernel region against the batch emitter's closed grammar and
/// lifts it into a LiftedTree (jump_child = mask-true/left, fall_child =
/// mask-false/right, cmp always `x < threshold`). Every deviation — a
/// register out of role, a spill at the wrong depth, a missing resume load,
/// a foreign predicate — fails the parse with the offending byte offset.
/// The dead-subtree guards are part of the grammar: every split child, and
/// no other node, is preceded by exactly `vorpd ymm7, ymm5, ymm6; vptest
/// ymm7, ymm7; jz <end of that child>`, and anything else fails as
/// `bad-guard`.
class KernelParser {
 public:
  KernelParser(const uint8_t* code, size_t size, size_t pool_begin,
               size_t begin, size_t end, int num_features, int tree_index,
               AnalysisReport* report)
      : cursor_(code, pool_begin, begin, end, "batch-code", tree_index,
                report),
        code_(code),
        size_(size),
        pool_begin_(pool_begin),
        begin_(begin),
        end_(end),
        num_features_(num_features),
        tree_index_(tree_index),
        report_(report) {}

  bool Parse(LiftedTree* out) {
    const JitInstruction* instr = Peek();
    if (instr == nullptr) return false;  // The cursor reported why.
    const bool has_frame = instr->op == JitOp::kSubRspImm32;
    const uint32_t frame = has_frame ? instr->disp : 0;
    if (has_frame) Take();
    if (!ExpectRR(JitOp::kVxorpd, kAcc0, kAcc0, kAcc0,
                  "expected vxorpd zeroing accumulator ymm0") ||
        !ExpectRR(JitOp::kVxorpd, kAcc1, kAcc1, kAcc1,
                  "expected vxorpd zeroing accumulator ymm1") ||
        !ExpectMaskInit(kMask0) || !ExpectMaskInit(kMask1)) {
      return false;
    }
    if (!ParseBody(out)) return false;
    // A split at depth d spills to [rsp + 64d, rsp + 64d + 64), so the
    // frame must hold the deepest split's slot, and be no larger: the CPU
    // sign-extends the imm32, so a "larger" frame could move rsp up into
    // the caller's frame.
    const uint32_t needed =
        kFeatureStrideBytes * static_cast<uint32_t>(max_depth_ + 1);
    if (frame != needed || has_frame != (needed != 0)) {
      report_->Add(Severity::kError, "bad-frame", tree_index_,
                   static_cast<int>(begin_),
                   StrFormat("kernel reserves a %u-byte frame but its "
                             "deepest spill needs exactly %u bytes",
                             frame, needed));
      return false;
    }
    if (!ExpectAccAdd(kAcc0, 0) ||
        !ExpectMem(JitOp::kVmovupdStoreRsi, kAcc0, 0,
                   "expected vmovupd storing accumulator ymm0") ||
        !ExpectAccAdd(kAcc1, kHalfBytes) ||
        !ExpectMem(JitOp::kVmovupdStoreRsi, kAcc1, kHalfBytes,
                   "expected vmovupd storing accumulator ymm1")) {
      return false;
    }
    if (has_frame) {
      const JitInstruction* add = Peek();
      if (add == nullptr || add->op != JitOp::kAddRspImm32 ||
          add->disp != frame) {
        return Fail("expected add rsp matching the kernel's sub rsp");
      }
      Take();
    }
    const JitInstruction* vz = Peek();
    if (vz == nullptr || vz->op != JitOp::kVzeroupper) {
      return Fail("expected vzeroupper before ret");
    }
    Take();
    const JitInstruction* ret = Peek();
    if (ret == nullptr || ret->op != JitOp::kRet) return Fail("expected ret");
    Take();
    if (cursor_.at() != end_) {
      return Fail("instructions after the kernel's ret");
    }
    return true;
  }

 private:
  /// A split whose subtree is still being parsed.
  struct Pending {
    int node;
    int depth;
    bool parsed_left;
    /// The guard before this split (absent only at the root): its offset
    /// and its jz target, which must be the end of the split's subtree.
    bool guarded;
    size_t guard_offset;
    size_t guard_target;
  };

  const JitInstruction* Peek() { return cursor_.Peek(); }
  void Take() { cursor_.Take(); }

  bool Fail(const char* what) {
    if (cursor_.failed()) return false;
    const size_t at = cursor_.at();
    report_->Add(Severity::kError, "unliftable-batch-code", tree_index_,
                 static_cast<int>(at),
                 StrFormat("batch kernel diverges from the emitter grammar "
                           "at byte offset %zu: %s",
                           at, what));
    return false;
  }

  bool FailGuard(size_t offset, const std::string& what) {
    if (cursor_.failed()) return false;
    report_->Add(Severity::kError, "bad-guard", tree_index_,
                 static_cast<int>(offset),
                 StrFormat("dead-subtree guard at byte offset %zu: %s",
                           offset, what.c_str()));
    return false;
  }

  /// Parses the guard `vorpd ymm7, ymm5, ymm6; vptest ymm7, ymm7; jz rel32`
  /// at the current offset, whose first instruction is a vorpd, and returns
  /// the jz target. It skips the next node when both path masks are zero,
  /// so it must test exactly those two registers.
  bool ParseGuard(size_t* target) {
    const size_t guard = cursor_.at();
    const JitInstruction* merge = Peek();
    if (merge->dst != kScratch || merge->src1 != kMask0 ||
        merge->src2 != kMask1) {
      return FailGuard(guard, StrFormat("ORs ymm%d|ymm%d into ymm%d, not "
                                        "the path masks ymm5|ymm6 into ymm7",
                                        merge->src1, merge->src2, merge->dst));
    }
    Take();
    const JitInstruction* test = Peek();
    if (test == nullptr || test->op != JitOp::kVptest ||
        test->dst != kScratch || test->src2 != kScratch) {
      return FailGuard(guard, "not followed by vptest ymm7, ymm7");
    }
    Take();
    const JitInstruction* jump = Peek();
    if (jump == nullptr || jump->op != JitOp::kJz) {
      return FailGuard(guard, "not closed by jz");
    }
    *target = jump->target;
    Take();
    return true;
  }

  /// A guarded split's subtree ends at the current offset: its guard must
  /// jump exactly here. That keeps the jump forward and inside the region,
  /// and it skips nothing but the subtree, whose spills only go to deeper
  /// slots that nothing after it reads.
  bool CheckGuardTarget(const Pending& split) {
    if (!split.guarded || split.guard_target == cursor_.at()) return true;
    return FailGuard(split.guard_offset,
                     StrFormat("jz lands at byte offset %zu, but the split "
                               "child it guards ends at %zu",
                               split.guard_target, cursor_.at()));
  }

  bool ExpectRR(JitOp op, uint8_t dst, uint8_t src1, uint8_t src2,
                const char* what) {
    const JitInstruction* instr = Peek();
    if (instr == nullptr || instr->op != op || instr->dst != dst ||
        instr->src1 != src1 || instr->src2 != src2) {
      return Fail(what);
    }
    Take();
    return true;
  }

  bool ExpectMem(JitOp op, uint8_t reg, uint32_t disp, const char* what) {
    const JitInstruction* instr = Peek();
    if (instr == nullptr || instr->op != op || instr->dst != reg ||
        instr->disp != disp) {
      return Fail(what);
    }
    Take();
    return true;
  }

  bool ExpectMaskInit(uint8_t mask) {
    const JitInstruction* instr = Peek();
    if (instr == nullptr || instr->op != JitOp::kVcmppdRR ||
        instr->dst != mask || instr->src1 != mask || instr->src2 != mask ||
        instr->pred != kPredTrue) {
      return Fail("expected vcmppd TRUE_UQ all-ones path-mask init");
    }
    Take();
    return true;
  }

  bool ExpectAccAdd(uint8_t acc, uint32_t disp) {
    const JitInstruction* instr = Peek();
    if (instr == nullptr || instr->op != JitOp::kVaddpdRsiMem ||
        instr->dst != acc || instr->src1 != acc || instr->disp != disp) {
      return Fail("expected vaddpd accumulating into [rsi]");
    }
    Take();
    return true;
  }

  bool ReadPoolConstant(const JitInstruction& broadcast, uint64_t* bits) {
    // `target > size_ - 8`, not `target + 8 > size_`: the decoder marks a
    // target before the buffer as SIZE_MAX, which must not wrap into range.
    const size_t target = broadcast.target;
    if (target < pool_begin_ || target % 8 != 0 || size_ < 8 ||
        target > size_ - 8) {
      report_->Add(
          Severity::kError, "bad-pool-ref", tree_index_,
          static_cast<int>(broadcast.offset),
          StrFormat("vbroadcastsd at byte offset %zu reads buffer offset "
                    "%zu, outside the 8-byte-aligned constant pool in "
                    "[%zu, %zu)",
                    broadcast.offset, target, pool_begin_, size_));
      return false;
    }
    uint64_t value = 0;
    for (int i = 7; i >= 0; --i) {
      value = value << 8 | code_[target + static_cast<size_t>(i)];
    }
    *bits = value;
    return true;
  }

  /// Parses the node blocks. The pending stack mirrors the emitter's
  /// recursion: a new node always belongs to the top pending split — its
  /// left child before that split's resume loads were seen, its right child
  /// after. Returns once the root's subtree is complete.
  bool ParseBody(LiftedTree* out) {
    std::vector<Pending> pending;
    for (;;) {
      const size_t guard_offset = cursor_.at();
      const JitInstruction* head = Peek();
      const bool guarded = !pending.empty() && head != nullptr &&
                           head->op == JitOp::kVorpd;
      size_t guard_target = 0;
      if (guarded && !ParseGuard(&guard_target)) return false;
      const JitInstruction* broadcast = Peek();
      if (broadcast == nullptr || broadcast->op != JitOp::kVbroadcastsd ||
          broadcast->dst != kConst) {
        return Fail("expected vbroadcastsd of a pool constant into ymm2");
      }
      const size_t node_offset = broadcast->offset;
      uint64_t bits = 0;
      if (!ReadPoolConstant(*broadcast, &bits)) return false;
      Take();
      const int index = static_cast<int>(out->nodes.size());
      out->nodes.emplace_back();
      if (!pending.empty()) {
        const Pending& parent = pending.back();
        LiftedNode& parent_node =
            out->nodes[static_cast<size_t>(parent.node)];
        if (parent.parsed_left) {
          parent_node.fall_child = index;
        } else {
          parent_node.jump_child = index;
        }
      }
      const JitInstruction* next = Peek();
      if (next == nullptr) return Fail("kernel region ends inside a node");
      if (next->op == JitOp::kVcmppdRdiMem) {
        // Split block.
        if (!pending.empty() && !guarded) {
          return FailGuard(node_offset, "split child has no guard");
        }
        const JitInstruction cmp0 = *next;
        if (cmp0.dst != kCmp0 || cmp0.src1 != kConst) {
          return Fail("first-half split compare out of register role");
        }
        if (cmp0.pred != kPredNanRight && cmp0.pred != kPredNanLeft) {
          return Fail("split compare uses a predicate other than "
                      "GT_OQ/NLE_UQ");
        }
        if (cmp0.disp % kFeatureStrideBytes != 0) {
          return Fail("split feature load not on a feature-column boundary");
        }
        const int feature = static_cast<int>(cmp0.disp / kFeatureStrideBytes);
        if (feature >= num_features_) {
          ReportFeatureOob(feature, num_features_, cmp0.offset, tree_index_,
                           report_);
        }
        Take();
        next = Peek();
        if (next == nullptr || next->op != JitOp::kVcmppdRdiMem ||
            next->dst != kCmp1 || next->src1 != kConst ||
            next->disp != cmp0.disp + kHalfBytes ||
            next->pred != cmp0.pred) {
          return Fail("second-half split compare does not mirror the first");
        }
        Take();
        const int depth = static_cast<int>(pending.size());
        max_depth_ = std::max(max_depth_, depth);
        const uint32_t spill =
            kFeatureStrideBytes * static_cast<uint32_t>(depth);
        if (!ExpectRR(JitOp::kVandnpd, kScratch, kCmp0, kMask0,
                      "expected vandnpd computing right-path mask (lo)") ||
            !ExpectMem(JitOp::kVmovupdStoreRsp, kScratch, spill,
                       "expected right-path mask spill at 64*depth") ||
            !ExpectRR(JitOp::kVandnpd, kScratch, kCmp1, kMask1,
                      "expected vandnpd computing right-path mask (hi)") ||
            !ExpectMem(JitOp::kVmovupdStoreRsp, kScratch, spill + kHalfBytes,
                       "expected right-path mask spill at 64*depth+32") ||
            !ExpectRR(JitOp::kVandpd, kMask0, kMask0, kCmp0,
                      "expected vandpd narrowing path mask (lo)") ||
            !ExpectRR(JitOp::kVandpd, kMask1, kMask1, kCmp1,
                      "expected vandpd narrowing path mask (hi)")) {
          return false;
        }
        LiftedNode& node = out->nodes[static_cast<size_t>(index)];
        node.is_leaf = false;
        node.offset = node_offset;
        node.feature = feature;
        node.threshold_bits = bits;
        node.cmp = LiftedNode::Cmp::kLt;
        node.nan_jumps = cmp0.pred == kPredNanLeft;
        pending.push_back(
            Pending{index, depth, false, guarded, guard_offset, guard_target});
        continue;  // The next node is this split's left child.
      }
      // Leaf block.
      if (guarded) {
        return FailGuard(guard_offset, "guards a leaf child");
      }
      if (!ExpectRR(JitOp::kVandpd, kScratch, kMask0, kConst,
                    "expected vandpd masking leaf value (lo)") ||
          !ExpectRR(JitOp::kVorpd, kAcc0, kAcc0, kScratch,
                    "expected vorpd accumulating leaf value (lo)") ||
          !ExpectRR(JitOp::kVandpd, kScratch, kMask1, kConst,
                    "expected vandpd masking leaf value (hi)") ||
          !ExpectRR(JitOp::kVorpd, kAcc1, kAcc1, kScratch,
                    "expected vorpd accumulating leaf value (hi)")) {
        return false;
      }
      LiftedNode& leaf = out->nodes[static_cast<size_t>(index)];
      leaf.is_leaf = true;
      leaf.offset = node_offset;
      leaf.value_bits = bits;
      // Unwind splits whose right subtree just completed; the innermost
      // split still missing its right child must resume its spilled masks.
      while (!pending.empty() && pending.back().parsed_left) {
        if (!CheckGuardTarget(pending.back())) return false;
        pending.pop_back();
      }
      if (pending.empty()) return true;
      Pending& parent = pending.back();
      const uint32_t spill =
          kFeatureStrideBytes * static_cast<uint32_t>(parent.depth);
      if (!ExpectMem(JitOp::kVmovupdLoadRsp, kMask0, spill,
                     "expected path-mask resume load (lo)") ||
          !ExpectMem(JitOp::kVmovupdLoadRsp, kMask1, spill + kHalfBytes,
                     "expected path-mask resume load (hi)")) {
        return false;
      }
      parent.parsed_left = true;
      // The next node is that split's right child.
    }
  }

  InstructionCursor cursor_;  // Decodes in [0, pool_begin): the pool is data.
  const uint8_t* code_;
  size_t size_;
  size_t pool_begin_;
  size_t begin_;
  size_t end_;
  int num_features_;
  int tree_index_;
  AnalysisReport* report_;
  int max_depth_ = -1;  // Deepest split seen; -1 while there is none.
};

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

AnalysisReport TreeLifter::LiftBatchForest(const uint8_t* code, size_t size,
                                           const std::vector<size_t>& entries,
                                           size_t pool_begin,
                                           int num_features,
                                           std::vector<LiftedTree>* out) const {
  AnalysisReport report;
  out->assign(entries.size(), LiftedTree{});
  if (pool_begin > size) {
    report.Add(Severity::kError, "bad-pool-ref", -1, -1,
               StrFormat("constant pool begins at %zu, past the %zu-byte "
                         "buffer",
                         pool_begin, size));
    return report;
  }
  if (!CheckEntries(entries, pool_begin, &report)) return report;
  for (size_t i = 0; i < entries.size(); ++i) {
    KernelParser(code, size, pool_begin, entries[i],
                 RegionEnd(entries, i, pool_begin), num_features,
                 static_cast<int>(i), &report)
        .Parse(&(*out)[i]);
  }
  return report;
}

}  // namespace t3
