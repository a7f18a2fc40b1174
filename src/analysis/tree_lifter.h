#ifndef T3_ANALYSIS_TREE_LIFTER_H_
#define T3_ANALYSIS_TREE_LIFTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/report.h"
#include "analysis/x86_decoder.h"

namespace t3 {

/// One node of a decision tree lifted back out of emitted machine code.
///
/// An inner node is a branch: control transfers to `jump_child` when the
/// lifted predicate holds and falls through to `fall_child` otherwise. The
/// predicate is `x[feature] <cmp> threshold`, with NaN (any unordered
/// ucomisd) taking the jump iff `nan_jumps`. All four ucomisd/jcc
/// combinations the decoder can see are liftable:
///
///   ucomisd xmm1, xmm0 ; ja   ->  jump iff x < t,  NaN falls through
///   ucomisd xmm0, xmm1 ; jb   ->  jump iff x < t,  NaN jumps
///   ucomisd xmm1, xmm0 ; jb   ->  jump iff x > t,  NaN jumps
///   ucomisd xmm0, xmm1 ; ja   ->  jump iff x > t,  NaN falls through
///
/// The emitter only ever produces the first two (jump = left child), but the
/// lifter models the full semantics so a corrupted buffer (e.g. a swapped
/// branch-polarity byte) lifts to *what the bytes actually compute* and is
/// then caught as an equivalence error, not hidden behind a parse failure.
/// Batch kernels lift with jump_child = mask-true (left) and fall_child =
/// mask-false (right), always as `x < threshold`.
struct LiftedNode {
  enum class Cmp { kLt, kGt };

  bool is_leaf = false;
  size_t offset = 0;        ///< Byte offset of the node's first instruction.
  uint64_t value_bits = 0;  ///< Leaf: returned double, as raw bits.
  int feature = -1;
  uint64_t threshold_bits = 0;  ///< Raw bits — may be NaN in corrupt code.
  Cmp cmp = Cmp::kLt;
  bool nan_jumps = false;
  int jump_child = -1;
  int fall_child = -1;
};

/// One tree function lifted from its code region. Node 0 is the entry.
/// The node graph is guaranteed acyclic with every node reachable from node
/// 0 (the lifts reject both), but it may be a DAG in corrupt code —
/// consumers must not assume a tree.
struct LiftedTree {
  std::vector<LiftedNode> nodes;
};

/// The lift is the only reader of emitted machine code, and it is the whole
/// safety proof: an artifact is safe to map executable iff its lift reports
/// no Error. Each lift decodes its buffer once with the shared whitelist
/// decoder (analysis/x86_decoder.h) and parses every region
/// [entries[i], entries[i+1]) against its emitter's closed grammar, so an
/// instruction outside the grammar, a register out of role or a byte no
/// grammar rule owns fails the lift. On top of the grammar, both lifts
/// enforce (all Error):
///
///  - `bad-entry`: the regions tile the instruction bytes — entries ascend
///    from offset 0 and each lies inside them, so every byte belongs to
///    exactly one region.
///  - `lifted-feature-oob`: every feature load reads inside the caller's
///    `num_features`-wide row (scalar) or block (batch).
///
/// The two grammars stay separate on purpose: the scalar one is branches
/// and fall-throughs, the batch one masks with forward-only guards that
/// skip whole subtrees, and a shared lifter would have to branch on which
/// emitter it serves at every node.
///
/// The lifts prove safety only; the validators (translation_validator.h)
/// prove the lifted trees equal the forest.
/// Both are pure byte inspection and run on any host.
class TreeLifter {
 public:
  /// Lifts the scalar tree functions (treejit EmitForestCode), regions
  /// closed by `size`. Node shapes — leaf: `mov rax, bits; movq xmm0, rax;
  /// ret`; inner: `mov rax, bits; movq xmm1, rax; movsd xmm0, [rdi+8k];
  /// ucomisd; jcc`. Beyond the shared checks:
  ///
  ///  - `undecodable-code`: the buffer does not linearly decode.
  ///  - `unliftable-code`: a region does not group into the two node
  ///    shapes, a branch does not land on a node start in its own region,
  ///    a feature load is not 8-byte aligned, or the last node falls
  ///    through past the region's end.
  ///  - `lifted-cycle`: a branch creates a control-flow cycle — the machine
  ///    code can loop forever, which no decision tree does.
  ///  - `unreachable-node`: a node no path from the region entry reaches.
  ///    The emitter never produces one.
  ///
  /// `out` gets one LiftedTree per entry; it is meaningful only when the
  /// returned report has no Error.
  AnalysisReport LiftForest(const uint8_t* code, size_t size,
                            const std::vector<size_t>& entries,
                            int num_features,
                            std::vector<LiftedTree>* out) const;

  /// Lifts the AVX batch kernels (treejit EmitForestBatchCode): kernels at
  /// `entries`, the constant pool from `pool_begin` rounded up to 8 bytes
  /// to `size`. Only [0, pool_begin) is decoded. Each region is parsed
  /// against the batch emitter's grammar — prologue, masked split / leaf
  /// blocks with their exact register roles, spill discipline and the
  /// `acc += leaf` epilogue into [rsi], [rsi + 32] — so a scalar
  /// instruction, an accumulator access anywhere else or a branch other
  /// than a guard fails the parse. A guard, `vorpd ymm7, ymm5, ymm6;
  /// vptest ymm7, ymm7; jz`, precedes every split child and nothing else;
  /// it skips the child when both path masks are zero, which the masked
  /// semantics already make a no-op (its leaves OR zero, its spills are
  /// deeper slots nothing reads after it, and the instruction at its end
  /// is a resume load or the epilogue, after which every register it
  /// wrote is dead). The lifted tree has no trace of the guards.
  /// Each vcmppd pair lifts to a split on `x[disp/64] < threshold` (GT_OQ
  /// routes NaN right, NLE_UQ left), each broadcast-and-or block to a leaf
  /// returning the pool constant's exact bits. Beyond the shared checks:
  ///
  ///  - `undecodable-batch-code`: [0, pool_begin) does not linearly decode.
  ///  - `unliftable-batch-code`: a region diverges from the grammar.
  ///  - `bad-frame`: a split at depth d spills its masks to
  ///    [rsp + 64d, rsp + 64d + 64), so the `sub rsp` frame must be exactly
  ///    64 * (deepest split depth + 1) bytes, and absent without splits:
  ///    every spill lies inside it, and it is a positive multiple of 32.
  ///  - `bad-pool-ref`: the pool starts past the buffer, or a broadcast
  ///    reads anything but an aligned 8-byte constant inside the pool.
  ///  - `bad-guard`: a guard tests anything but ymm5|ymm6 through ymm7,
  ///    precedes a leaf, is missing before a split child, or its jz does
  ///    not land exactly at the end of the child it guards (so every
  ///    branch is forward and stays inside its region).
  ///
  /// `out` is as for LiftForest.
  AnalysisReport LiftBatchForest(const uint8_t* code, size_t size,
                                 const std::vector<size_t>& entries,
                                 size_t pool_begin, int num_features,
                                 std::vector<LiftedTree>* out) const;
};

}  // namespace t3

#endif  // T3_ANALYSIS_TREE_LIFTER_H_
