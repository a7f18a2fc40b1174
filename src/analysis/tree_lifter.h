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
/// 0 (the lift rejects both), but it may be a DAG in corrupt code —
/// consumers must not assume a tree.
struct LiftedTree {
  std::vector<LiftedNode> nodes;
};

/// The lift is the only reader of emitted machine code, and it is the whole
/// safety proof: an artifact is safe to map executable iff its lift reports
/// no Error. The lift parses every region [entries[i], entries[i+1])
/// against the emitter's closed grammar, decoding each instruction in place
/// with the whitelist decoder (analysis/x86_decoder.h) as the grammar reads
/// it, so an instruction outside the grammar or a byte no grammar rule owns
/// fails the lift. A clean parse reads its region front to back and ends
/// exactly at the region's end, so together the parses decode every
/// instruction byte once.
///
/// The lift proves safety only; the validator (translation_validator.h)
/// proves the lifted trees equal the forest. It is pure byte inspection and
/// runs on any host.
class TreeLifter {
 public:
  /// Lifts the scalar tree functions (treejit EmitForestCode), regions
  /// closed by `size`. Node shapes — leaf: `mov rax, bits; movq xmm0, rax;
  /// ret`; inner: `mov rax, bits; movq xmm1, rax; movsd xmm0, [rdi+8k];
  /// ucomisd; jcc`. Checks (all Error):
  ///
  ///  - `bad-entry`: the regions tile the code bytes — entries ascend from
  ///    offset 0 and each lies inside them, so every byte belongs to
  ///    exactly one region.
  ///  - `lifted-feature-oob`: a feature load reads outside the caller's
  ///    `num_features`-wide row.
  ///  - `undecodable-code`: bytes where the grammar reads an instruction
  ///    are not in the whitelist.
  ///  - `unliftable-code`: a region does not group into the two node
  ///    shapes, an instruction runs past the region's end, a branch does
  ///    not land on a node start in its own region, a feature load is not
  ///    8-byte aligned, or the last node falls through past the region's
  ///    end.
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
};

}  // namespace t3

#endif  // T3_ANALYSIS_TREE_LIFTER_H_
