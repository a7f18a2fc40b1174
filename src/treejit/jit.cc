#include "treejit/jit.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <initializer_list>
#include <unordered_map>
#include <utility>

#include "analysis/translation_validator.h"
#include "analysis/tree_lifter.h"
#include "common/cpu_features.h"
#include "common/string_util.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define T3_HAVE_MMAP 1
#else
#define T3_HAVE_MMAP 0
#endif

#if defined(__x86_64__) && T3_HAVE_MMAP
#define T3_JIT_X86_64 1
#else
#define T3_JIT_X86_64 0
#endif

// Batch kernels are plain AVX encodings, but the dispatch contract is
// AVX2-gated (the issue of record for non-AVX2 x86-64) and the CMake option
// T3_DISABLE_AVX2 turns emission off entirely to prove PredictBatch's
// per-row loop alone stays bit-identical.
#if T3_JIT_X86_64 && !defined(T3_DISABLE_AVX2)
#define T3_BATCH_JIT 1
#else
#define T3_BATCH_JIT 0
#endif

namespace t3 {

bool JitSupported() { return T3_JIT_X86_64 != 0; }

bool BatchJitSupported() { return T3_BATCH_JIT != 0; }

#if T3_JIT_X86_64

namespace {

/// Append-only machine-code buffer with rel32 patching. Immediates are
/// little-endian in x86-64 encodings, which is this (x86-64-only) code's
/// host byte order, so they are copied in whole. The vector is kept sized
/// to its headroom and `size_` marks the end of the code, so an append is a
/// bounds check and a memcpy.
class CodeBuffer {
 public:
  void Reserve(size_t bytes) {
    if (bytes > bytes_.size()) bytes_.resize(bytes);
  }

  void Emit(std::initializer_list<uint8_t> bytes) {
    Append(bytes.begin(), bytes.size());
  }
  void Emit8(uint8_t byte) { Append(&byte, sizeof(byte)); }
  void Emit32(uint32_t value) { Append(&value, sizeof(value)); }
  void Emit64(uint64_t value) { Append(&value, sizeof(value)); }

  void Patch32(size_t offset, uint32_t value) {
    std::memcpy(bytes_.data() + offset, &value, sizeof(value));
  }

  size_t size() const { return size_; }
  std::vector<uint8_t> TakeBytes() {
    bytes_.resize(size_);
    return std::move(bytes_);
  }

 private:
  void Append(const void* data, size_t size) {
    if (bytes_.size() - size_ < size) {
      bytes_.resize(std::max(2 * bytes_.size(), size_ + size));
    }
    std::memcpy(bytes_.data() + size_, data, size);
    size_ += size;
  }

  std::vector<uint8_t> bytes_;
  size_t size_ = 0;
};

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Emits one tree as a function `double f(const double* row)`.
///
/// Inner node (default_left == false, NaN goes right):
///   mov     rax, <threshold bits>     ; 48 B8 imm64
///   movq    xmm1, rax                 ; 66 48 0F 6E C8
///   movsd   xmm0, [rdi + 8*feature]   ; F2 0F 10 {47 disp8 | 87 disp32}
///   ucomisd xmm1, xmm0                ; 66 0F 2E C8   (threshold ? x)
///   ja      <left>                    ; 0F 87 rel32   (thr > x, ordered)
///   <right subtree, fallthrough> ... <left subtree>
///
/// ja is taken iff CF=0 and ZF=0: threshold strictly greater than x and the
/// comparison ordered — exactly GoesLeft's `x < threshold`, with NaN
/// (unordered sets ZF=PF=CF=1) falling through to the right child.
///
/// Inner node (default_left == true, NaN goes left) swaps the comparison:
///   ucomisd xmm0, xmm1                ; 66 0F 2E C1   (x ? threshold)
///   jb      <left>                    ; 0F 82 rel32   (x < thr, or NaN)
///
/// Leaf:
///   mov     rax, <value bits>         ; 48 B8 imm64
///   movq    xmm0, rax                 ; 66 48 0F 6E C0
///   ret                               ; C3
class TreeEmitter {
 public:
  TreeEmitter(CodeBuffer* code, const Tree& tree)
      : code_(code), tree_(tree), node_offsets_(tree.nodes.size(), 0) {}

  /// Returns the entry offset of the emitted tree function.
  size_t Emit() {
    const size_t entry = code_->size();
    EmitNode(0);
    for (const Fixup& fixup : fixups_) {
      const size_t target = node_offsets_[static_cast<size_t>(fixup.node)];
      const int64_t rel =
          static_cast<int64_t>(target) - static_cast<int64_t>(fixup.offset + 4);
      code_->Patch32(fixup.offset, static_cast<uint32_t>(rel));
    }
    return entry;
  }

 private:
  struct Fixup {
    size_t offset;  // Position of the rel32 immediate.
    int node;       // Jump target node.
  };

  void EmitNode(int index) {
    node_offsets_[static_cast<size_t>(index)] = code_->size();
    const TreeNode& node = tree_.nodes[static_cast<size_t>(index)];
    if (node.is_leaf) {
      code_->Emit({0x48, 0xB8});  // mov rax, imm64
      code_->Emit64(DoubleBits(node.value));
      code_->Emit({0x66, 0x48, 0x0F, 0x6E, 0xC0,  // movq xmm0, rax
                   0xC3});                        // ret
      return;
    }

    code_->Emit({0x48, 0xB8});  // mov rax, <threshold bits>
    code_->Emit64(DoubleBits(node.threshold));
    code_->Emit({0x66, 0x48, 0x0F, 0x6E, 0xC8,  // movq xmm1, rax
                 0xF2, 0x0F, 0x10});            // movsd xmm0, [rdi + disp]
    const uint32_t disp = static_cast<uint32_t>(node.feature) * 8;
    if (disp <= 127) {
      // modrm: mod=01 (disp8), reg=xmm0, rm=rdi
      code_->Emit({0x47, static_cast<uint8_t>(disp)});
    } else {
      code_->Emit8(0x87);  // modrm: mod=10 (disp32), reg=xmm0, rm=rdi
      code_->Emit32(disp);
    }

    if (node.default_left) {
      code_->Emit({0x66, 0x0F, 0x2E, 0xC1,  // ucomisd xmm0, xmm1 (x ? threshold)
                   0x0F, 0x82});            // jb left
    } else {
      code_->Emit({0x66, 0x0F, 0x2E, 0xC8,  // ucomisd xmm1, xmm0 (threshold ? x)
                   0x0F, 0x87});            // ja left
    }
    fixups_.push_back(Fixup{code_->size(), node.left});
    code_->Emit32(0);  // rel32 patched later

    EmitNode(node.right);  // Fallthrough.
    EmitNode(node.left);
  }

  CodeBuffer* code_;
  const Tree& tree_;
  std::vector<size_t> node_offsets_;
  std::vector<Fixup> fixups_;
};

#if T3_BATCH_JIT

/// Emits the whole forest's batch kernels: one masked-evaluation function
/// per tree, straight-line except for the forward dead-subtree guards,
///
///   void f(const double* block /* rdi */, double* acc /* rsi */)
///
/// over 8 rows laid out feature-major ([rdi + 64*f] holds feature f of
/// lanes 0-3, [rdi + 64*f + 32] lanes 4-7). Register roles: ymm0/ymm1
/// accumulate the masked leaf value per half, ymm2 broadcasts the current
/// pool constant, ymm3/ymm4 hold split-compare masks, ymm5/ymm6 the live
/// path masks, ymm7 is scratch. Exact grammar (what the analysis passes
/// re-parse):
///
///   [sub rsp, 64*(max_inner_depth+1)]     ; only when the tree has splits
///   vxorpd  ymm0, ymm0, ymm0              ; leaf-value accumulators = 0
///   vxorpd  ymm1, ymm1, ymm1
///   vcmppd  ymm5, ymm5, ymm5, 0x0F        ; TRUE_UQ: all-ones path masks
///   vcmppd  ymm6, ymm6, ymm6, 0x0F
///   <node 0 at depth 0>
///   vaddpd  ymm0, ymm0, [rsi]             ; acc += selected leaf values
///   vmovupd [rsi], ymm0
///   vaddpd  ymm1, ymm1, [rsi + 32]
///   vmovupd [rsi + 32], ymm1
///   [add rsp, 64*(max_inner_depth+1)]
///   vzeroupper
///   ret
///
/// Split at depth d (predicate computed reversed, threshold ? x, so GT_OQ
/// is exactly GoesLeft's `x < t` with NaN unordered->false->right, and
/// NLE_UQ is `!(t <= x)` with NaN->true->left):
///
///   vbroadcastsd ymm2, [rip -> threshold bits]
///   vcmppd  ymm3, ymm2, [rdi + 64*f], P       ; P = 0x1E or 0x16
///   vcmppd  ymm4, ymm2, [rdi + 64*f + 32], P
///   vandnpd ymm7, ymm3, ymm5                  ; save right-path masks
///   vmovupd [rsp + 64*d], ymm7
///   vandnpd ymm7, ymm4, ymm6
///   vmovupd [rsp + 64*d + 32], ymm7
///   vandpd  ymm5, ymm5, ymm3                  ; narrow to left paths
///   vandpd  ymm6, ymm6, ymm4
///   <left child at depth d+1>
///   vmovupd ymm5, [rsp + 64*d]                ; resume right paths
///   vmovupd ymm6, [rsp + 64*d + 32]
///   <right child at depth d+1>
///
/// Child that is a split (a leaf child has no guard; it is cheaper to run
/// than to test):
///
///   vorpd   ymm7, ymm5, ymm6                  ; any lane still on this path?
///   vptest  ymm7, ymm7
///   jz      <end of the child>                ; no: skip the whole subtree
///   <split child at depth d+1>
///
/// Skipping a child whose path masks are all zero changes nothing the
/// masked code would have computed: its leaves would OR zero into
/// ymm0/ymm1, its spills go only to the deeper [rsp + 64*(d+1)...] slots
/// that nothing reads after it, and every register it leaves behind is
/// dead, because the instruction at its end is either a resume load or the
/// epilogue. The batch lift checks each guard tests exactly ymm5|ymm6 and
/// jumps exactly to its child's end.
///
/// Leaf (the path masks of a tree's leaves are disjoint and cover all-ones,
/// so OR-ing the masked broadcast accumulates each lane's unique leaf value
/// bit-exactly — no FP arithmetic is involved in the selection):
///
///   vbroadcastsd ymm2, [rip -> leaf value bits]
///   vandpd  ymm7, ymm5, ymm2
///   vorpd   ymm0, ymm0, ymm7
///   vandpd  ymm7, ymm6, ymm2
///   vorpd   ymm1, ymm1, ymm7
///
/// Every kernel ends with the single add of the 8 accumulators into acc, so
/// Predict-batch = base_score + sum of tree values in tree order — the same
/// summation, and bit-identical, to the scalar evaluators. Constants live
/// in one deduplicated 8-byte-aligned pool after the last kernel.
class BatchForestEmitter {
 public:
  explicit BatchForestEmitter(const Forest& forest) : forest_(forest) {}

  BatchJitArtifact Emit() {
    // Upper bound: a split emits 79 bytes plus a 15-byte guard, a leaf 25
    // plus its 8-byte pool constant, a tree's prologue and epilogue 68, and
    // the pool alignment under 8.
    const size_t num_nodes = forest_.NumNodes();
    code_.Reserve(94 * num_nodes + 68 * forest_.trees.size() + 8);
    constant_index_.reserve(num_nodes);
    BatchJitArtifact artifact;
    artifact.num_features = forest_.num_features;
    artifact.entries.reserve(forest_.trees.size());
    for (const Tree& tree : forest_.trees) {
      artifact.entries.push_back(code_.size());
      EmitTree(tree);
    }
    artifact.pool_begin = code_.size();
    while (code_.size() % 8 != 0) code_.Emit8(0x00);
    const size_t pool_base = code_.size();
    for (const uint64_t bits : constants_) code_.Emit64(bits);
    for (const Fixup& fixup : fixups_) {
      const size_t target = pool_base + 8 * fixup.constant;
      const int64_t rel = static_cast<int64_t>(target) -
                          static_cast<int64_t>(fixup.offset + 4);
      code_.Patch32(fixup.offset, static_cast<uint32_t>(rel));
    }
    artifact.code = code_.TakeBytes();
    return artifact;
  }

 private:
  struct Fixup {
    size_t offset;    // Position of the rip-relative disp32.
    size_t constant;  // Index into constants_.
  };

  // Register roles (see the grammar above).
  static constexpr uint8_t kAcc0 = 0, kAcc1 = 1, kConst = 2, kCmp0 = 3,
                           kCmp1 = 4, kMask0 = 5, kMask1 = 6, kScratch = 7;
  // vcmppd predicates: TRUE_UQ (all-ones), GT_OQ (t > x, NaN false -> NaN
  // goes right), NLE_UQ (!(t <= x), NaN true -> NaN goes left).
  static constexpr uint8_t kPredTrue = 0x0F, kPredNanRight = 0x1E,
                           kPredNanLeft = 0x16;

  /// 2-byte VEX byte 1: R=0 inverted (reg <= 7), vvvv inverted, L=1
  /// (256-bit), pp=01 (66 class). vvvv=0 doubles as "unused" (field 1111).
  static uint8_t VexByte1(uint8_t vvvv) {
    return static_cast<uint8_t>(0x85 | ((~vvvv & 0x0F) << 3));
  }

  void EmitRR(uint8_t opcode, uint8_t dst, uint8_t src1, uint8_t src2) {
    code_.Emit({0xC5, VexByte1(src1), opcode,
                static_cast<uint8_t>(0xC0 | dst << 3 | src2)});
  }

  /// Memory form with disp32: rm 4 = [rsp] (needs a SIB byte), 6 = [rsi],
  /// 7 = [rdi].
  void EmitMem(uint8_t opcode, uint8_t reg, uint8_t vvvv, uint8_t rm,
               uint32_t disp) {
    code_.Emit({0xC5, VexByte1(vvvv), opcode,
                static_cast<uint8_t>(0x80 | reg << 3 | rm)});
    if (rm == 4) code_.Emit8(0x24);
    code_.Emit32(disp);
  }

  void EmitBroadcast(uint8_t dst, uint64_t bits) {
    code_.Emit({0xC4, 0xE2, 0x7D, 0x19,  // vbroadcastsd ymm, [rip + disp32]
                static_cast<uint8_t>(0x05 | dst << 3)});
    fixups_.push_back(Fixup{code_.size(), Intern(bits)});
    code_.Emit32(0);  // Patched against the pool in Emit().
  }

  size_t Intern(uint64_t bits) {
    const auto [it, inserted] =
        constant_index_.try_emplace(bits, constants_.size());
    if (inserted) constants_.push_back(bits);
    return it->second;
  }

  static int MaxInnerDepth(const Tree& tree) {
    int max_depth = -1;
    std::vector<std::pair<int, int>> stack = {{0, 0}};
    while (!stack.empty()) {
      const auto [index, depth] = stack.back();
      stack.pop_back();
      const TreeNode& node = tree.nodes[static_cast<size_t>(index)];
      if (node.is_leaf) continue;
      max_depth = std::max(max_depth, depth);
      stack.push_back({node.left, depth + 1});
      stack.push_back({node.right, depth + 1});
    }
    return max_depth;
  }

  void EmitTree(const Tree& tree) {
    const int max_inner_depth = MaxInnerDepth(tree);
    const uint32_t frame =
        max_inner_depth < 0 ? 0 : 64u * (static_cast<uint32_t>(max_inner_depth) + 1);
    if (frame != 0) {
      code_.Emit({0x48, 0x81, 0xEC});  // sub rsp, imm32
      code_.Emit32(frame);
    }
    EmitRR(0x57, kAcc0, kAcc0, kAcc0);  // vxorpd: accumulators = 0
    EmitRR(0x57, kAcc1, kAcc1, kAcc1);
    EmitRR(0xC2, kMask0, kMask0, kMask0);  // vcmppd TRUE_UQ: all-ones
    code_.Emit8(kPredTrue);
    EmitRR(0xC2, kMask1, kMask1, kMask1);
    code_.Emit8(kPredTrue);
    EmitNode(tree, 0, 0);
    EmitMem(0x58, kAcc0, kAcc0, 6, 0);  // vaddpd ymm0, ymm0, [rsi]
    EmitMem(0x11, kAcc0, 0, 6, 0);      // vmovupd [rsi], ymm0
    EmitMem(0x58, kAcc1, kAcc1, 6, 32);
    EmitMem(0x11, kAcc1, 0, 6, 32);
    if (frame != 0) {
      code_.Emit({0x48, 0x81, 0xC4});  // add rsp, imm32
      code_.Emit32(frame);
    }
    code_.Emit({0xC5, 0xF8, 0x77,  // vzeroupper
                0xC3});            // ret
  }

  void EmitNode(const Tree& tree, int index, int depth) {
    const TreeNode& node = tree.nodes[static_cast<size_t>(index)];
    if (node.is_leaf) {
      EmitBroadcast(kConst, DoubleBits(node.value));
      EmitRR(0x54, kScratch, kMask0, kConst);  // vandpd
      EmitRR(0x56, kAcc0, kAcc0, kScratch);    // vorpd
      EmitRR(0x54, kScratch, kMask1, kConst);
      EmitRR(0x56, kAcc1, kAcc1, kScratch);
      return;
    }
    EmitBroadcast(kConst, DoubleBits(node.threshold));
    const uint8_t pred = node.default_left ? kPredNanLeft : kPredNanRight;
    const uint32_t base = static_cast<uint32_t>(node.feature) * 64;
    EmitMem(0xC2, kCmp0, kConst, 7, base);  // vcmppd ymm3, ymm2, [rdi+..], P
    code_.Emit8(pred);
    EmitMem(0xC2, kCmp1, kConst, 7, base + 32);
    code_.Emit8(pred);
    const uint32_t spill = 64u * static_cast<uint32_t>(depth);
    EmitRR(0x55, kScratch, kCmp0, kMask0);  // vandnpd: right-path masks
    EmitMem(0x11, kScratch, 0, 4, spill);
    EmitRR(0x55, kScratch, kCmp1, kMask1);
    EmitMem(0x11, kScratch, 0, 4, spill + 32);
    EmitRR(0x54, kMask0, kMask0, kCmp0);  // vandpd: narrow to left paths
    EmitRR(0x54, kMask1, kMask1, kCmp1);
    EmitChild(tree, node.left, depth + 1);
    EmitMem(0x10, kMask0, 0, 4, spill);  // vmovupd: resume right paths
    EmitMem(0x10, kMask1, 0, 4, spill + 32);
    EmitChild(tree, node.right, depth + 1);
  }

  /// A split child behind its dead-subtree guard; a leaf child as is.
  void EmitChild(const Tree& tree, int index, int depth) {
    if (tree.nodes[static_cast<size_t>(index)].is_leaf) {
      EmitNode(tree, index, depth);
      return;
    }
    EmitRR(0x56, kScratch, kMask0, kMask1);  // vorpd ymm7, ymm5, ymm6
    code_.Emit({0xC4, 0xE2, 0x7D, 0x17,      // vptest ymm7, ymm7
                static_cast<uint8_t>(0xC0 | kScratch << 3 | kScratch),
                0x0F, 0x84});  // jz rel32
    const size_t rel = code_.size();
    code_.Emit32(0);
    EmitNode(tree, index, depth);
    code_.Patch32(rel, static_cast<uint32_t>(code_.size() - (rel + 4)));
  }

  const Forest& forest_;
  CodeBuffer code_;
  std::vector<uint64_t> constants_;
  std::unordered_map<uint64_t, size_t> constant_index_;
  std::vector<Fixup> fixups_;
};

#endif  // T3_BATCH_JIT

/// W^X mapping: copy `code` into a PROT_READ|PROT_WRITE region, then flip
/// the pages to PROT_READ|PROT_EXEC — never both at once.
Status MapExecutable(const std::vector<uint8_t>& code, void** memory_out,
                     size_t* mapped_size_out) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t mapped_size =
      (std::max<size_t>(code.size(), 1) + page - 1) / page * page;
  void* memory = mmap(nullptr, mapped_size, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) {
    return UnavailableError(StrFormat("mmap of %zu bytes failed: %s",
                                      mapped_size, std::strerror(errno)));
  }
  std::memcpy(memory, code.data(), code.size());
  if (mprotect(memory, mapped_size, PROT_READ | PROT_EXEC) != 0) {
    const Status status = UnavailableError(
        StrFormat("mprotect(PROT_EXEC) failed: %s", std::strerror(errno)));
    munmap(memory, mapped_size);
    return status;
  }
  *memory_out = memory;
  *mapped_size_out = mapped_size;
  return Status::OK();
}

/// InternalError naming `what` when a pre-mapping proof found an Error.
Status ProofStatus(const char* what, const AnalysisReport& report) {
  if (!report.HasErrors()) return Status::OK();
  return InternalError(StrFormat("JIT proof rejected %s: %s", what,
                                 report.ToStatus().message().c_str()));
}

}  // namespace

Result<JitArtifact> EmitForestCode(const Forest& forest) {
  Status valid = forest.Validate();
  if (!valid.ok()) return valid;

  CodeBuffer code;
  code.Reserve(33 * forest.NumNodes());  // A split's upper bound; a leaf 16.
  JitArtifact artifact;
  artifact.num_features = forest.num_features;
  artifact.entries.reserve(forest.trees.size());
  for (const Tree& tree : forest.trees) {
    TreeEmitter emitter(&code, tree);
    artifact.entries.push_back(emitter.Emit());
  }
  artifact.code = code.TakeBytes();
  return artifact;
}

#if T3_BATCH_JIT

Result<BatchJitArtifact> EmitForestBatchCode(const Forest& forest) {
  Status valid = forest.Validate();
  if (!valid.ok()) return valid;
  return BatchForestEmitter(forest).Emit();
}

#endif  // T3_BATCH_JIT

Result<std::unique_ptr<CompiledForest>> CompiledForest::Compile(
    const Forest& forest, const JitCompileOptions& options) {
  Result<JitArtifact> artifact = EmitForestCode(forest);
  if (!artifact.ok()) return artifact.status();

  // Static proof over the exact bytes about to be mapped executable: the
  // lift alone (safety), or the lift plus the equivalence proof against
  // `forest` (bit-equal thresholds/leaves, identical NaN routing,
  // pointwise-equal outputs over every threshold-induced cell).
  if (options.validate_translation || options.audit) {
    std::vector<LiftedTree> lifted;
    const AnalysisReport report =
        options.validate_translation
            ? TranslationValidator().Validate(forest, artifact->code.data(),
                                              artifact->code.size(),
                                              artifact->entries)
            : TreeLifter().LiftForest(artifact->code.data(),
                                      artifact->code.size(),
                                      artifact->entries,
                                      artifact->num_features, &lifted);
    Status proven = ProofStatus("emitted tree code", report);
    if (!proven.ok()) return proven;
  }

  std::unique_ptr<CompiledForest> compiled(new CompiledForest());
  compiled->base_score_ = forest.base_score;
  Status mapped = MapExecutable(artifact->code, &compiled->code_,
                                &compiled->mapped_size_);
  if (!mapped.ok()) return mapped;
  compiled->code_size_ = artifact->code.size();
  compiled->tree_fns_.reserve(artifact->entries.size());
  for (const size_t entry : artifact->entries) {
    compiled->tree_fns_.push_back(reinterpret_cast<TreeFn>(
        static_cast<uint8_t*>(compiled->code_) + entry));
  }

#if T3_BATCH_JIT
  Result<BatchJitArtifact> batch = EmitForestBatchCode(forest);
  if (!batch.ok()) return batch.status();

  // Same pre-mapping discipline as the scalar code: the lift proves
  // every lane load, spill slot and pool reference in bounds and every
  // branch a guard that skips exactly one dead subtree; validate_batch
  // also proves each kernel computes its tree, per lane.
  if (options.validate_batch || options.audit) {
    std::vector<LiftedTree> lifted;
    const AnalysisReport report =
        options.validate_batch
            ? BatchEquivalenceValidator().Validate(
                  forest, batch->code.data(), batch->code.size(),
                  batch->entries, batch->pool_begin)
            : TreeLifter().LiftBatchForest(
                  batch->code.data(), batch->code.size(), batch->entries,
                  batch->pool_begin, batch->num_features, &lifted);
    Status proven = ProofStatus("emitted batch kernels", report);
    if (!proven.ok()) return proven;
  }

  Status batch_mapped = MapExecutable(batch->code, &compiled->batch_code_,
                                      &compiled->batch_mapped_size_);
  if (!batch_mapped.ok()) return batch_mapped;
  compiled->batch_code_size_ = batch->code.size();
  compiled->num_features_ = batch->num_features;
  compiled->batch_fns_.reserve(batch->entries.size());
  for (const size_t entry : batch->entries) {
    compiled->batch_fns_.push_back(reinterpret_cast<BatchFn>(
        static_cast<uint8_t*>(compiled->batch_code_) + entry));
  }
#endif  // T3_BATCH_JIT

  return compiled;
}

CompiledForest::~CompiledForest() {
  if (code_ != nullptr) munmap(code_, mapped_size_);
  if (batch_code_ != nullptr) munmap(batch_code_, batch_mapped_size_);
}

#else  // !T3_JIT_X86_64

// Portability guard: on non-x86-64 hosts (or without mmap) compilation
// reports Unavailable and callers use FlatEvaluator. (The lifts and
// validators are pure byte inspection and still work on serialized buffers
// everywhere.)

Result<JitArtifact> EmitForestCode(const Forest& forest) {
  Status valid = forest.Validate();
  if (!valid.ok()) return valid;
  return UnavailableError(
      "tree JIT requires an x86-64 host with mmap; use FlatEvaluator");
}

Result<std::unique_ptr<CompiledForest>> CompiledForest::Compile(
    const Forest& forest, const JitCompileOptions&) {
  Result<JitArtifact> artifact = EmitForestCode(forest);
  return artifact.status();
}

CompiledForest::~CompiledForest() = default;

#endif  // T3_JIT_X86_64

double CompiledForest::Predict(const double* row) const {
  double sum = base_score_;
  for (const TreeFn fn : tree_fns_) sum += fn(row);
  return sum;
}

namespace {

/// 8-row blocks per tree-major pass of the batch kernels: 64 blocks of 48
/// features are 192 KiB, small enough to stay in a core's L2.
constexpr size_t kChunkBlocks = 64;

/// Runs the batch kernels `fns` over whole 8-row blocks of the row-major
/// `rows` and returns how many rows (a multiple of 8) it predicted into
/// `out`. Each block is transposed feature-major (block[f * 8 + r]), the
/// layout the kernels read. A chunk of blocks runs tree by tree, so one
/// tree's code stays hot over the chunk instead of the whole forest's code
/// streaming through once per block. Each row still adds the trees in
/// forest order, so the sums are bit-identical to the per-row path.
template <typename Fn>
size_t RunBatchKernels(const std::vector<Fn>& fns, double base_score,
                       const double* rows, size_t num_rows,
                       size_t num_features, double* out) {
  const size_t stride = num_features * 8;
  std::vector<double> blocks(std::min(num_rows / 8, kChunkBlocks) * stride);
  size_t done = 0;
  while (done + 8 <= num_rows) {
    const size_t num_blocks = std::min((num_rows - done) / 8, kChunkBlocks);
    for (size_t b = 0; b < num_blocks; ++b) {
      double* block = blocks.data() + b * stride;
      const double* first = rows + (done + 8 * b) * num_features;
      for (size_t r = 0; r < 8; ++r) {
        for (size_t f = 0; f < num_features; ++f) {
          block[f * 8 + r] = first[r * num_features + f];
        }
      }
    }
    double* acc = out + done;
    std::fill(acc, acc + 8 * num_blocks, base_score);
    for (const Fn fn : fns) {
      for (size_t b = 0; b < num_blocks; ++b) {
        fn(blocks.data() + b * stride, acc + 8 * b);
      }
    }
    done += 8 * num_blocks;
  }
  return done;
}

}  // namespace

void CompiledForest::PredictBatch(const double* rows, size_t num_rows,
                                  size_t num_features, double* out) const {
  size_t done = 0;
  if (!batch_fns_.empty() && BatchKernelsEnabled() &&
      num_features == static_cast<size_t>(num_features_)) {
    done = RunBatchKernels(batch_fns_, base_score_, rows, num_rows,
                           num_features, out);
  }
  // Everything the kernels did not take, including the (< 8)-row tail.
  ForestEvaluator::PredictBatch(rows + done * num_features, num_rows - done,
                                num_features, out + done);
}

#if !T3_BATCH_JIT

// Batch emission is compiled out (non-x86-64 host, or -DT3_DISABLE_AVX2=ON).
// CompiledForest::Compile never populates batch_fns_, so PredictBatch
// predicts every row with its per-row loop.
Result<BatchJitArtifact> EmitForestBatchCode(const Forest& forest) {
  Status valid = forest.Validate();
  if (!valid.ok()) return valid;
  return UnavailableError(
      "AVX batch kernels require an x86-64 host and a build without "
      "T3_DISABLE_AVX2; PredictBatch predicts row by row");
}

#endif  // !T3_BATCH_JIT

}  // namespace t3
