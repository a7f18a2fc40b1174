#include "treejit/jit.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "analysis/translation_validator.h"
#include "analysis/tree_lifter.h"
#include "common/check.h"
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

namespace t3 {

bool JitSupported() { return T3_JIT_X86_64 != 0; }

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

  std::unique_ptr<CompiledForest> compiled(new CompiledForest(forest));
  Status mapped = MapExecutable(artifact->code, &compiled->code_,
                                &compiled->mapped_size_);
  if (!mapped.ok()) return mapped;
  compiled->code_size_ = artifact->code.size();
  compiled->tree_fns_.reserve(artifact->entries.size());
  for (const size_t entry : artifact->entries) {
    compiled->tree_fns_.push_back(reinterpret_cast<TreeFn>(
        static_cast<uint8_t*>(compiled->code_) + entry));
  }

  return compiled;
}

CompiledForest::~CompiledForest() {
  if (code_ != nullptr) munmap(code_, mapped_size_);
}

#else  // !T3_JIT_X86_64

// Portability guard: on non-x86-64 hosts (or without mmap) compilation
// reports Unavailable and callers use QuickScorer. (The lift and
// validator are pure byte inspection and still work on serialized buffers
// everywhere.)

Result<JitArtifact> EmitForestCode(const Forest& forest) {
  Status valid = forest.Validate();
  if (!valid.ok()) return valid;
  return UnavailableError(
      "tree JIT requires an x86-64 host with mmap; use QuickScorer");
}

Result<std::unique_ptr<CompiledForest>> CompiledForest::Compile(
    const Forest& forest, const JitCompileOptions&) {
  Result<JitArtifact> artifact = EmitForestCode(forest);
  return artifact.status();
}

CompiledForest::~CompiledForest() = default;

#endif  // T3_JIT_X86_64

CompiledForest::CompiledForest(const Forest& forest)
    : base_score_(forest.base_score), quick_scorer_(forest) {}

double CompiledForest::Predict(const double* row) const {
  double sum = base_score_;
  for (const TreeFn fn : tree_fns_) sum += fn(row);
  return sum;
}

void CompiledForest::PredictBatch(const double* rows, size_t num_rows,
                                  size_t num_features, double* out) const {
  quick_scorer_.PredictBatch(rows, num_rows, num_features, out);
}

}  // namespace t3
