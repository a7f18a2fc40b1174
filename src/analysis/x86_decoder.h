#ifndef T3_ANALYSIS_X86_DECODER_H_
#define T3_ANALYSIS_X86_DECODER_H_

#include <cstddef>
#include <cstdint>

namespace t3 {

/// The instruction vocabulary TreeJit emits — nothing else may appear in a
/// proven buffer. Read by the lift (analysis/tree_lifter.h) and its tests.
enum class JitOp {
  kMovRaxImm64,     ///< 48 B8 imm64            mov rax, <bits>
  kMovqXmm0Rax,     ///< 66 48 0F 6E C0         movq xmm0, rax
  kMovqXmm1Rax,     ///< 66 48 0F 6E C8         movq xmm1, rax
  kLoadFeature8,    ///< F2 0F 10 47 disp8      movsd xmm0, [rdi + disp8]
  kLoadFeature32,   ///< F2 0F 10 87 disp32     movsd xmm0, [rdi + disp32]
  kUcomisdXmm1Xmm0, ///< 66 0F 2E C8            ucomisd xmm1, xmm0
  kUcomisdXmm0Xmm1, ///< 66 0F 2E C1            ucomisd xmm0, xmm1
  kJa,              ///< 0F 87 rel32            ja <target>
  kJb,              ///< 0F 82 rel32            jb <target>
  kRet,             ///< C3                     ret
};

/// One decoded instruction of an emitted code buffer.
struct JitInstruction {
  JitOp op;
  size_t offset = 0;  ///< Byte offset in the code buffer.
  size_t length = 0;  ///< Encoded length in bytes.
  size_t target = 0;  ///< Branch destination (kJa / kJb); SIZE_MAX when it
                      ///  lies before the buffer.
  uint32_t disp = 0;  ///< Feature-load displacement, sign-extended to 32
                      ///  bits as the CPU applies it: a negative value
                      ///  reads as >= 2^31.
  uint64_t imm = 0;   ///< Immediate bits (kMovRaxImm64 only).
};

/// Decodes one instruction at `offset` of the `size`-byte buffer against the
/// emitter whitelist; false when the bytes match nothing in it or run past
/// `size`. The lift calls it where its grammar reads the next
/// instruction. Pure byte inspection — works on any host, including
/// non-x86-64 builds proving serialized buffers.
bool DecodeInstruction(const uint8_t* code, size_t size, size_t offset,
                       JitInstruction* out);

}  // namespace t3

#endif  // T3_ANALYSIS_X86_DECODER_H_
