#ifndef T3_ANALYSIS_X86_DECODER_H_
#define T3_ANALYSIS_X86_DECODER_H_

#include <cstddef>
#include <cstdint>

namespace t3 {

/// The instruction vocabulary TreeJit emits — nothing else may appear in a
/// proven buffer. Shared by the scalar and batch lifts
/// (analysis/tree_lifter.h) and by their tests.
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
  // --- AVX vocabulary of the batch kernels (EmitForestBatchCode). Every
  // VEX-encoded op the batch emitter produces uses ymm0-ymm7 with L=1
  // (256-bit) and pp=01 (0x66), through the 2-byte VEX prefix except for
  // the two 0F38-map ops (vbroadcastsd, vptest); each memory form is
  // pinned to the single base register the emitter uses for it, always
  // with a disp32 — any other encoding of the same mnemonic is rejected.
  kSubRspImm32,     ///< 48 81 EC imm32         sub rsp, imm32
  kAddRspImm32,     ///< 48 81 C4 imm32         add rsp, imm32
  kVzeroupper,      ///< C5 F8 77               vzeroupper
  kVbroadcastsd,    ///< C4 E2 7D 19 /r         vbroadcastsd ymm, [rip+disp32]
  kVcmppdRR,        ///< C5 .. C2 /r ib         vcmppd ymm, ymm, ymm, imm8
  kVcmppdRdiMem,    ///< C5 .. C2 /r ib         vcmppd ymm, ymm, [rdi+disp32], imm8
  kVandpd,          ///< C5 .. 54 /r            vandpd ymm, ymm, ymm
  kVandnpd,         ///< C5 .. 55 /r            vandnpd ymm, ymm, ymm
  kVorpd,           ///< C5 .. 56 /r            vorpd ymm, ymm, ymm
  kVxorpd,          ///< C5 .. 57 /r            vxorpd ymm, ymm, ymm
  kVaddpdRsiMem,    ///< C5 .. 58 /r            vaddpd ymm, ymm, [rsi+disp32]
  kVmovupdLoadRsp,  ///< C5 FD 10 /r            vmovupd ymm, [rsp+disp32]
  kVmovupdStoreRsp, ///< C5 FD 11 /r            vmovupd [rsp+disp32], ymm
  kVmovupdStoreRsi, ///< C5 FD 11 /r            vmovupd [rsi+disp32], ymm
  kVptest,          ///< C4 E2 7D 17 /r         vptest ymm, ymm
  kJz,              ///< 0F 84 rel32            jz <target>
};

/// One decoded instruction of an emitted code buffer.
struct JitInstruction {
  JitOp op;
  size_t offset = 0;  ///< Byte offset in the code buffer.
  size_t length = 0;  ///< Encoded length in bytes.
  size_t target = 0;  ///< Branch destination (kJa / kJb / kJz) or the absolute
                      ///  buffer offset a kVbroadcastsd rip operand reads;
                      ///  SIZE_MAX when it lies before the buffer.
  uint32_t disp = 0;  ///< Memory displacement (feature loads, vector memory
                      ///  forms) or the imm32 of kSubRspImm32/kAddRspImm32,
                      ///  sign-extended to 32 bits as the CPU applies it:
                      ///  a negative value reads as >= 2^31.
  uint64_t imm = 0;   ///< Immediate bits (kMovRaxImm64 only).
  uint8_t dst = 0;    ///< Vector ops: modrm.reg ymm register — the
                      ///  destination, or the stored source for stores.
  uint8_t src1 = 0;   ///< Vector ops: first-source (VEX.vvvv) ymm register;
                      ///  0 for ops whose vvvv slot is unused.
  uint8_t src2 = 0;   ///< Vector reg-reg ops: second-source ymm register
                      ///  (kVptest: the modrm.rm operand).
  uint8_t pred = 0;   ///< kVcmppd*: comparison predicate immediate.
};

/// Decodes one instruction at `offset` of the `size`-byte buffer against the
/// emitter whitelist; false when the bytes match nothing in it or run past
/// `size`. The lifts call it where their grammar reads the next
/// instruction. Pure byte inspection — works on any host, including
/// non-x86-64 builds proving serialized buffers.
bool DecodeInstruction(const uint8_t* code, size_t size, size_t offset,
                       JitInstruction* out);

}  // namespace t3

#endif  // T3_ANALYSIS_X86_DECODER_H_
