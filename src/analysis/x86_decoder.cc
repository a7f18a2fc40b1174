#include "analysis/x86_decoder.h"

#include <initializer_list>
#include <limits>

namespace t3 {
namespace {

/// Where a rip-relative operand or branch whose target lies before the
/// buffer points: the largest offset, which no range check written as
/// `target > size - n` can accept. A small past-the-end value would not do:
/// batch code is decoded with `size` = the pool start, so `size + 1` can be
/// an aligned pool slot.
constexpr size_t kWildTarget = std::numeric_limits<size_t>::max();

/// Absolute buffer offset of `rel`, measured from the end of an instruction
/// of `length` bytes at `offset`, in signed 64-bit so a wild rel32 cannot
/// wrap back into the buffer.
size_t RelativeTarget(size_t offset, size_t length, uint32_t rel) {
  const int64_t target = static_cast<int64_t>(offset + length) +
                         static_cast<int32_t>(rel);
  return target < 0 ? kWildTarget : static_cast<size_t>(target);
}

bool Match(const uint8_t* code, size_t size, size_t offset,
           std::initializer_list<uint8_t> bytes) {
  if (size - offset < bytes.size()) return false;
  size_t i = offset;
  for (const uint8_t b : bytes) {
    if (code[i++] != b) return false;
  }
  return true;
}

uint32_t Read32(const uint8_t* code, size_t offset) {
  return static_cast<uint32_t>(code[offset]) |
         static_cast<uint32_t>(code[offset + 1]) << 8 |
         static_cast<uint32_t>(code[offset + 2]) << 16 |
         static_cast<uint32_t>(code[offset + 3]) << 24;
}

uint64_t Read64(const uint8_t* code, size_t offset) {
  return static_cast<uint64_t>(Read32(code, offset)) |
         static_cast<uint64_t>(Read32(code, offset + 4)) << 32;
}

/// Decodes the VEX-encoded batch-kernel vocabulary: 2-byte-VEX ymm ops with
/// pp=01 plus the two 3-byte-VEX ops (vbroadcastsd, vptest), the rsp frame
/// bookkeeping around them and the jz of the dead-subtree guards.
bool DecodeBatchInstruction(const uint8_t* code, size_t size, size_t offset,
                            JitInstruction* out) {
  const auto read32 = [code](size_t at) { return Read32(code, at); };
  if (Match(code, size, offset, {0x0F, 0x84})) {
    if (size - offset < 6) return false;
    out->op = JitOp::kJz;
    out->length = 6;
    out->target = RelativeTarget(offset, 6, read32(offset + 2));
    return true;
  }
  if (Match(code, size, offset, {0xC4, 0xE2, 0x7D, 0x17})) {
    // vptest ymm, ymm — register form only (mod=11), vvvv unused (1111).
    if (size - offset < 5) return false;
    const uint8_t modrm = code[offset + 4];
    if (modrm >> 6 != 3) return false;
    out->op = JitOp::kVptest;
    out->length = 5;
    out->dst = (modrm >> 3) & 7;
    out->src2 = modrm & 7;
    return true;
  }
  if (size - offset >= 3 && code[offset] == 0x48 && code[offset + 1] == 0x81 &&
      (code[offset + 2] == 0xEC || code[offset + 2] == 0xC4)) {
    if (size - offset < 7) return false;
    out->op = code[offset + 2] == 0xEC ? JitOp::kSubRspImm32
                                       : JitOp::kAddRspImm32;
    out->length = 7;
    out->disp = read32(offset + 3);
    return true;
  }
  if (size - offset >= 3 && code[offset] == 0xC5 && code[offset + 1] == 0xF8 &&
      code[offset + 2] == 0x77) {
    out->op = JitOp::kVzeroupper;
    out->length = 3;
    return true;
  }
  if (size - offset >= 5 && code[offset] == 0xC4 && code[offset + 1] == 0xE2 &&
      code[offset + 2] == 0x7D && code[offset + 3] == 0x19) {
    // vbroadcastsd ymm, m64 — rip-relative only (mod=00, rm=101).
    const uint8_t modrm = code[offset + 4];
    if ((modrm & 0xC7) != 0x05) return false;
    if (size - offset < 9) return false;
    out->op = JitOp::kVbroadcastsd;
    out->length = 9;
    out->dst = (modrm >> 3) & 7;
    out->disp = read32(offset + 5);
    out->target = RelativeTarget(offset, 9, out->disp);  // rip = next insn.
    return true;
  }
  if (size - offset < 4 || code[offset] != 0xC5) return false;
  // 2-byte VEX: require R=0 (modrm.reg stays ymm0-7), L=1 (256-bit),
  // pp=01 (the 66 class every batch op belongs to). VEX.vvvv is stored
  // inverted; recover the register number.
  const uint8_t vex = code[offset + 1];
  if ((vex & 0x87) != 0x85) return false;
  const uint8_t vvvv = static_cast<uint8_t>(~(vex >> 3) & 0x0F);
  if (vvvv > 7) return false;
  const uint8_t opcode = code[offset + 2];
  const uint8_t modrm = code[offset + 3];
  const uint8_t mod = modrm >> 6;
  const uint8_t reg = (modrm >> 3) & 7;
  const uint8_t rm = modrm & 7;
  out->dst = reg;
  out->src1 = vvvv;
  switch (opcode) {
    case 0xC2:  // vcmppd
      if (mod == 3) {
        if (size - offset < 5) return false;
        out->op = JitOp::kVcmppdRR;
        out->length = 5;
        out->src2 = rm;
        out->pred = code[offset + 4];
        return true;
      }
      if (mod == 2 && rm == 7) {  // [rdi + disp32]
        if (size - offset < 9) return false;
        out->op = JitOp::kVcmppdRdiMem;
        out->length = 9;
        out->disp = read32(offset + 4);
        out->pred = code[offset + 8];
        return true;
      }
      return false;
    case 0x54:  // vandpd
    case 0x55:  // vandnpd
    case 0x56:  // vorpd
    case 0x57:  // vxorpd
      if (mod != 3) return false;
      out->op = opcode == 0x54   ? JitOp::kVandpd
                : opcode == 0x55 ? JitOp::kVandnpd
                : opcode == 0x56 ? JitOp::kVorpd
                                 : JitOp::kVxorpd;
      out->length = 4;
      out->src2 = rm;
      return true;
    case 0x58:  // vaddpd — memory second source off rsi only
      if (mod != 2 || rm != 6) return false;
      if (size - offset < 8) return false;
      out->op = JitOp::kVaddpdRsiMem;
      out->length = 8;
      out->disp = read32(offset + 4);
      return true;
    case 0x10:  // vmovupd load — [rsp + disp32] only, vvvv unused
      if (vvvv != 0 || mod != 2 || rm != 4) return false;
      if (size - offset < 9 || code[offset + 4] != 0x24) return false;
      out->op = JitOp::kVmovupdLoadRsp;
      out->length = 9;
      out->disp = read32(offset + 5);
      return true;
    case 0x11:  // vmovupd store — [rsp + disp32] or [rsi + disp32]
      if (vvvv != 0 || mod != 2) return false;
      if (rm == 4) {
        if (size - offset < 9 || code[offset + 4] != 0x24) return false;
        out->op = JitOp::kVmovupdStoreRsp;
        out->length = 9;
        out->disp = read32(offset + 5);
        return true;
      }
      if (rm == 6) {
        if (size - offset < 8) return false;
        out->op = JitOp::kVmovupdStoreRsi;
        out->length = 8;
        out->disp = read32(offset + 4);
        return true;
      }
      return false;
    default:
      return false;
  }
}

}  // namespace

bool DecodeInstruction(const uint8_t* code, size_t size, size_t offset,
                       JitInstruction* out) {
  out->offset = offset;
  out->target = 0;
  out->disp = 0;
  out->imm = 0;
  out->dst = 0;
  out->src1 = 0;
  out->src2 = 0;
  out->pred = 0;
  if (Match(code, size, offset, {0xC3})) {
    out->op = JitOp::kRet;
    out->length = 1;
    return true;
  }
  if (Match(code, size, offset, {0x48, 0xB8})) {
    if (size - offset < 10) return false;
    out->op = JitOp::kMovRaxImm64;
    out->length = 10;
    out->imm = Read64(code, offset + 2);
    return true;
  }
  if (Match(code, size, offset, {0x66, 0x48, 0x0F, 0x6E, 0xC0})) {
    out->op = JitOp::kMovqXmm0Rax;
    out->length = 5;
    return true;
  }
  if (Match(code, size, offset, {0x66, 0x48, 0x0F, 0x6E, 0xC8})) {
    out->op = JitOp::kMovqXmm1Rax;
    out->length = 5;
    return true;
  }
  if (Match(code, size, offset, {0xF2, 0x0F, 0x10, 0x47})) {
    if (size - offset < 5) return false;
    out->op = JitOp::kLoadFeature8;
    out->length = 5;
    // disp8 is signed: 0x80-0xFF reach below rdi.
    out->disp = static_cast<uint32_t>(static_cast<int8_t>(code[offset + 4]));
    return true;
  }
  if (Match(code, size, offset, {0xF2, 0x0F, 0x10, 0x87})) {
    if (size - offset < 8) return false;
    out->op = JitOp::kLoadFeature32;
    out->length = 8;
    out->disp = Read32(code, offset + 4);
    return true;
  }
  if (Match(code, size, offset, {0x66, 0x0F, 0x2E, 0xC8})) {
    out->op = JitOp::kUcomisdXmm1Xmm0;
    out->length = 4;
    return true;
  }
  if (Match(code, size, offset, {0x66, 0x0F, 0x2E, 0xC1})) {
    out->op = JitOp::kUcomisdXmm0Xmm1;
    out->length = 4;
    return true;
  }
  if (Match(code, size, offset, {0x0F, 0x87}) ||
      Match(code, size, offset, {0x0F, 0x82})) {
    if (size - offset < 6) return false;
    out->op = code[offset + 1] == 0x87 ? JitOp::kJa : JitOp::kJb;
    out->length = 6;
    out->target = RelativeTarget(offset, 6, Read32(code, offset + 2));
    return true;
  }
  return DecodeBatchInstruction(code, size, offset, out);
}

}  // namespace t3
