#include "analysis/x86_decoder.h"

#include <initializer_list>
#include <limits>

namespace t3 {
namespace {

/// Where a branch whose target lies before the buffer points: the largest
/// offset, which no range check written as `target > size - n` can accept.
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

}  // namespace

bool DecodeInstruction(const uint8_t* code, size_t size, size_t offset,
                       JitInstruction* out) {
  out->offset = offset;
  out->target = 0;
  out->disp = 0;
  out->imm = 0;
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
  return false;
}

}  // namespace t3
