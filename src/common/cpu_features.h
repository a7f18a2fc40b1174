#ifndef T3_COMMON_CPU_FEATURES_H_
#define T3_COMMON_CPU_FEATURES_H_

namespace t3 {

/// Runtime CPU capability probe backing the treejit batch-kernel dispatch
/// (treejit/jit.h). Compile-time support (x86-64 build, T3_DISABLE_AVX2 off)
/// decides whether kernels are *emitted*; this probe decides whether they
/// are *dispatched* on the running machine. Where they are not,
/// CompiledForest::PredictBatch sends every row to its QuickScorer.
struct CpuFeatures {
  bool avx = false;   ///< AVX ISA present and OS ymm state enabled (xgetbv).
  bool avx2 = false;  ///< AVX2 ISA present (reported only when avx holds).
  /// T3_FORCE_SCALAR=1 was set in the env: batches go to QuickScorer.
  bool force_scalar = false;
};

/// Probes cpuid/xgetbv and the T3_FORCE_SCALAR environment variable on
/// every call (not cached). Tests use this to observe env changes; the
/// production dispatch goes through GetCpuFeatures().
CpuFeatures DetectCpuFeatures();

/// The cached process-wide probe: one DetectCpuFeatures() on first use,
/// then the same answer forever (the env override is read once, so set it
/// before the first prediction).
const CpuFeatures& GetCpuFeatures();

/// True when batched AVX tree kernels may be dispatched: AVX + AVX2
/// present, OS ymm state enabled, and not overridden by T3_FORCE_SCALAR=1
/// (which sends every batch to QuickScorer). Non-x86-64 hosts always
/// return false.
bool BatchKernelsEnabled();

}  // namespace t3

#endif  // T3_COMMON_CPU_FEATURES_H_
