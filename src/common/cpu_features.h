#ifndef T3_COMMON_CPU_FEATURES_H_
#define T3_COMMON_CPU_FEATURES_H_

namespace t3 {

/// Runtime CPU capability probe backing the dispatch of QuickScorer's
/// 8-lane AVX2 scan (treejit/quick_scorer.h), which every
/// CompiledForest::PredictBatch runs. Compile-time support (x86-64 build,
/// T3_DISABLE_AVX2 off) decides whether the scan is *compiled*; this probe
/// decides whether it is *dispatched* on the running machine. Where it is
/// not, PredictBatch scores every row with the one-row scan.
struct CpuFeatures {
  bool avx = false;   ///< AVX ISA present and OS ymm state enabled (xgetbv).
  bool avx2 = false;  ///< AVX2 ISA present (reported only when avx holds).
  /// T3_FORCE_SCALAR=1 was set in the env: batches take the one-row scan.
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

/// True when QuickScorer's 8-lane AVX2 scan may be dispatched: AVX + AVX2
/// present, OS ymm state enabled, and not overridden by T3_FORCE_SCALAR=1
/// (which sends every batch row through the one-row scan). The name
/// predates the scan, from when it gated emitted AVX kernels. Non-x86-64
/// hosts always return false.
bool BatchKernelsEnabled();

}  // namespace t3

#endif  // T3_COMMON_CPU_FEATURES_H_
