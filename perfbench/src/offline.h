#ifndef T3_PERFBENCH_OFFLINE_H_
#define T3_PERFBENCH_OFFLINE_H_

#include "bench_common.h"

namespace t3bench {

/// The corpus -> model product path, repeated for the run's duration.
RunResult RunOfflineBuild(const Args& args);

}  // namespace t3bench

#endif  // T3_PERFBENCH_OFFLINE_H_
