#ifndef T3_PERFBENCH_SERVE_H_
#define T3_PERFBENCH_SERVE_H_

#include "bench_common.h"

namespace t3bench {

/// Open-loop point traffic with hot swaps over a rate ladder.
RunResult RunServePoint(const Args& args);

/// Closed-loop 2048-row bulk scoring, four requests in flight.
RunResult RunServeBulk(const Args& args);

}  // namespace t3bench

#endif  // T3_PERFBENCH_SERVE_H_
