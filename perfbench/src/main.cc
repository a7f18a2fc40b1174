// t3_perfbench: one run of one benchmark workload (perfbench/README.md).
//
//   t3_perfbench --workload <serve_point|serve_bulk|offline_build>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--repo-root <dir>] [--scratch-dir <dir>]
//                [--trace-out <file>] [--git-sha <sha>]
//
// Prints a human-readable report, one "meta" JSON line, and as the last line
// the result object {"correct", "attempted", "failed", "metrics"}. Exits 1
// when any output was wrong or any request went unanswered.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/cpu_features.h"
#include "common/string_util.h"
#include "offline.h"
#include "serve.h"
#include "treejit/jit.h"

#ifndef T3_PERFBENCH_BUILD_TYPE
#define T3_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace t3bench {
namespace {

// The per-layer metrics every traced run reports, whatever its workload; a
// layer the workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"serve.rows_p50_ms", "ms"},
      {"serve.rows_p90_ms", "ms"},
      {"serve.rows_p99_ms", "ms"},
      {"serve.plan_p50_ms", "ms"},
      {"serve.plan_p99_ms", "ms"},
      {"serve.max_rate_rps", "1/s"},
      {"server.rows_per_batch", "rows"},
      {"server.max_batch_rows", "rows"},
      {"server.handoff_us", "us"},
      {"server.decode_us", "us"},
      {"server.encode_us", "us"},
      {"server.swap_p50_ms", "ms"},
      {"server.swap_max_ms", "ms"},
      {"server.backlog_max", "count"},
      {"server.protocol_errors", "count"},
      {"bench.gen_lag_p99_us", "us"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.throughput_per_s", "1/s"},
      {"treejit.batch_ns_per_row", "ns"},
      {"treejit.predict_ns", "ns"},
      {"treejit.compile_ms", "ms"},
      {"treejit.simd", "bool"},
      {"analysis.forest_diff_ms", "ms"},
      {"analysis.validate_ms", "ms"},
      {"model.load_ms", "ms"},
      {"plan.parse_decompose_us", "us"},
      {"features.featurize_us", "us"},
      {"features.pipelines_per_plan", "count"},
      {"datagen.generate_s", "s"},
      {"querygen.generate_ms", "ms"},
      {"engine.execute_s", "s"},
      {"engine.queries", "count"},
      {"harness.benchmark_query_s", "s"},
      {"harness.build_matrix_ms", "ms"},
      {"harness.evaluate_ms", "ms"},
      {"harness.live_qerror_p50", "ratio"},
      {"gbt.train_s", "s"},
  };
  return metrics;
}

void Usage() {
  std::fprintf(stderr,
               "usage: t3_perfbench --workload <serve_point|serve_bulk|"
               "offline_build> --seed <n> --seconds <s> --trace <0|1> "
               "[--repo-root <dir>] [--scratch-dir <dir>] [--trace-out "
               "<file>] [--git-sha <sha>]\n");
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* git_sha) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!t3::ParseUint64(value, &args->seed)) return false;
    } else if (flag == "--seconds") {
      if (!t3::ParseDouble(value, &args->seconds) || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--repo-root") {
      args->repo_root = value;
    } else if (flag == "--scratch-dir") {
      args->scratch_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--git-sha") {
      *git_sha = value;
    } else {
      return false;
    }
  }
  if (args->scratch_dir.empty()) args->scratch_dir = args->repo_root;
  return !args->workload.empty();
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace
}  // namespace t3bench

int main(int argc, char** argv) {
  using namespace t3bench;
  Args args;
  std::string git_sha = "unknown";
  if (!ParseArgs(argc, argv, &args, &git_sha)) {
    Usage();
    return 2;
  }
  RunResult result;
  if (args.workload == "serve_point") {
    result = RunServePoint(args);
  } else if (args.workload == "serve_bulk") {
    result = RunServeBulk(args);
  } else if (args.workload == "offline_build") {
    result = RunOfflineBuild(args);
  } else {
    Usage();
    return 2;
  }

  if (args.trace) {
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : PerLayerMetrics()) {
      Metric metric{name, 0.0, unit};
      for (const Metric& m : result.metrics) {
        if (m.name == name) metric = m;
      }
      ordered.push_back(metric);
    }
    result.metrics = std::move(ordered);
  }
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.Fail("metric " + m.name + " is not finite");
    }
  }
  if (result.attempted == 0) result.Fail("nothing was attempted");

  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("ERROR: %s\n", error.c_str());
  }
  const t3::CpuFeatures& cpu = t3::GetCpuFeatures();
  std::printf(
      "meta {\"git_sha\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"batch_kernels_built\": %s, \"batch_kernels_dispatched\": %s, "
      "\"force_scalar\": %s, \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
      git_sha.c_str(), std::thread::hardware_concurrency(),
      T3_PERFBENCH_BUILD_TYPE, t3::BatchJitSupported() ? "true" : "false",
      t3::BatchKernelsEnabled() ? "true" : "false",
      cpu.force_scalar ? "true" : "false", args.workload.c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0);

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
