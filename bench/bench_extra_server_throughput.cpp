// Extra experiment: end-to-end throughput of the T3 prediction service
// (src/server) — the full wire-protocol path (client encode -> TCP ->
// the worker that read the request batches it with the rest of its poll
// round -> SIMD PredictBatch -> decode), not just the in-process
// evaluator of Table 2. Sweeps concurrent connections {1, 8, 64}; the
// 64-connection run performs a mid-run atomic hot swap and the acceptance
// gates are:
//   - zero dropped requests (every request answered, across the swap),
//   - every response bit-matches the model version that served it,
//   - sustained throughput >= 100k predictions/sec at 64 connections.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/random.h"
#include "server/client.h"
#include "server/server.h"
#include "server/serving_model.h"

namespace t3 {
namespace {

constexpr size_t kRowsPerRequest = 256;
constexpr double kBudgetSeconds = 1.5;
constexpr double kTargetPredsPerSec = 100000.0;

struct LoadResult {
  uint64_t requests = 0;
  uint64_t rows = 0;
  std::vector<double> latency_ns;
  std::set<uint32_t> versions;
};

PredictRowsRequest MakeRequest(uint64_t seed, int num_features) {
  Rng rng(seed);
  PredictRowsRequest request;
  request.num_features = static_cast<uint32_t>(num_features);
  request.rows.resize(kRowsPerRequest * static_cast<size_t>(num_features));
  for (double& value : request.rows) {
    value = rng.UniformDouble(0.0, 1e6);
  }
  request.input_cardinalities.assign(kRowsPerRequest, 1000.0);
  return request;
}

/// Closed-loop load from `connections` client threads for the wall budget.
/// Every response's first row is verified bit-exactly against the model
/// version that claims to have served it; any mismatch or error aborts.
LoadResult DriveLoad(uint16_t port, size_t connections, int num_features,
                     const T3Model& model_v1, const T3Model& model_v2) {
  std::atomic<bool> stop{false};
  std::vector<LoadResult> results(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Result<PredictionClient> client =
          PredictionClient::Connect("127.0.0.1", port);
      T3_CHECK_OK(client);
      const PredictRowsRequest request = MakeRequest(c + 1, num_features);
      const double expected_v1 = model_v1.PredictPipelineSeconds(
          request.rows.data(), request.input_cardinalities[0]);
      const double expected_v2 = model_v2.PredictPipelineSeconds(
          request.rows.data(), request.input_cardinalities[0]);
      LoadResult& result = results[c];
      while (!stop.load(std::memory_order_acquire)) {
        Stopwatch latency;
        Result<PredictResponse> response = client->PredictRows(request);
        T3_CHECK_OK(response);
        result.latency_ns.push_back(
            static_cast<double>(latency.ElapsedNanos()));
        T3_CHECK(response->predictions.size() == kRowsPerRequest);
        const double expected =
            response->model_version == 1 ? expected_v1 : expected_v2;
        T3_CHECK(response->predictions[0] == expected);
        result.versions.insert(response->model_version);
        result.requests++;
        result.rows += response->predictions.size();
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kBudgetSeconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  LoadResult total;
  for (LoadResult& result : results) {
    total.requests += result.requests;
    total.rows += result.rows;
    total.versions.insert(result.versions.begin(), result.versions.end());
    total.latency_ns.insert(total.latency_ns.end(),
                            result.latency_ns.begin(),
                            result.latency_ns.end());
  }
  return total;
}

void Run() {
  Workbench& workbench = bench::SharedWorkbench();
  const T3Model& main_model = workbench.MainModel();
  const int num_features = main_model.forest().num_features;

  // The hot-swap target: the same forest with a shifted base score —
  // structurally identical (so the feature-width guard passes) but every
  // prediction differs, which makes per-version bit-matching a real check.
  Forest shifted = main_model.forest();
  shifted.base_score += 1.0;
  const T3Model swap_model(std::move(shifted), main_model.target());
  const std::string swap_path =
      workbench.data_dir() + "/cache_server_bench_swap.txt";
  T3_CHECK(swap_model.SaveToFile(swap_path).ok());

  Result<std::shared_ptr<const ServingModel>> serving = MakeServingModel(
      T3Model(main_model.forest(), main_model.target()), 1,
      "workbench:main");
  T3_CHECK_OK(serving);

  ServerOptions options;
  options.port = 0;
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(*std::move(serving), options);
  T3_CHECK_OK(server);
  const uint16_t port = (*server)->port();

  const bool simd = (*server)->registry().Current()->simd_batch_kernels();
  PrintExperimentHeader(
      "Extra: prediction-server throughput over the wire protocol",
      StrFormat("closed loop, %zu rows/request, %.1fs per config, %d-tree "
                "model; batch kernels: %s. The 64-connection run hot-swaps "
                "mid-flight.",
                kRowsPerRequest, kBudgetSeconds,
                static_cast<int>(main_model.forest().trees.size()),
                simd ? "SIMD" : "off, per-row loop"));

  ReportTable table({"Connections", "Requests", "Preds/s", "p50", "p99",
                     "Versions", "Dropped"});
  double preds_at_64 = 0.0;
  for (const size_t connections : {size_t{1}, size_t{8}, size_t{64}}) {
    const bool swap_run = connections == 64;
    std::thread swapper;
    if (swap_run) {
      swapper = std::thread([&] {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kBudgetSeconds / 2));
        Result<PredictionClient> admin =
            PredictionClient::Connect("127.0.0.1", port);
        T3_CHECK_OK(admin);
        Result<uint32_t> version = admin->Swap(swap_path);
        T3_CHECK_OK(version);
      });
    }
    const LoadResult result =
        DriveLoad(port, connections, num_features, main_model, swap_model);
    if (swapper.joinable()) swapper.join();

    // Zero drops: DriveLoad T3_CHECKs every response, so reaching here
    // with N requests means N answers; the column records it explicitly.
    const double preds_per_sec =
        static_cast<double>(result.rows) / kBudgetSeconds;
    if (connections == 64) preds_at_64 = preds_per_sec;
    std::string versions;
    for (const uint32_t version : result.versions) {
      if (!versions.empty()) versions += ",";
      versions += StrFormat("%u", version);
    }
    table.AddRow({StrFormat("%zu", connections),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(result.requests)),
                  StrFormat("%.0f", preds_per_sec),
                  FormatDuration(Quantile(result.latency_ns, 0.5)),
                  FormatDuration(Quantile(result.latency_ns, 0.99)),
                  versions, "0"});
  }
  table.Print();

  // Post-swap bit-match on a fresh connection: version 2 is now serving
  // and its predictions match the swapped-in model exactly.
  {
    Result<PredictionClient> client =
        PredictionClient::Connect("127.0.0.1", port);
    T3_CHECK_OK(client);
    const PredictRowsRequest request = MakeRequest(999, num_features);
    Result<PredictResponse> response = client->PredictRows(request);
    T3_CHECK_OK(response);
    T3_CHECK(response->model_version == 2);
    for (size_t i = 0; i < request.num_rows(); ++i) {
      T3_CHECK(response->predictions[i] ==
               swap_model.PredictPipelineSeconds(
                   request.rows.data() +
                       i * static_cast<size_t>(num_features),
                   request.input_cardinalities[i]));
    }
  }

  std::printf("\nThroughput at 64 connections: %.0f preds/s "
              "(target >= %.0f)%s\n",
              preds_at_64, kTargetPredsPerSec,
              preds_at_64 >= kTargetPredsPerSec ? " [ok]" : "");
  (*server)->Stop();
}

}  // namespace
}  // namespace t3

int main() {
  t3::Run();
  return 0;
}
