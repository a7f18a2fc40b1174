// t3_loadgen — load generator for the t3_serve prediction service:
// N concurrent connections issuing kPredictRows batches, with optional
// mid-run hot swap, reporting sustained predictions/sec and latency
// percentiles. The loop is closed: each connection keeps one request in
// flight, so the latencies are service times, not latency under an offered
// load (perfbench's serve_point runs an open loop timed from the scheduled
// send).
//
//   t3_loadgen --port N [--host H] [--connections N] [--rows N]
//              [--seconds S] [--seed N]
//              [--swap-at S --swap-path FILE] [--shutdown]
//
// --connections — concurrent client connections, one thread each
//                 (default 8).
// --rows        — feature rows per request frame (default 64).
// --seconds     — run duration (default 5).
// --seed        — feature-value RNG seed (default 42).
// --swap-at     — seconds into the run at which to send one kSwapModel
//                 frame on a dedicated admin connection.
// --swap-path   — model path of that swap ("" = the server's default).
// --shutdown    — send kShutdown after the run and wait for the ack.
//
// Every request must be answered: the report counts errors, and any error
// (including a dropped response during the hot swap) fails the run.
//
// Exit status: 0 success (zero errors), 1 run failure, 2 usage error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "server/client.h"
#include "server/protocol.h"

namespace t3 {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: t3_loadgen --port N [--host H] [--connections N] [--rows N]\n"
      "                  [--seconds S] [--seed N]\n"
      "                  [--swap-at S --swap-path FILE] [--shutdown]\n");
  return 2;
}

struct Args {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 8;
  size_t rows = 64;
  double seconds = 5.0;
  uint64_t seed = 42;
  double swap_at = -1.0;
  std::string swap_path;
  bool shutdown = false;
};

constexpr const char* kTool = "t3_loadgen";

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_port = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host") {
      if (!CliValue(kTool, argc, argv, &i, "--host", &args->host)) {
        return false;
      }
    } else if (arg == "--port") {
      uint64_t port = 0;
      if (!CliUint64(kTool, argc, argv, &i, "--port", 1, 65535,
                     "must be an integer in [1, 65535]", &port)) {
        return false;
      }
      args->port = static_cast<uint16_t>(port);
      have_port = true;
    } else if (arg == "--connections") {
      uint64_t connections = 0;
      if (!CliUint64(kTool, argc, argv, &i, "--connections", 1, 4096,
                     "must be an integer in [1, 4096]", &connections)) {
        return false;
      }
      args->connections = static_cast<size_t>(connections);
    } else if (arg == "--rows") {
      uint64_t rows = 0;
      if (!CliUint64(kTool, argc, argv, &i, "--rows", 1, kMaxRowsPerRequest,
                     "must be an integer in [1, 8192]", &rows)) {
        return false;
      }
      args->rows = static_cast<size_t>(rows);
    } else if (arg == "--seconds") {
      if (!CliPositiveDouble(kTool, argc, argv, &i, "--seconds",
                             &args->seconds)) {
        return false;
      }
    } else if (arg == "--seed") {
      if (!CliUint64(kTool, argc, argv, &i, "--seed", 0, UINT64_MAX,
                     "must be an unsigned integer", &args->seed)) {
        return false;
      }
    } else if (arg == "--swap-at") {
      if (!CliPositiveDouble(kTool, argc, argv, &i, "--swap-at",
                             &args->swap_at)) {
        return false;
      }
    } else if (arg == "--swap-path") {
      if (!CliValue(kTool, argc, argv, &i, "--swap-path",
                    &args->swap_path)) {
        return false;
      }
    } else if (arg == "--shutdown") {
      args->shutdown = true;
    } else {
      return CliError(kTool, arg.c_str(), "is not a recognized argument");
    }
  }
  if (!have_port) return CliError(kTool, "--port", "is required");
  return true;
}

/// The "model_features N" line of the server's stats text.
int ParseModelFeatures(const std::string& stats_text) {
  for (const std::string& line : Split(stats_text, '\n')) {
    const std::vector<std::string> parts = Split(line, ' ');
    if (parts.size() == 2 && parts[0] == "model_features") {
      int64_t value = 0;
      if (ParseInt64(parts[1], &value)) return static_cast<int>(value);
    }
  }
  return -1;
}

struct ConnectionReport {
  std::vector<double> latency_ns;
  uint64_t requests = 0;
  uint64_t rows = 0;
  uint64_t errors = 0;
  std::set<uint32_t> versions;
};

void RunConnection(const Args& args, size_t index, int num_features,
                   const std::atomic<bool>* stop_flag,
                   ConnectionReport* report) {
  Result<PredictionClient> client =
      PredictionClient::Connect(args.host, args.port);
  if (!client.ok()) {
    std::fprintf(stderr, "t3_loadgen: connection %zu: %s\n", index,
                 client.status().ToString().c_str());
    report->errors++;
    return;
  }

  Rng rng(args.seed + index);
  PredictRowsRequest request;
  request.num_features = static_cast<uint32_t>(num_features);
  request.rows.resize(args.rows * static_cast<size_t>(num_features));
  for (double& value : request.rows) {
    value = rng.UniformDouble(0.0, 1000.0);
  }
  request.input_cardinalities.assign(args.rows, 1000.0);

  uint64_t sent = 0;
  while (!stop_flag->load(std::memory_order_acquire)) {
    // Vary one cell per request so responses are not trivially cacheable
    // anywhere in the path.
    request.rows[sent % request.rows.size()] =
        rng.UniformDouble(0.0, 1000.0);
    Stopwatch latency;
    Result<PredictResponse> response = client->PredictRows(request);
    if (!response.ok()) {
      report->errors++;
      std::fprintf(stderr, "t3_loadgen: connection %zu: %s\n", index,
                   response.status().ToString().c_str());
      return;
    }
    report->latency_ns.push_back(
        static_cast<double>(latency.ElapsedNanos()));
    report->requests++;
    report->rows += response->predictions.size();
    report->versions.insert(response->model_version);
    sent++;
  }
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  // Admin connection: learn the feature width, drive the optional swap and
  // shutdown. Dedicated so admin replies never interleave with the FIFO
  // prediction stream of a load connection.
  Result<PredictionClient> admin =
      PredictionClient::Connect(args.host, args.port);
  if (!admin.ok()) {
    std::fprintf(stderr, "t3_loadgen: %s\n",
                 admin.status().ToString().c_str());
    return 1;
  }
  Result<std::string> stats = admin->Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "t3_loadgen: stats: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  const int num_features = ParseModelFeatures(*stats);
  if (num_features <= 0) {
    std::fprintf(stderr,
                 "t3_loadgen: server stats carry no model_features line\n");
    return 1;
  }

  std::atomic<bool> stop_flag{false};
  std::vector<ConnectionReport> reports(args.connections);
  std::vector<std::thread> threads;
  threads.reserve(args.connections);
  Stopwatch run_timer;
  for (size_t i = 0; i < args.connections; ++i) {
    threads.emplace_back(RunConnection, std::cref(args), i, num_features,
                         &stop_flag, &reports[i]);
  }

  bool swap_failed = false;
  uint32_t swapped_version = 0;
  if (args.swap_at > 0.0 && args.swap_at < args.seconds) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(args.swap_at));
    Result<uint32_t> version = admin->Swap(args.swap_path);
    if (version.ok()) {
      swapped_version = *version;
      std::fprintf(stderr, "t3_loadgen: hot swap at %.1fs -> version %u\n",
                   run_timer.ElapsedSeconds(), *version);
    } else {
      swap_failed = true;
      std::fprintf(stderr, "t3_loadgen: hot swap failed: %s\n",
                   version.status().ToString().c_str());
    }
  }

  const double remaining = args.seconds - run_timer.ElapsedSeconds();
  if (remaining > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
  }
  stop_flag.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  const double elapsed = run_timer.ElapsedSeconds();

  ConnectionReport total;
  for (const ConnectionReport& report : reports) {
    total.requests += report.requests;
    total.rows += report.rows;
    total.errors += report.errors;
    total.versions.insert(report.versions.begin(), report.versions.end());
    total.latency_ns.insert(total.latency_ns.end(),
                            report.latency_ns.begin(),
                            report.latency_ns.end());
  }

  std::string versions_text;
  for (const uint32_t version : total.versions) {
    if (!versions_text.empty()) versions_text += ",";
    versions_text += StrFormat("%u", version);
  }
  const double preds_per_sec =
      elapsed > 0.0 ? static_cast<double>(total.rows) / elapsed : 0.0;
  std::printf("t3_loadgen: connections=%zu rows_per_request=%zu "
              "elapsed=%.2fs\n",
              args.connections, args.rows, elapsed);
  std::printf("t3_loadgen: requests=%llu predictions=%llu "
              "preds_per_sec=%.0f errors=%llu\n",
              static_cast<unsigned long long>(total.requests),
              static_cast<unsigned long long>(total.rows), preds_per_sec,
              static_cast<unsigned long long>(total.errors));
  if (!total.latency_ns.empty()) {
    std::printf("t3_loadgen: latency p50=%s p99=%s\n",
                FormatDuration(Quantile(total.latency_ns, 0.50)).c_str(),
                FormatDuration(Quantile(total.latency_ns, 0.99)).c_str());
  }
  std::printf("t3_loadgen: model_versions_seen=%s\n", versions_text.c_str());

  if (swapped_version != 0 && total.versions.count(swapped_version) == 0) {
    // Tolerated: a short run can end before any post-swap response lands,
    // but say so — the CI smoke run sizes --seconds so this cannot happen.
    std::fprintf(stderr,
                 "t3_loadgen: note: no response carried swapped version "
                 "%u\n",
                 swapped_version);
  }

  if (args.shutdown) {
    const Status down = admin->Shutdown();
    if (!down.ok()) {
      std::fprintf(stderr, "t3_loadgen: shutdown: %s\n",
                   down.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "t3_loadgen: server acknowledged shutdown\n");
  }

  return (total.errors == 0 && !swap_failed) ? 0 : 1;
}

}  // namespace
}  // namespace t3

int main(int argc, char** argv) { return t3::Run(argc, argv); }
