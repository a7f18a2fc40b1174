#ifndef T3_SERVER_SERVER_H_
#define T3_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/net.h"
#include "common/status.h"
#include "server/protocol.h"
#include "server/serving_model.h"

namespace t3 {

class ThreadPool;

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via PredictionServer::port().
  uint16_t port = 0;
  /// Accept/worker event loops (thread-per-core); 0 = hardware concurrency.
  size_t num_workers = 0;
  /// Honor kShutdown frames (CI smoke and tests); off for long-lived
  /// deployments where only the operator may stop the process.
  bool allow_remote_shutdown = true;
  /// Default model file of kSwapModel frames with an empty payload and of
  /// RequestSwap() (the SIGHUP path). Empty = such swaps are rejected.
  std::string default_swap_path;
};

/// Inference counters summed over the workers. A batch is every prediction
/// request one worker parsed in one poll() round; `max_batch_rows_seen`
/// shows how far concurrent load on one worker actually coalesces.
struct BatcherStats {
  uint64_t jobs = 0;
  uint64_t rows = 0;
  uint64_t batches = 0;
  uint64_t max_batch_rows_seen = 0;

  double RowsPerBatch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(rows) /
                              static_cast<double>(batches);
  }
};

/// Monotonic counters across all workers.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t predict_requests = 0;
  uint64_t rows_predicted = 0;
  uint64_t protocol_errors = 0;
  BatcherStats batcher;
  uint32_t model_version = 0;
};

/// The T3 prediction service: a long-running TCP server answering "t3p1"
/// frames (server/protocol.h) with model predictions.
///
/// Architecture (DESIGN.md "Prediction service"):
///  - N worker threads on an internal ThreadPool, each running a poll()
///    event loop over non-blocking sockets; the workers holding the fewest
///    connections accept from the shared listener, so connections spread
///    evenly across loops;
///  - a worker predicts for its own connections: after each poll round it
///    packs every prediction request it parsed into one QueryBatch and
///    makes one QuickScorer PredictBatch call on one model snapshot. Nothing
///    crosses threads between reading a request and writing its response,
///    and each connection's responses leave in the order its frames came;
///  - models are versioned snapshots swapped atomically through the
///    ModelRegistry (release/acquire shared_ptr publish), so a swap never
///    drops an in-flight request. The worker that parsed a kSwapModel
///    frame (or saw RequestSwap) loads and builds the new model itself,
///    and its own connections wait for that load + build;
///  - client misbehavior (disconnects mid-frame, oversized or malformed
///    frames) costs at most that connection: bad frames get a kError
///    response and a close, aborted sockets are reaped, SIGPIPE is ignored
///    process-wide.
class PredictionServer {
 public:
  /// Binds, spawns the workers, and starts serving `initial`.
  static Result<std::unique_ptr<PredictionServer>> Start(
      std::shared_ptr<const ServingModel> initial, ServerOptions options);

  ~PredictionServer();
  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// The bound port (resolves port 0).
  uint16_t port() const { return port_; }

  /// Blocks until Stop() is called (by any thread, or by a kShutdown
  /// frame).
  void Wait();

  /// Graceful stop: stop accepting, answer every request already parsed,
  /// flush sockets (bounded by a deadline), join the workers. Idempotent.
  void Stop();

  /// Signal-safe swap trigger: queues a swap to the options' default swap
  /// path, executed by a worker on its next loop iteration. The t3_serve
  /// SIGHUP handler calls this.
  void RequestSwap() { swap_requested_.store(true, std::memory_order_release); }

  const ModelRegistry& registry() const { return registry_; }

  ServerStats stats() const;

  /// The kStatsOk text: one "key value" pair per line.
  std::string StatsText() const;

 private:
  struct Connection;
  struct Worker;

  PredictionServer(std::shared_ptr<const ServingModel> initial,
                   ServerOptions options);

  void WorkerLoop(Worker* worker);
  void HandleFrame(Worker* worker, Connection* conn, MessageType type,
                   std::vector<uint8_t> payload);
  /// Answers every prediction request `worker` parsed this round with one
  /// PredictBatch call on one model snapshot.
  void PredictParsed(Worker* worker);
  void ExecuteQueuedSwap();
  /// Writes as much pending output as the socket accepts; false when the
  /// connection failed (peer reset / EPIPE) and must be reaped.
  static bool FlushWrites(Connection* conn);

  ServerOptions options_;
  ModelRegistry registry_;
  ScopedFd listener_;
  /// Readable once Stop() writes it; never drained, so every worker's
  /// poll() returns at once from then on.
  ScopedFd stop_fd_;
  uint16_t port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<bool> swap_requested_{false};
  std::mutex state_mu_;
  std::condition_variable stop_requested_cv_;
  bool stop_requested_ = false;
  std::mutex teardown_mu_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> predict_requests_{0};
  std::atomic<uint64_t> rows_predicted_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace t3

#endif  // T3_SERVER_SERVER_H_
