#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>

#include "common/cpu_features.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "server/plan_features.h"

namespace t3 {
namespace {

constexpr int kPollTimeoutMs = 100;
/// Poll timeout of a worker that is not polling the listener: the workers
/// that had fewer connections may fill up meanwhile, and it must not leave
/// a pending connection unaccepted for long.
constexpr int kRebalancePollMs = 10;
constexpr double kDrainDeadlineSeconds = 5.0;

/// A prediction request parsed in the current poll round.
struct PredictJob {
  std::vector<uint8_t>* reply;  ///< Reserved slot in the connection's out.
  std::vector<double> rows;     ///< Row-major, the request's own width.
  std::vector<double> cardinalities;  ///< One per row.
  /// kPredictPlan: the rows are one query's pipelines and get one answer.
  /// kPredictRows asks for every row on its own.
  bool one_query;
};

void LogSwap(const ServingModel& model) {
  std::fprintf(stderr, "t3 server: hot-swapped to %s (version %u; %s)\n",
               model.source.c_str(), model.version,
               model.TimingsText().c_str());
}

}  // namespace

/// Per-connection state, touched only by the owning worker's thread.
struct PredictionServer::Connection {
  ScopedFd fd;
  std::vector<uint8_t> in;  ///< Unparsed request bytes.
  size_t parse_pos = 0;
  /// Encoded responses in the order their requests arrived. A prediction
  /// request reserves its slot when parsed; PredictParsed fills it before
  /// the next flush.
  std::deque<std::vector<uint8_t>> out;
  size_t out_offset = 0;  ///< Bytes of out.front() already written.
  bool close_after_flush = false;
  bool dead = false;  ///< The socket failed; reaped without further I/O.
};

struct PredictionServer::Worker {
  size_t index = 0;
  std::vector<std::unique_ptr<Connection>> conns;
  /// conns.size() as of this worker's last poll, read by the other workers
  /// to decide who accepts next.
  std::atomic<size_t> num_conns{0};
  std::vector<PredictJob> parsed;  ///< This round's prediction requests.
  QueryBatch batch;                ///< Scratch: the round's model input.
  std::vector<double> raw;         ///< Scratch: PredictBatch outputs.
  // Written by this worker's thread only; stats() reads them from any.
  std::atomic<uint64_t> jobs{0};
  std::atomic<uint64_t> rows{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> max_batch_rows{0};
};

PredictionServer::PredictionServer(
    std::shared_ptr<const ServingModel> initial, ServerOptions options)
    : options_(std::move(options)), registry_(std::move(initial)) {}

PredictionServer::~PredictionServer() { Stop(); }

Result<std::unique_ptr<PredictionServer>> PredictionServer::Start(
    std::shared_ptr<const ServingModel> initial, ServerOptions options) {
  if (initial == nullptr) {
    return InvalidArgumentError("prediction server needs an initial model");
  }
  Status sigpipe = IgnoreSigPipe();
  if (!sigpipe.ok()) return sigpipe;

  std::unique_ptr<PredictionServer> server(
      new PredictionServer(std::move(initial), std::move(options)));
  Result<ScopedFd> listener =
      ListenTcp(server->options_.host, server->options_.port);
  if (!listener.ok()) return listener.status();
  server->listener_ = *std::move(listener);
  Result<uint16_t> port = LocalPort(server->listener_.get());
  if (!port.ok()) return port.status();
  server->port_ = *port;
  server->stop_fd_ = ScopedFd(::eventfd(0, EFD_CLOEXEC));
  if (server->stop_fd_.get() < 0) {
    return UnavailableError(StrFormat("eventfd: %s", std::strerror(errno)));
  }

  size_t num_workers = server->options_.num_workers;
  if (num_workers == 0) {
    num_workers = std::max<size_t>(std::thread::hardware_concurrency(), 1);
  }
  for (size_t i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    server->workers_.push_back(std::move(worker));
  }
  // Every worker exists before any loop runs: each loop reads the others'
  // connection counts to decide whether to accept.
  server->pool_ = std::make_unique<ThreadPool>(num_workers);
  for (auto& worker : server->workers_) {
    Worker* raw = worker.get();
    server->pool_->Submit([server = server.get(), raw] {
      server->WorkerLoop(raw);
    });
  }
  return server;
}

void PredictionServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(state_mu_);
    stop_requested_cv_.wait(lock, [this] { return stop_requested_; });
  }
  Stop();
}

void PredictionServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stop_requested_ = true;
    stop_requested_cv_.notify_all();
  }
  std::lock_guard<std::mutex> teardown(teardown_mu_);
  if (pool_ == nullptr) return;  // Already stopped, or never started.
  // Each worker answers what it has parsed, flushes, and returns.
  const uint64_t one = 1;
  (void)!::write(stop_fd_.get(), &one, sizeof(one));
  pool_->Wait();
  pool_.reset();
  listener_.Reset();
}

ServerStats PredictionServer::stats() const {
  ServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.predict_requests = predict_requests_.load(std::memory_order_relaxed);
  stats.rows_predicted = rows_predicted_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  for (const auto& worker : workers_) {
    BatcherStats& batcher = stats.batcher;
    batcher.jobs += worker->jobs.load(std::memory_order_relaxed);
    batcher.rows += worker->rows.load(std::memory_order_relaxed);
    batcher.batches += worker->batches.load(std::memory_order_relaxed);
    batcher.max_batch_rows_seen =
        std::max(batcher.max_batch_rows_seen,
                 worker->max_batch_rows.load(std::memory_order_relaxed));
  }
  stats.model_version = registry_.Current()->version;
  return stats;
}

std::string PredictionServer::StatsText() const {
  const ServerStats stats = this->stats();
  const std::shared_ptr<const ServingModel> model = registry_.Current();
  std::string text;
  text += StrFormat("model_version %u\n", stats.model_version);
  text += StrFormat("model_source %s\n", model->source.c_str());
  text += StrFormat("model_features %d\n", model->num_features());
  text += StrFormat("model_trees %zu\n", model->model.forest().trees.size());
  // Whether scorer.PredictBatch runs the 8-lane AVX2 scan over whole 8-row
  // blocks: compiled in and this forest's trees fit it (vectorized), and
  // dispatched on this host.
  text += StrFormat("simd_batch_kernels %d\n",
                    model->scorer.vectorized() && BatchKernelsEnabled() ? 1 : 0);
  text += StrFormat("workers %zu\n", workers_.size());
  text += StrFormat("connections_accepted %llu\n",
                    static_cast<unsigned long long>(
                        stats.connections_accepted));
  text += StrFormat("predict_requests %llu\n",
                    static_cast<unsigned long long>(stats.predict_requests));
  text += StrFormat("rows_predicted %llu\n",
                    static_cast<unsigned long long>(stats.rows_predicted));
  text += StrFormat("protocol_errors %llu\n",
                    static_cast<unsigned long long>(stats.protocol_errors));
  text += StrFormat("batches %llu\n",
                    static_cast<unsigned long long>(stats.batcher.batches));
  text += StrFormat("rows_per_batch %.2f\n", stats.batcher.RowsPerBatch());
  text += StrFormat("max_batch_rows_seen %llu\n",
                    static_cast<unsigned long long>(
                        stats.batcher.max_batch_rows_seen));
  text += StrFormat("model_swaps %u\n", registry_.num_swaps());
  return text;
}

void PredictionServer::HandleFrame(Worker* worker, Connection* conn,
                                   MessageType type,
                                   std::vector<uint8_t> payload) {
  Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  // Every reply is appended to `out` as the frame is handled; predictions
  // reserve their slot now, so a connection's replies keep frame order.
  auto reply = [conn](const Frame& response) {
    conn->out.push_back(EncodeFrame(response));
  };
  auto predict = [&](std::vector<double> rows, std::vector<double> cards,
                     bool one_query) {
    predict_requests_.fetch_add(1, std::memory_order_relaxed);
    rows_predicted_.fetch_add(cards.size(), std::memory_order_relaxed);
    worker->parsed.push_back(PredictJob{&conn->out.emplace_back(),
                                        std::move(rows), std::move(cards),
                                        one_query});
  };

  switch (type) {
    case MessageType::kPredictRows: {
      Result<PredictRowsRequest> request = DecodePredictRows(frame);
      if (!request.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        reply(EncodeErrorResponse(request.status()));
        return;
      }
      predict(std::move(request->rows),
              std::move(request->input_cardinalities),
              /*one_query=*/false);
      return;
    }
    case MessageType::kPredictPlan: {
      const std::string_view text(
          reinterpret_cast<const char*>(frame.payload.data()),
          frame.payload.size());
      Result<PlanPredictionInput> input = BuildPlanPredictionInput(text);
      if (!input.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        reply(EncodeErrorResponse(input.status()));
        return;
      }
      predict(std::move(input->rows), std::move(input->input_cardinalities),
              /*one_query=*/true);
      return;
    }
    case MessageType::kSwapModel: {
      std::string path(reinterpret_cast<const char*>(frame.payload.data()),
                       frame.payload.size());
      if (path.empty()) path = options_.default_swap_path;
      if (path.empty()) {
        reply(EncodeErrorResponse(FailedPreconditionError(
            "swap request without a path and no default configured")));
        return;
      }
      Result<std::shared_ptr<const ServingModel>> swapped =
          registry_.SwapFromFile(path);
      if (!swapped.ok()) {
        reply(EncodeErrorResponse(swapped.status()));
        return;
      }
      LogSwap(**swapped);
      reply(EncodeSwapResponse((*swapped)->version));
      return;
    }
    case MessageType::kStats: {
      reply(EncodeTextFrame(MessageType::kStatsOk, StatsText()));
      return;
    }
    case MessageType::kShutdown: {
      if (!options_.allow_remote_shutdown) {
        reply(EncodeErrorResponse(
            FailedPreconditionError("remote shutdown is disabled")));
        return;
      }
      reply(EncodeEmptyFrame(MessageType::kShutdownOk));
      conn->close_after_flush = true;
      std::lock_guard<std::mutex> lock(state_mu_);
      stop_requested_ = true;
      stop_requested_cv_.notify_all();
      return;
    }
    default: {
      // A response type sent as a request.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      reply(EncodeErrorResponse(InvalidArgumentError(StrFormat(
          "message type %d is not a request", static_cast<int>(type)))));
      conn->close_after_flush = true;
      return;
    }
  }
}

void PredictionServer::PredictParsed(Worker* worker) {
  if (worker->parsed.empty()) return;
  // One model snapshot per batch: every request in it is answered by the
  // same version, and a concurrent hot swap only affects later rounds.
  const std::shared_ptr<const ServingModel> model = registry_.Current();
  const size_t dim = static_cast<size_t>(model->num_features());
  auto fits = [dim](const PredictJob& job) {
    return job.rows.size() == job.cardinalities.size() * dim;
  };

  uint64_t batch_rows = 0;  // Every request's rows, as BatcherStats counts.
  QueryBatch& batch = worker->batch;
  batch.Reset(model->model.target(), dim);
  for (const PredictJob& job : worker->parsed) {
    const size_t n = job.cardinalities.size();
    batch_rows += n;
    if (!fits(job)) continue;
    if (job.one_query) batch.AddQuery();
    for (size_t i = 0; i < n; ++i) {
      if (!job.one_query) batch.AddQuery();
      batch.AddPipeline(job.rows.data() + i * dim, job.cardinalities[i]);
    }
  }
  worker->raw.resize(batch.num_rows());
  model->scorer.PredictBatch(batch.rows().data(), batch.num_rows(), dim,
                             worker->raw.data());

  size_t query = 0;
  for (const PredictJob& job : worker->parsed) {
    const size_t n = job.cardinalities.size();
    if (!fits(job)) {
      *job.reply = EncodeFrame(EncodeErrorResponse(InvalidArgumentError(
          StrFormat("request rows have %zu values for %zu rows of the "
                    "served model's %zu features",
                    job.rows.size(), n, dim))));
      continue;
    }
    PredictResponse response;
    response.model_version = model->version;
    const size_t num_answers = job.one_query ? 1 : n;
    response.predictions.reserve(num_answers);
    for (size_t i = 0; i < num_answers; ++i) {
      response.predictions.push_back(
          batch.QuerySeconds(query++, worker->raw.data()));
    }
    *job.reply = EncodeFrame(EncodePredictResponse(response));
  }

  worker->jobs.fetch_add(worker->parsed.size(), std::memory_order_relaxed);
  worker->rows.fetch_add(batch_rows, std::memory_order_relaxed);
  worker->batches.fetch_add(1, std::memory_order_relaxed);
  if (batch_rows > worker->max_batch_rows.load(std::memory_order_relaxed)) {
    worker->max_batch_rows.store(batch_rows, std::memory_order_relaxed);
  }
  worker->parsed.clear();
}

void PredictionServer::ExecuteQueuedSwap() {
  if (options_.default_swap_path.empty()) {
    std::fprintf(stderr,
                 "t3 server: swap requested but no default swap path is "
                 "configured; ignoring\n");
    return;
  }
  Result<std::shared_ptr<const ServingModel>> swapped =
      registry_.SwapFromFile(options_.default_swap_path);
  if (swapped.ok()) {
    LogSwap(**swapped);
  } else {
    std::fprintf(stderr, "t3 server: hot swap failed: %s\n",
                 swapped.status().ToString().c_str());
  }
}

bool PredictionServer::FlushWrites(Connection* conn) {
  while (!conn->out.empty()) {
    const std::vector<uint8_t>& front = conn->out.front();
    const ssize_t n =
        ::send(conn->fd.get(), front.data() + conn->out_offset,
               front.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n >= 0) {
      conn->out_offset += static_cast<size_t>(n);
      if (conn->out_offset == front.size()) {
        conn->out.pop_front();
        conn->out_offset = 0;
      }
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;  // EPIPE, ECONNRESET, ...: client is gone.
  }
  return true;
}

void PredictionServer::WorkerLoop(Worker* worker) {
  std::vector<std::unique_ptr<Connection>>& conns = worker->conns;
  std::vector<pollfd> pfds;
  uint8_t read_buffer[64 * 1024];

  // A worker predicts for the connections it accepts, so connections must
  // spread evenly: only a worker holding no more than any other polls the
  // listener, and it takes one connection per round.
  auto may_accept = [&] {
    const size_t mine = conns.size();
    for (const auto& other : workers_) {
      if (other->num_conns.load(std::memory_order_relaxed) < mine) {
        return false;
      }
    }
    return true;
  };
  auto accept_one = [&] {
    int fd;
    do {
      fd = ::accept(listener_.get(), nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    // EAGAIN: another worker won the race for this connection.
    if (fd < 0) return;
    auto conn = std::make_unique<Connection>();
    conn->fd = ScopedFd(fd);
    if (!SetNonBlocking(fd).ok()) return;  // ScopedFd closes it.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    conns.push_back(std::move(conn));
  };

  // Handles every complete frame in conn->in; a framing error queues an
  // error response and marks the connection for close.
  auto parse_frames = [&](Connection* conn) {
    while (!conn->close_after_flush) {
      const size_t available = conn->in.size() - conn->parse_pos;
      if (available < kFrameHeaderBytes) break;
      Result<FrameHeader> header =
          DecodeFrameHeader(conn->in.data() + conn->parse_pos);
      if (!header.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        conn->out.push_back(
            EncodeFrame(EncodeErrorResponse(header.status())));
        conn->close_after_flush = true;
        break;
      }
      if (available < kFrameHeaderBytes + header->payload_size) break;
      const uint8_t* payload_begin =
          conn->in.data() + conn->parse_pos + kFrameHeaderBytes;
      std::vector<uint8_t> payload(payload_begin,
                                   payload_begin + header->payload_size);
      conn->parse_pos += kFrameHeaderBytes + header->payload_size;
      HandleFrame(worker, conn, header->type, std::move(payload));
    }
    if (conn->parse_pos > 0) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() +
                         static_cast<ptrdiff_t>(conn->parse_pos));
      conn->parse_pos = 0;
    }
  };

  // Reads until EAGAIN/EOF. Returns false when the socket errored hard.
  auto read_and_handle = [&](Connection* conn) {
    for (;;) {
      const ssize_t n =
          ::read(conn->fd.get(), read_buffer, sizeof(read_buffer));
      if (n > 0) {
        conn->in.insert(conn->in.end(), read_buffer, read_buffer + n);
        if (static_cast<size_t>(n) < sizeof(read_buffer)) break;
        continue;
      }
      if (n == 0) {
        // Peer finished sending: answer what we have, then close.
        conn->close_after_flush = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    parse_frames(conn);
    return true;
  };

  auto flush_all = [&] {
    for (auto& conn : conns) {
      if (!conn->dead && !FlushWrites(conn.get())) conn->dead = true;
    }
  };

  for (;;) {
    flush_all();
    std::erase_if(conns, [](const std::unique_ptr<Connection>& conn) {
      return conn->dead || (conn->close_after_flush && conn->out.empty());
    });
    worker->num_conns.store(conns.size(), std::memory_order_relaxed);

    const bool accepting = may_accept();
    pfds.clear();
    pfds.push_back({stop_fd_.get(), POLLIN, 0});
    pfds.push_back(
        {listener_.get(), static_cast<short>(accepting ? POLLIN : 0), 0});
    for (auto& conn : conns) {
      short events = 0;
      if (!conn->close_after_flush) events |= POLLIN;
      if (!conn->out.empty()) events |= POLLOUT;
      pfds.push_back({conn->fd.get(), events, 0});
    }
    const int ready = ::poll(pfds.data(), pfds.size(),
                             accepting ? kPollTimeoutMs : kRebalancePollMs);
    if (ready < 0 && errno != EINTR) break;
    if (pfds[0].revents & POLLIN) break;  // Stop(): read no more requests.

    if (worker->index == 0 &&
        swap_requested_.exchange(false, std::memory_order_acq_rel)) {
      ExecuteQueuedSwap();
    }
    // Freshly accepted connections are polled next iteration; only the
    // pfds-backed prefix of `conns` has revents to inspect.
    const size_t polled_conns = pfds.size() - 2;
    if (pfds[1].revents & POLLIN) accept_one();

    for (size_t i = 0; i < polled_conns; ++i) {
      Connection* conn = conns[i].get();
      const short revents = pfds[2 + i].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        conn->dead = true;
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) && !read_and_handle(conn)) {
        conn->dead = true;
      }
    }
    PredictParsed(worker);
  }

  // Drain: every parsed request already has its response queued. Flush
  // them, bounded by a deadline so a stalled client cannot wedge shutdown.
  Stopwatch drain_timer;
  for (;;) {
    flush_all();
    pfds.clear();
    for (auto& conn : conns) {
      if (!conn->dead && !conn->out.empty()) {
        pfds.push_back({conn->fd.get(), POLLOUT, 0});
      }
    }
    if (pfds.empty() || drain_timer.ElapsedSeconds() > kDrainDeadlineSeconds) {
      break;
    }
    (void)::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
  }
  conns.clear();
}

}  // namespace t3
