// The serving workloads: serve_point (open loop, small requests, hot swaps)
// and serve_bulk (closed loop, 2048-row requests). Both drive an in-process
// PredictionServer from one non-blocking generator thread over four
// pipelined connections, check every answer bit for bit against the model
// version named in the response, and in trace mode time the layers a
// request crosses by calling them directly on the workload's own inputs.

#include "serve.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "analysis/forest_diff.h"
#include "common/cpu_features.h"
#include "common/net.h"
#include "common/random.h"
#include "features/featurizer.h"
#include "harness/runner.h"
#include "model/t3_model.h"
#include "plan/pipeline.h"
#include "plan/plan.h"
#include "plan/plan_file.h"
#include "querygen/querygen.h"
#include "server/plan_features.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/serving_model.h"
#include "storage/catalog.h"
#include "treejit/jit.h"

namespace t3bench {
namespace {

using t3::Frame;
using t3::MessageType;

// Workload constants (perfbench/README.md says why each has its value).
constexpr size_t kNumWorkers = 2;
constexpr size_t kNumConnections = 4;
// The set-up runs kSetupRepeats times before the load and as many times
// after it. The host's speed moves in episodes of about a second, and
// set-ups a whole run apart give the median more than one of them.
constexpr int kSetupRepeats = 6;
constexpr const char* kInstance = "tpch_sf0";
constexpr int kQueriesPerGroup = 32;
constexpr const char* kModelA = "data/model_loo_airline.txt";
constexpr const char* kModelB = "data/model_ablation_per_pipeline.txt";
// serve_point.
constexpr double kNominalRate = 5000.0;
constexpr double kRates[] = {2500.0, 5000.0, 10000.0, 20000.0};
constexpr size_t kNumRates = sizeof(kRates) / sizeof(kRates[0]);
// The ladder is interleaved: the run is cut into kNumSlots equal slots and
// the rates take turns, so each rate is sampled across the whole run and a
// burst of host interference lands on one slot of a rate, not on all of
// it. Slot k runs rate (k + k / 8) % 4: every 4 consecutive slots hold all
// four rates, and in an untraced 30 s run the six swaps (at 2.5, 7.5, ...,
// 27.5 s; slots 2, 8, 13, 18, 24 and 29) land on every rate.
constexpr size_t kNumSlots = 32;
size_t SlotRate(size_t slot) { return (slot + slot / 8) % kNumRates; }
constexpr double kPlanShare = 0.2;
constexpr int kMaxRowsPerPointRequest = 8;
constexpr double kSwapIntervalS = 5.0;
constexpr double kP99LimitMs = 2.0;
constexpr int64_t kBacklogSampleNs = 10'000'000;
constexpr int64_t kDrainTimeoutNs = 10'000'000'000;
constexpr size_t kPointSpecs = 4096;
// serve_bulk.
constexpr size_t kBulkRows = 2048;
constexpr size_t kBulkSpecs = 32;

/// Featurized inputs built from seeded QueryGenerator plans.
struct Inputs {
  size_t num_features = 0;
  std::vector<double> rows;           ///< Row-major pool of pipeline rows.
  std::vector<double> cardinalities;  ///< One per pool row.
  std::vector<std::string> plans;     ///< "t3plan v1" skeletons.

  size_t num_rows() const { return cardinalities.size(); }
  const double* row(size_t i) const { return rows.data() + i * num_features; }
};

/// One prepared request: its wire bytes plus what answers it.
struct Spec {
  MessageType type = MessageType::kPredictRows;
  std::vector<uint8_t> wire;
  std::vector<uint32_t> row_ids;  ///< kPredictRows: pool rows, in order.
  uint32_t plan_id = 0;           ///< kPredictPlan: index into plans.
};

/// The two fixture models, as loaded for the reference computation.
struct References {
  t3::T3Model models[2];
  std::vector<double> row_seconds[2];   ///< Per pool row.
  std::vector<double> plan_seconds[2];  ///< Per plan.
};

bool BuildInputs(const Args& args, RunResult* result, Inputs* inputs) {
  t3::Result<t3::Database> db =
      t3::GenerateDatabase(kInstance, args.seed, 0.0, nullptr);
  if (!db.ok()) {
    result->Fail("datagen: " + db.status().ToString());
    return false;
  }
  t3::QueryGenerator generator(&db->catalog(), args.seed);
  for (t3::GeneratedQuery& query : generator.GenerateAll(kQueriesPerGroup)) {
    t3::PhysicalPlan plan = std::move(query.plan);
    t3::Result<t3::PipelineDecomposition> decomposition =
        t3::DecomposePipelines(plan);
    if (!decomposition.ok()) {
      result->Fail("decompose: " + decomposition.status().ToString());
      return false;
    }
    t3::AnnotatePipelineStages(&plan, *decomposition);
    t3::Result<std::vector<t3::PipelineFeatureVector>> features =
        t3::ComputePipelineFeatures(db->catalog(), plan, *decomposition,
                                    t3::NodeOutputRowsFromPlan(plan));
    if (!features.ok()) {
      result->Fail("featurize: " + features.status().ToString());
      return false;
    }
    for (const t3::PipelineFeatureVector& vector : *features) {
      inputs->num_features = vector.values.size();
      inputs->rows.insert(inputs->rows.end(), vector.values.begin(),
                          vector.values.end());
      inputs->cardinalities.push_back(vector.input_cardinality);
    }
    inputs->plans.push_back(t3::PlanRecordsToText(t3::PlanToRecords(plan)));
  }
  if (inputs->num_rows() == 0 || inputs->plans.empty()) {
    result->Fail("no featurized inputs");
    return false;
  }
  return true;
}

bool BuildReferences(const Args& args, const Inputs& inputs,
                     RunResult* result, References* refs) {
  const std::string paths[2] = {args.repo_root + "/" + kModelA,
                                args.repo_root + "/" + kModelB};
  for (int m = 0; m < 2; ++m) {
    t3::Result<t3::T3Model> model = t3::T3Model::LoadFromFile(paths[m]);
    if (!model.ok()) {
      result->Fail("reference model: " + model.status().ToString());
      return false;
    }
    refs->models[m] = *std::move(model);
    for (size_t i = 0; i < inputs.num_rows(); ++i) {
      refs->row_seconds[m].push_back(refs->models[m].PredictPipelineSeconds(
          inputs.row(i), inputs.cardinalities[i]));
    }
    for (const std::string& text : inputs.plans) {
      t3::Result<t3::PlanPredictionInput> input =
          t3::BuildPlanPredictionInput(text);
      if (!input.ok()) {
        result->Fail("plan input: " + input.status().ToString());
        return false;
      }
      double total = 0.0;
      for (size_t i = 0; i < input->num_rows(); ++i) {
        total += refs->models[m].PredictPipelineSeconds(
            input->rows.data() + i * input->num_features,
            input->input_cardinalities[i]);
      }
      refs->plan_seconds[m].push_back(total);
    }
  }
  return true;
}

Spec MakeRowsSpec(const Inputs& inputs, std::vector<uint32_t> row_ids) {
  t3::PredictRowsRequest request;
  request.num_features = static_cast<uint32_t>(inputs.num_features);
  for (uint32_t id : row_ids) {
    request.rows.insert(request.rows.end(), inputs.row(id),
                        inputs.row(id) + inputs.num_features);
    request.input_cardinalities.push_back(inputs.cardinalities[id]);
  }
  Spec spec;
  spec.type = MessageType::kPredictRows;
  spec.wire = t3::EncodeFrame(t3::EncodePredictRows(request));
  spec.row_ids = std::move(row_ids);
  return spec;
}

std::vector<Spec> MakePointSpecs(const Inputs& inputs, t3::Rng* rng) {
  std::vector<Spec> specs;
  specs.reserve(kPointSpecs);
  for (size_t s = 0; s < kPointSpecs; ++s) {
    if (rng->Unit() < kPlanShare) {
      Spec spec;
      spec.type = MessageType::kPredictPlan;
      spec.plan_id = static_cast<uint32_t>(rng->UniformInt(
          0, static_cast<int64_t>(inputs.plans.size()) - 1));
      spec.wire = t3::EncodeFrame(t3::EncodeTextFrame(
          MessageType::kPredictPlan, inputs.plans[spec.plan_id]));
      specs.push_back(std::move(spec));
      continue;
    }
    const int64_t count = rng->UniformInt(1, kMaxRowsPerPointRequest);
    std::vector<uint32_t> ids;
    for (int64_t i = 0; i < count; ++i) {
      ids.push_back(static_cast<uint32_t>(rng->UniformInt(
          0, static_cast<int64_t>(inputs.num_rows()) - 1)));
    }
    specs.push_back(MakeRowsSpec(inputs, std::move(ids)));
  }
  return specs;
}

std::vector<Spec> MakeBulkSpecs(const Inputs& inputs, t3::Rng* rng) {
  std::vector<Spec> specs;
  for (size_t s = 0; s < kBulkSpecs; ++s) {
    std::vector<uint32_t> ids(kBulkRows);
    for (uint32_t& id : ids) {
      id = static_cast<uint32_t>(rng->UniformInt(
          0, static_cast<int64_t>(inputs.num_rows()) - 1));
    }
    specs.push_back(MakeRowsSpec(inputs, std::move(ids)));
  }
  return specs;
}

// --- Non-blocking client connections ---

struct Pending {
  uint32_t spec = 0;     ///< Index into the spec pool; unused for swaps.
  int64_t due_ns = 0;    ///< Scheduled send (open loop) or actual send.
  uint32_t swap_version = 0;  ///< Expected version of a swap reply.
  uint32_t slot = 0;          ///< Open loop: the slot it was scheduled in.
};

struct Connection {
  t3::ScopedFd fd;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::vector<uint8_t> in;
  size_t in_off = 0;
  std::deque<Pending> pending;
};

bool Connect(uint16_t port, Connection* conn, std::string* error) {
  t3::Result<t3::ScopedFd> fd = t3::ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) {
    *error = fd.status().ToString();
    return false;
  }
  if (t3::Status s = t3::SetNonBlocking(fd->get()); !s.ok()) {
    *error = s.ToString();
    return false;
  }
  conn->fd = *std::move(fd);
  return true;
}

/// Sends what the socket accepts; false on a failed connection.
bool Flush(Connection* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd.get(), conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  conn->out.clear();
  conn->out_off = 0;
  return true;
}

void Enqueue(Connection* conn, const std::vector<uint8_t>& wire) {
  conn->out.insert(conn->out.end(), wire.begin(), wire.end());
}

/// Reads everything available; false on EOF or a socket error.
bool Receive(Connection* conn) {
  uint8_t buffer[1 << 16];
  while (true) {
    const ssize_t n = ::recv(conn->fd.get(), buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->in.insert(conn->in.end(), buffer, buffer + n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
}

/// Pops the next whole frame off the read buffer. 0 = none yet, 1 = frame,
/// -1 = malformed header.
int NextFrame(Connection* conn, Frame* frame) {
  const size_t available = conn->in.size() - conn->in_off;
  if (available < t3::kFrameHeaderBytes) return 0;
  t3::Result<t3::FrameHeader> header =
      t3::DecodeFrameHeader(conn->in.data() + conn->in_off);
  if (!header.ok()) return -1;
  const size_t total = t3::kFrameHeaderBytes + header->payload_size;
  if (available < total) return 0;
  const uint8_t* payload =
      conn->in.data() + conn->in_off + t3::kFrameHeaderBytes;
  frame->type = header->type;
  frame->payload.assign(payload, payload + header->payload_size);
  conn->in_off += total;
  if (conn->in_off == conn->in.size()) {
    conn->in.clear();
    conn->in_off = 0;
  }
  return 1;
}

/// Waits up to `wait_ns` for any of `conns` to become ready, sends what the
/// writable ones accept and reads what the readable ones have; calls
/// `on_input(i)` for each connection that received bytes. False (with the
/// run failed) when a connection or the poll itself broke, or `on_input`
/// returned false.
template <typename OnInput>
bool PollOnce(Connection* const* conns, size_t count, int64_t wait_ns,
              RunResult* result, OnInput on_input) {
  pollfd fds[kNumConnections + 1];
  for (size_t i = 0; i < count; ++i) {
    fds[i].fd = conns[i]->fd.get();
    fds[i].events =
        static_cast<short>(POLLIN | (conns[i]->out.empty() ? 0 : POLLOUT));
    fds[i].revents = 0;
  }
  wait_ns = std::max<int64_t>(wait_ns, 0);
  const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                         static_cast<long>(wait_ns % 1'000'000'000)};
  const int ready = ::ppoll(fds, count, &timeout, nullptr);
  if (ready < 0 && errno != EINTR) {
    result->Fail("poll failed");
    return false;
  }
  for (size_t i = 0; ready > 0 && i < count; ++i) {
    if ((fds[i].revents & POLLOUT) != 0 && !Flush(conns[i])) {
      result->Fail("connection lost while sending");
      return false;
    }
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    if (!Receive(conns[i])) {
      result->Fail("server closed a connection");
      return false;
    }
    if (!on_input(i)) return false;
  }
  return true;
}

// --- The serving session shared by both workloads ---

struct Session {
  std::unique_ptr<t3::PredictionServer> server;
  Connection conns[kNumConnections];
  Connection admin;
};

/// Loads the first fixture (proof + JIT), starts the server and opens the
/// connections. Returns the wall time in seconds, or a negative value.
double StartSession(const Args& args, RunResult* result, Session* session) {
  const int64_t start = NowNs();
  t3::Result<std::shared_ptr<const t3::ServingModel>> model =
      t3::LoadServingModel(args.repo_root + "/" + kModelA, 1);
  if (!model.ok()) {
    result->Fail("serving model: " + model.status().ToString());
    return -1.0;
  }
  t3::ServerOptions options;
  options.num_workers = kNumWorkers;
  t3::Result<std::unique_ptr<t3::PredictionServer>> server =
      t3::PredictionServer::Start(*std::move(model), options);
  if (!server.ok()) {
    result->Fail("server start: " + server.status().ToString());
    return -1.0;
  }
  session->server = *std::move(server);
  std::string error;
  for (Connection& conn : session->conns) {
    if (!Connect(session->server->port(), &conn, &error)) {
      result->Fail("connect: " + error);
      return -1.0;
    }
  }
  if (!Connect(session->server->port(), &session->admin, &error)) {
    result->Fail("connect: " + error);
    return -1.0;
  }
  return static_cast<double>(NowNs() - start) * 1e-9;
}

/// Starts a session kSetupRepeats times, stopping the previous one each
/// time, keeps the last one running and appends each set-up's wall and
/// process CPU seconds to `wall_s` and `cpu_s`.
bool SetUp(const Args& args, RunResult* result, Session* session,
           std::vector<double>* wall_s, std::vector<double>* cpu_s) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (session->server != nullptr) {
      session->server->Stop();
      *session = Session();
    }
    const int64_t cpu_start = ProcessCpuNs();
    const double seconds = StartSession(args, result, session);
    if (seconds < 0.0) return false;
    wall_s->push_back(seconds);
    cpu_s->push_back(static_cast<double>(ProcessCpuNs() - cpu_start) * 1e-9);
  }
  return true;
}

/// Counts and verifies answers; shared by both load loops.
struct Checker {
  const std::vector<Spec>* specs = nullptr;
  const References* refs = nullptr;
  RunResult* result = nullptr;
  uint32_t max_version = 1;  ///< Highest version a reply may name.
  uint64_t answered = 0;
  uint64_t answered_rows = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;

  /// Verifies one prediction reply against the version it names.
  void Check(const Spec& spec, const Frame& frame) {
    if (frame.type != MessageType::kPredictOk) {
      ++failed;
      if (failed <= 3) {
        t3::Result<t3::ErrorResponse> error = t3::DecodeErrorResponse(frame);
        result->Fail("request answered with an error: " +
                     (error.ok() ? error->message : std::string("?")));
      }
      return;
    }
    t3::Result<t3::PredictResponse> response =
        t3::DecodePredictResponse(frame);
    if (!response.ok()) {
      ++failed;
      result->Fail("undecodable reply: " + response.status().ToString());
      return;
    }
    ++answered;
    const uint32_t version = response->model_version;
    if (version < 1 || version > max_version) {
      ++mismatches;
      result->Fail("reply names unknown model version " +
                   std::to_string(version));
      return;
    }
    // Version 1 is model A; swap k installs version 1 + k, alternating
    // B, A, B, ...
    const int m = static_cast<int>((version - 1) % 2);
    bool ok = true;
    if (spec.type == MessageType::kPredictPlan) {
      ok = response->predictions.size() == 1 &&
           std::memcmp(&response->predictions[0],
                       &refs->plan_seconds[m][spec.plan_id],
                       sizeof(double)) == 0;
      answered_rows += 1;
    } else {
      ok = response->predictions.size() == spec.row_ids.size();
      for (size_t i = 0; ok && i < spec.row_ids.size(); ++i) {
        ok = std::memcmp(&response->predictions[i],
                         &refs->row_seconds[m][spec.row_ids[i]],
                         sizeof(double)) == 0;
      }
      answered_rows += spec.row_ids.size();
    }
    if (!ok) {
      ++mismatches;
      if (mismatches <= 3) {
        result->Fail("served prediction differs from model version " +
                     std::to_string(version));
      }
    }
  }
};

/// Measurements of one serve_point slot at one rate.
struct SlotStats {
  uint64_t sent = 0;
  uint64_t failed = 0;
  std::vector<double> rows_ms;
  std::vector<double> plan_ms;
  std::vector<double> lag_us;
  std::vector<double> swap_ms;
  std::vector<uint64_t> backlog;  ///< Sampled every kBacklogSampleNs.
  bool backlog_grows = false;
  Distribution rows;
  Distribution plan;
};

/// One ladder rate, pooled over its slots.
struct RateStats {
  uint64_t sent = 0;
  uint64_t failed = 0;
  bool backlog_grows = false;
  uint64_t backlog_max = 0;
  std::vector<double> rows_ms, plan_ms, lag_us, swap_ms;
  Distribution rows, plan;

  void Add(const SlotStats& slot) {
    sent += slot.sent;
    failed += slot.failed;
    backlog_grows = backlog_grows || slot.backlog_grows;
    for (uint64_t b : slot.backlog) backlog_max = std::max(backlog_max, b);
    rows_ms.insert(rows_ms.end(), slot.rows_ms.begin(), slot.rows_ms.end());
    plan_ms.insert(plan_ms.end(), slot.plan_ms.begin(), slot.plan_ms.end());
    lag_us.insert(lag_us.end(), slot.lag_us.begin(), slot.lag_us.end());
    swap_ms.insert(swap_ms.end(), slot.swap_ms.begin(), slot.swap_ms.end());
  }

  void Finish() {
    rows = Summarize(rows_ms);
    plan = Summarize(plan_ms);
  }
};

struct OpenLoop {
  Session* session = nullptr;
  const std::vector<Spec>* specs = nullptr;
  Checker* checker = nullptr;
  Tracer* tracer = nullptr;
  RunResult* result = nullptr;
  std::string swap_paths[2];
  t3::Rng rng{1};
  size_t next_conn = 0;
  uint32_t swaps_sent = 0;
  double schedule_s = 0.0;  ///< Schedule time consumed by earlier calls.
  double next_swap_s = kSwapIntervalS / 2;
  uint32_t span_rows = 0, span_plan = 0, span_swap = 0, span_slot = 0;
};

/// Checks every whole reply on `conn` and files it under the slot its
/// request was scheduled in.
bool HandleReplies(OpenLoop* loop, Connection* conn, bool is_admin,
                   std::vector<SlotStats>* slots,
                   const std::vector<uint64_t>& slot_spans) {
  Frame frame;
  int status = 0;
  while ((status = NextFrame(conn, &frame)) == 1) {
    const int64_t now = NowNs();
    if (conn->pending.empty()) {
      loop->result->Fail("reply without a request");
      return false;
    }
    const Pending p = conn->pending.front();
    conn->pending.pop_front();
    SlotStats& slot = (*slots)[p.slot];
    const uint64_t span = slot_spans[p.slot];
    const double ms = static_cast<double>(now - p.due_ns) * 1e-6;
    if (is_admin) {
      t3::Result<uint32_t> version = t3::DecodeSwapResponse(frame);
      if (frame.type != MessageType::kSwapOk || !version.ok() ||
          *version != p.swap_version) {
        loop->result->Fail("swap to version " +
                           std::to_string(p.swap_version) + " failed");
        ++slot.failed;
        continue;
      }
      slot.swap_ms.push_back(ms);
      loop->tracer->Record(loop->span_swap, span, p.due_ns, now);
      continue;
    }
    const Spec& spec = (*loop->specs)[p.spec];
    const uint64_t failed_before = loop->checker->failed;
    loop->checker->Check(spec, frame);
    if (loop->checker->failed != failed_before) {
      ++slot.failed;
      continue;
    }
    if (spec.type == MessageType::kPredictPlan) {
      slot.plan_ms.push_back(ms);
      loop->tracer->Record(loop->span_plan, span, p.due_ns, now);
    } else {
      slot.rows_ms.push_back(ms);
      loop->tracer->Record(loop->span_rows, span, p.due_ns, now);
    }
  }
  if (status < 0) {
    loop->result->Fail("malformed reply frame");
    return false;
  }
  return true;
}

/// True when the backlog's last third sits well above its first third, i.e.
/// requests arrive faster than they are answered.
bool BacklogGrows(const std::vector<uint64_t>& samples) {
  if (samples.size() < 6) return false;
  const size_t third = samples.size() / 3;
  std::vector<double> head(samples.begin(), samples.begin() + third);
  std::vector<double> tail(samples.end() - third, samples.end());
  return Median(tail) > 4.0 * Median(head) + 16.0;
}

/// Runs one continuous open-loop schedule of consecutive `slot_s`-long slots,
/// slot k at Poisson rate `rates[k]`, then drains once. The rate switches at
/// each slot boundary without waiting for replies, so a backlog built in one
/// slot carries into the next. Every request is timed from its scheduled
/// send and counted in the slot it was scheduled in.
bool RunSchedule(OpenLoop* loop, const std::vector<double>& rates,
                 double slot_s, std::vector<SlotStats>* slots,
                 uint64_t parent_span) {
  Tracer* tracer = loop->tracer;
  Session* session = loop->session;
  const size_t num_slots = rates.size();
  slots->assign(num_slots, SlotStats());
  const int64_t slot_ns = static_cast<int64_t>(slot_s * 1e9);
  const int64_t start = NowNs();
  const int64_t end = start + slot_ns * static_cast<int64_t>(num_slots);
  auto slot_of = [&](int64_t t) {
    return static_cast<uint32_t>(std::min<int64_t>(
        (t - start) / slot_ns, static_cast<int64_t>(num_slots) - 1));
  };
  // The slots' spans cover their scheduled windows, so replies that arrive
  // later can still name them as parent.
  std::vector<uint64_t> slot_spans;
  for (size_t k = 0; k < num_slots; ++k) {
    const int64_t from = start + slot_ns * static_cast<int64_t>(k);
    slot_spans.push_back(
        tracer->Record(loop->span_slot, parent_span, from, from + slot_ns));
  }
  // Piecewise-constant Poisson arrivals: a gap that crosses a slot boundary
  // is drawn again from the boundary at the next slot's rate, which the
  // exponential's lack of memory makes exact.
  auto next_arrival = [&](int64_t from) {
    while (from < end) {
      const uint32_t k = slot_of(from);
      const int64_t boundary = start + slot_ns * (static_cast<int64_t>(k) + 1);
      const int64_t next =
          from + static_cast<int64_t>(-std::log1p(-loop->rng.Unit()) /
                                      rates[k] * 1e9);
      if (next < boundary) return next;
      from = boundary;
    }
    return end;
  };
  int64_t next_due = next_arrival(start);
  int64_t next_sample = start;
  uint64_t scheduled = 0;
  const uint64_t answered_base = loop->checker->answered;
  const uint64_t failed_base = loop->checker->failed;
  int64_t drain_deadline = 0;

  while (true) {
    int64_t now = NowNs();
    // Send everything due, each on the next connection round-robin.
    while (next_due <= now && next_due < end) {
      const uint32_t slot = slot_of(next_due);
      const uint32_t spec_index = static_cast<uint32_t>(loop->rng.UniformInt(
          0, static_cast<int64_t>(loop->specs->size()) - 1));
      Connection& conn = session->conns[loop->next_conn];
      loop->next_conn = (loop->next_conn + 1) % kNumConnections;
      Enqueue(&conn, (*loop->specs)[spec_index].wire);
      conn.pending.push_back(Pending{spec_index, next_due, 0, slot});
      (*slots)[slot].lag_us.push_back(static_cast<double>(NowNs() - next_due) *
                                      1e-3);
      ++scheduled;
      ++(*slots)[slot].sent;
      if (!Flush(&conn)) {
        loop->result->Fail("connection lost while sending");
        return false;
      }
      next_due = next_arrival(next_due);
      now = NowNs();
    }
    // One swap every kSwapIntervalS of schedule time, on its own connection.
    const double schedule_now =
        loop->schedule_s + static_cast<double>(now - start) * 1e-9;
    const bool swap_in_flight = !session->admin.pending.empty();
    if (!swap_in_flight && now < end && schedule_now >= loop->next_swap_s) {
      const uint32_t slot = slot_of(now);
      const std::string& path = loop->swap_paths[(loop->swaps_sent + 1) % 2];
      ++loop->swaps_sent;
      loop->next_swap_s += kSwapIntervalS;
      Enqueue(&session->admin,
              t3::EncodeFrame(
                  t3::EncodeTextFrame(MessageType::kSwapModel, path)));
      session->admin.pending.push_back(
          Pending{0, now, 1 + loop->swaps_sent, slot});
      loop->checker->max_version = 1 + loop->swaps_sent;
      ++(*slots)[slot].sent;
      if (!Flush(&session->admin)) {
        loop->result->Fail("admin connection lost");
        return false;
      }
    }
    if (now >= next_sample && now < end) {
      (*slots)[slot_of(now)].backlog.push_back(
          scheduled - (loop->checker->answered - answered_base) -
          (loop->checker->failed - failed_base));
      next_sample += kBacklogSampleNs;
    }
    bool idle = session->admin.pending.empty();
    for (const Connection& conn : session->conns) {
      idle = idle && conn.pending.empty();
    }
    if (now >= end) {
      if (idle) break;
      if (drain_deadline == 0) drain_deadline = now + kDrainTimeoutNs;
      if (now > drain_deadline) {
        uint64_t unanswered = session->admin.pending.size();
        for (const Connection& conn : session->conns) {
          unanswered += conn.pending.size();
        }
        loop->result->Fail(std::to_string(unanswered) +
                           " requests unanswered after the drain timeout");
        slots->back().failed += unanswered;
        return false;
      }
    }

    Connection* conns[kNumConnections + 1];
    for (size_t i = 0; i < kNumConnections; ++i) conns[i] = &session->conns[i];
    conns[kNumConnections] = &session->admin;
    int64_t wake = now + 1'000'000;
    if (now < end) wake = std::min(wake, next_sample);
    if (next_due < end) wake = std::min(wake, next_due);
    if (!PollOnce(conns, kNumConnections + 1, wake - NowNs(), loop->result,
                  [&](size_t i) {
                    return HandleReplies(loop, conns[i],
                                         i == kNumConnections, slots,
                                         slot_spans);
                  })) {
      return false;
    }
  }
  loop->schedule_s += slot_s * static_cast<double>(num_slots);
  for (SlotStats& slot : *slots) {
    slot.backlog_grows = BacklogGrows(slot.backlog);
    slot.rows = Summarize(slot.rows_ms);
    slot.plan = Summarize(slot.plan_ms);
  }
  return true;
}

/// What one closed-loop segment of serve_bulk measured.
struct ClosedStats {
  uint64_t sent = 0;
  std::vector<double> rows_ms;
  uint64_t rows_in_window = 0;  ///< Rows of requests sent inside the window.
  double window_s = 0.0;        ///< Start to the last in-window answer.
  uint64_t rows_answered = 0;   ///< Every answered row, drain included.
  double cpu_s = 0.0;           ///< Process CPU time, start to drained.
};

/// Closed loop for `seconds`: each connection keeps exactly one request in
/// flight, sending the next as soon as the previous is answered; then
/// drains.
bool RunClosedLoop(Session* session, const std::vector<Spec>& specs,
                   Checker* checker, t3::Rng* rng, Tracer* tracer,
                   double seconds, ClosedStats* out, RunResult* result) {
  const uint32_t span_rows = tracer->Name("server.rows_round_trip");
  const uint64_t root = tracer->Begin(tracer->Name("serve_bulk"), 0);
  auto send_next = [&](Connection* conn) {
    const uint32_t spec = static_cast<uint32_t>(
        rng->UniformInt(0, static_cast<int64_t>(specs.size()) - 1));
    Enqueue(conn, specs[spec].wire);
    conn->pending.push_back(Pending{spec, NowNs(), 0});
    ++out->sent;
    if (Flush(conn)) return true;
    result->Fail("connection lost while sending");
    return false;
  };
  const int64_t cpu_start = ProcessCpuNs();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t last_answer = start;
  for (Connection& conn : session->conns) {
    if (!send_next(&conn)) return false;
  }
  while (true) {
    bool idle = true;
    for (const Connection& conn : session->conns) {
      idle = idle && conn.pending.empty();
    }
    if (idle) break;
    if (NowNs() > end + kDrainTimeoutNs) {
      result->Fail("requests unanswered after the drain timeout");
      return false;
    }
    Connection* conns[kNumConnections];
    for (size_t i = 0; i < kNumConnections; ++i) conns[i] = &session->conns[i];
    auto on_input = [&](size_t i) {
      Connection* conn = conns[i];
      Frame frame;
      int status = 0;
      while ((status = NextFrame(conn, &frame)) == 1) {
        const int64_t done = NowNs();
        if (conn->pending.empty()) {
          result->Fail("reply without a request");
          return false;
        }
        const Pending p = conn->pending.front();
        conn->pending.pop_front();
        const uint64_t failed_before = checker->failed;
        checker->Check(specs[p.spec], frame);
        if (checker->failed == failed_before) {
          out->rows_ms.push_back(static_cast<double>(done - p.due_ns) * 1e-6);
          tracer->Record(span_rows, root, p.due_ns, done);
          out->rows_answered += specs[p.spec].row_ids.size();
          if (p.due_ns < end) {
            out->rows_in_window += specs[p.spec].row_ids.size();
            last_answer = done;
          }
        }
        if (done < end && !send_next(conn)) return false;
      }
      if (status < 0) {
        result->Fail("malformed reply frame");
        return false;
      }
      return true;
    };
    if (!PollOnce(conns, kNumConnections, 100'000'000, result, on_input)) {
      return false;
    }
  }
  out->cpu_s = static_cast<double>(ProcessCpuNs() - cpu_start) * 1e-9;
  tracer->End(root);
  out->window_s = static_cast<double>(last_answer - start) * 1e-9;
  if (out->rows_ms.empty() || out->window_s <= 0.0) {
    result->Fail("no request was answered");
    return false;
  }
  return true;
}

// --- In-process attribution of the served request path (trace mode) ---

/// Median over `repeats` of the mean cost (ns) of one call of `fn`, timing
/// `calls` calls per repeat.
template <typename Fn>
double NsPerCall(int repeats, size_t calls, Fn fn) {
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    const int64_t start = NowNs();
    for (size_t i = 0; i < calls; ++i) fn(i);
    samples.push_back(static_cast<double>(NowNs() - start) /
                      static_cast<double>(calls));
  }
  return Median(samples);
}

struct LayerCosts {
  double decode_us = 0.0;
  double encode_us = 0.0;
  double batch_request_us = 0.0;  ///< PredictBatch of one request's rows.
  double predict_ns = 0.0;
  double batch_ns_per_row = 0.0;
  double compile_ms = 0.0;
  double validate_ms = 0.0;
  double load_ms = 0.0;
  double forest_diff_ms = 0.0;
  double parse_decompose_us = 0.0;
  double featurize_us = 0.0;
  double pipelines_per_plan = 0.0;
  bool simd = false;
};

/// Times, outside the server, each layer one kPredictRows request of the
/// workload crosses, on the workload's own frames, plus the model-swap
/// layers. Every call is also recorded as a span under `parent`.
bool MeasureLayers(const Args& args, const Inputs& inputs,
                   const std::vector<Spec>& specs, double rows_per_batch,
                   Tracer* tracer, uint64_t parent, RunResult* result,
                   LayerCosts* costs) {
  std::vector<Frame> frames;
  size_t total_rows = 0;
  for (const Spec& spec : specs) {
    if (spec.type != MessageType::kPredictRows) continue;
    t3::Result<Frame> frame = t3::DecodeFrame(spec.wire.data(),
                                              spec.wire.size());
    if (!frame.ok()) {
      result->Fail("re-decoding a request: " + frame.status().ToString());
      return false;
    }
    frames.push_back(*std::move(frame));
    total_rows += spec.row_ids.size();
  }
  const size_t rows_per_request = std::max<size_t>(
      1, (total_rows + frames.size() / 2) / frames.size());

  const std::string path_a = args.repo_root + "/" + kModelA;
  int64_t t0 = NowNs();
  t3::Result<t3::T3Model> model = t3::T3Model::LoadFromFile(path_a);
  int64_t t1 = NowNs();
  tracer->Record(tracer->Name("model.load"), parent, t0, t1);
  if (!model.ok()) {
    result->Fail("load: " + model.status().ToString());
    return false;
  }
  costs->load_ms = static_cast<double>(t1 - t0) * 1e-6;

  t3::Result<t3::T3Model> reparsed = t3::T3Model::LoadFromFile(path_a);
  t0 = NowNs();
  t3::Result<t3::ForestDiffBounds> diff =
      t3::ForestDiff(model->forest(), reparsed->forest());
  t1 = NowNs();
  tracer->Record(tracer->Name("analysis.forest_diff"), parent, t0, t1);
  if (!diff.ok() || diff->MaxAbs() != 0.0) {
    result->Fail("fixture does not diff to zero against itself");
    return false;
  }
  costs->forest_diff_ms = static_cast<double>(t1 - t0) * 1e-6;

  t0 = NowNs();
  t3::Result<std::unique_ptr<t3::CompiledForest>> compiled =
      t3::CompiledForest::Compile(model->forest());
  t1 = NowNs();
  tracer->Record(tracer->Name("treejit.compile"), parent, t0, t1);
  if (!compiled.ok()) {
    result->Fail("compile: " + compiled.status().ToString());
    return false;
  }
  costs->compile_ms = static_cast<double>(t1 - t0) * 1e-6;
  t3::JitCompileOptions checked;
  checked.audit = true;
  checked.validate_translation = true;
  checked.validate_batch = true;
  t0 = NowNs();
  t3::Result<std::unique_ptr<t3::CompiledForest>> validated =
      t3::CompiledForest::Compile(model->forest(), checked);
  t1 = NowNs();
  tracer->Record(tracer->Name("treejit.compile_validated"), parent, t0, t1);
  if (!validated.ok()) {
    result->Fail("validated compile: " + validated.status().ToString());
    return false;
  }
  costs->validate_ms =
      std::max(static_cast<double>(t1 - t0) * 1e-6 - costs->compile_ms, 0.0);
  const t3::CompiledForest& forest = **compiled;
  costs->simd = forest.has_batch_kernels() && t3::BatchKernelsEnabled();

  // The protocol layer on this workload's own frames.
  std::vector<t3::PredictRowsRequest> decoded(frames.size());
  t0 = NowNs();
  costs->decode_us = 1e-3 * NsPerCall(5, frames.size(), [&](size_t i) {
    t3::Result<t3::PredictRowsRequest> request =
        t3::DecodePredictRows(frames[i]);
    decoded[i] = *std::move(request);
  });
  tracer->Record(tracer->Name("server.decode"), parent, t0, NowNs());
  std::vector<t3::PredictResponse> responses(frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    responses[i].model_version = 1;
    responses[i].predictions.resize(decoded[i].num_rows());
    forest.PredictBatch(decoded[i].rows.data(), decoded[i].num_rows(),
                        decoded[i].num_features,
                        responses[i].predictions.data());
  }
  size_t encoded_bytes = 0;
  t0 = NowNs();
  costs->encode_us = 1e-3 * NsPerCall(5, frames.size(), [&](size_t i) {
    encoded_bytes +=
        t3::EncodeFrame(t3::EncodePredictResponse(responses[i])).size();
  });
  tracer->Record(tracer->Name("server.encode"), parent, t0, NowNs());

  // treejit: one row at a time, and batches of the observed batch size.
  volatile double sink = 0.0;
  t0 = NowNs();
  costs->predict_ns = NsPerCall(5, 20000, [&](size_t i) {
    sink = sink + forest.Predict(inputs.row(i % inputs.num_rows()));
  });
  tracer->Record(tracer->Name("treejit.predict"), parent, t0, NowNs());
  auto batch_cost_ns = [&](size_t batch) {
    std::vector<double> matrix;
    for (size_t r = 0; r < batch; ++r) {
      const double* row = inputs.row(r % inputs.num_rows());
      matrix.insert(matrix.end(), row, row + inputs.num_features);
    }
    std::vector<double> out(batch);
    const size_t calls = std::max<size_t>(1, 200000 / batch);
    return NsPerCall(5, calls, [&](size_t) {
      forest.PredictBatch(matrix.data(), batch, inputs.num_features,
                          out.data());
      sink = sink + out[0];
    });
  };
  const size_t batch = std::max<size_t>(
      1, static_cast<size_t>(std::lround(rows_per_batch)));
  t0 = NowNs();
  costs->batch_ns_per_row = batch_cost_ns(batch) / static_cast<double>(batch);
  costs->batch_request_us = 1e-3 * batch_cost_ns(rows_per_request);
  tracer->Record(tracer->Name("treejit.predict_batch"), parent, t0, NowNs());

  // plan + features: the kPredictPlan path's server-side work.
  std::vector<t3::PhysicalPlan> plans;
  std::vector<t3::PipelineDecomposition> decompositions;
  t0 = NowNs();
  for (const std::string& text : inputs.plans) {
    t3::Result<std::vector<t3::PlanNodeRecord>> records =
        t3::ParsePlanText(text);
    if (!records.ok()) {
      result->Fail("plan parse: " + records.status().ToString());
      return false;
    }
    t3::Result<t3::PhysicalPlan> plan = t3::PlanFromRecords(*records);
    if (!plan.ok()) {
      result->Fail("plan build: " + plan.status().ToString());
      return false;
    }
    t3::Result<t3::PipelineDecomposition> decomposition =
        t3::DecomposePipelines(*plan);
    if (!decomposition.ok()) {
      result->Fail("decompose: " + decomposition.status().ToString());
      return false;
    }
    plans.push_back(*std::move(plan));
    decompositions.push_back(*std::move(decomposition));
  }
  t1 = NowNs();
  tracer->Record(tracer->Name("plan.parse_decompose"), parent, t0, t1);
  costs->parse_decompose_us =
      static_cast<double>(t1 - t0) * 1e-3 / static_cast<double>(plans.size());
  const t3::Catalog empty_catalog;
  size_t pipelines = 0;
  t0 = NowNs();
  for (size_t i = 0; i < plans.size(); ++i) {
    t3::Result<std::vector<t3::PipelineFeatureVector>> features =
        t3::ComputePipelineFeatures(empty_catalog, plans[i],
                                    decompositions[i],
                                    t3::NodeOutputRowsFromPlan(plans[i]));
    if (!features.ok()) {
      result->Fail("featurize: " + features.status().ToString());
      return false;
    }
    pipelines += features->size();
  }
  t1 = NowNs();
  tracer->Record(tracer->Name("features.featurize"), parent, t0, t1);
  costs->featurize_us =
      static_cast<double>(t1 - t0) * 1e-3 / static_cast<double>(plans.size());
  costs->pipelines_per_plan =
      static_cast<double>(pipelines) / static_cast<double>(plans.size());
  if (encoded_bytes == 0 || sink != sink) result->Fail("no work was timed");
  return true;
}

/// Stops the server, checks its counters against what the generator saw,
/// and fills the server.* layer metrics shared by both workloads.
void FinishSession(Session* session, const Checker& checker,
                   RunResult* result, t3::ServerStats* stats) {
  *stats = session->server->stats();
  session->server->Stop();
  if (stats->predict_requests != checker.answered + checker.failed) {
    result->Fail("server counted " + std::to_string(stats->predict_requests) +
                 " prediction requests, the generator " +
                 std::to_string(checker.answered + checker.failed));
  }
  if (stats->protocol_errors != 0) {
    result->Fail(std::to_string(stats->protocol_errors) + " protocol errors");
  }
  if (checker.mismatches != 0) {
    result->Fail(std::to_string(checker.mismatches) +
                 " replies differ from their model version");
  }
}

void AddServerLayerMetrics(const t3::ServerStats& stats,
                           const LayerCosts& costs, double rows_p50_ms,
                           RunResult* result) {
  result->Add("server.rows_per_batch", stats.batcher.RowsPerBatch(), "rows");
  result->Add("server.max_batch_rows",
              static_cast<double>(stats.batcher.max_batch_rows_seen), "rows");
  const double in_process_us =
      costs.decode_us + costs.batch_request_us + costs.encode_us;
  result->Add("server.handoff_us", rows_p50_ms * 1e3 - in_process_us, "us");
  result->Add("server.decode_us", costs.decode_us, "us");
  result->Add("server.encode_us", costs.encode_us, "us");
  result->Add("server.protocol_errors",
              static_cast<double>(stats.protocol_errors), "count");
  result->Add("treejit.batch_ns_per_row", costs.batch_ns_per_row, "ns");
  result->Add("treejit.predict_ns", costs.predict_ns, "ns");
  result->Add("treejit.compile_ms", costs.compile_ms, "ms");
  result->Add("treejit.simd", costs.simd ? 1.0 : 0.0, "bool");
  result->Add("analysis.forest_diff_ms", costs.forest_diff_ms, "ms");
  result->Add("analysis.validate_ms", costs.validate_ms, "ms");
  result->Add("model.load_ms", costs.load_ms, "ms");
  result->Add("plan.parse_decompose_us", costs.parse_decompose_us, "us");
  result->Add("features.featurize_us", costs.featurize_us, "us");
  result->Add("features.pipelines_per_plan", costs.pipelines_per_plan,
              "count");
}

/// Everything both serving workloads prepare before measuring.
struct Prepared {
  Inputs inputs;
  References refs;
  std::vector<Spec> specs;
  t3::QErrorSummary accuracy;
  Session session;
  std::vector<double> setup_wall_s, setup_cpu_s;
};

bool Prepare(const Args& args, bool bulk, RunResult* result,
             Prepared* prepared) {
  if (!MeasureMiniAccuracy(args, result, &prepared->accuracy)) return false;
  if (!BuildInputs(args, result, &prepared->inputs)) return false;
  if (!BuildReferences(args, prepared->inputs, result, &prepared->refs)) {
    return false;
  }
  t3::Rng rng(args.seed * 0x9E3779B97F4A7C15ull + (bulk ? 2 : 1));
  prepared->specs = bulk ? MakeBulkSpecs(prepared->inputs, &rng)
                         : MakePointSpecs(prepared->inputs, &rng);
  return SetUp(args, result, &prepared->session, &prepared->setup_wall_s,
               &prepared->setup_cpu_s);
}

/// After the load: the second half of the set-up repeats. Returns setup_s,
/// the median over both halves, or a negative value on failure.
double FinishSetUp(const Args& args, RunResult* result, Prepared* prepared) {
  prepared->session = Session();
  if (!SetUp(args, result, &prepared->session, &prepared->setup_wall_s,
             &prepared->setup_cpu_s)) {
    return -1.0;
  }
  prepared->session.server->Stop();
  NoteSetup(prepared->setup_wall_s, prepared->setup_cpu_s, result);
  return Median(prepared->setup_wall_s);
}

}  // namespace

RunResult RunServePoint(const Args& args) {
  RunResult result;
  Tracer tracer(args.trace);
  Prepared prepared;
  if (!Prepare(args, /*bulk=*/false, &result, &prepared)) return result;

  Checker checker;
  checker.specs = &prepared.specs;
  checker.refs = &prepared.refs;
  checker.result = &result;
  OpenLoop loop;
  loop.session = &prepared.session;
  loop.specs = &prepared.specs;
  loop.checker = &checker;
  loop.tracer = &tracer;
  loop.result = &result;
  loop.swap_paths[0] = args.repo_root + "/" + kModelA;
  loop.swap_paths[1] = args.repo_root + "/" + kModelB;
  loop.rng = t3::Rng(args.seed * 0xD1B54A32D192ED03ull + 7);
  loop.span_rows = tracer.Name("server.rows_round_trip");
  loop.span_plan = tracer.Name("server.plan_round_trip");
  loop.span_swap = tracer.Name("server.swap_round_trip");
  loop.span_slot = tracer.Name("bench.slot");

  // Trace mode first runs the nominal rate untraced for a quarter of the
  // run, the reference the tracing overhead is measured against.
  SlotStats reference;
  bool ok = true;
  if (args.trace) {
    tracer.set_enabled(false);
    std::vector<SlotStats> slots;
    ok = RunSchedule(&loop, {kNominalRate}, args.seconds / kNumRates, &slots,
                     0);
    reference = slots.front();
    tracer.set_enabled(true);
  }
  const uint64_t root = tracer.Begin(tracer.Name("serve_point"), 0);
  std::vector<double> ladder;
  for (size_t slot = 0; slot < kNumSlots; ++slot) {
    ladder.push_back(kRates[SlotRate(slot)]);
  }
  std::vector<SlotStats> slots;
  const int64_t cpu_start = ProcessCpuNs();
  const int64_t ladder_start = NowNs();
  const uint64_t answered_before = checker.answered;
  ok = ok && RunSchedule(&loop, ladder, args.seconds / kNumSlots, &slots,
                         root);
  const double ladder_s = static_cast<double>(NowNs() - ladder_start) * 1e-9;
  const double cpu_s = static_cast<double>(ProcessCpuNs() - cpu_start) * 1e-9;
  const uint64_t answered = checker.answered - answered_before;
  std::vector<RateStats> rates(kNumRates);
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    rates[SlotRate(slot)].Add(slots[slot]);
  }
  tracer.End(root);
  t3::ServerStats stats;
  FinishSession(&prepared.session, checker, &result, &stats);
  if (!ok) return result;
  const double setup_s = FinishSetUp(args, &result, &prepared);
  if (setup_s < 0.0) return result;

  const RateStats* nominal = nullptr;
  double max_rate = 0.0;
  // A wrong answer counts as a failed request.
  uint64_t sent = reference.sent;
  uint64_t failed = reference.failed + checker.mismatches;
  uint64_t backlog_max = 0;
  std::vector<double> swap_ms, lag_us;
  for (size_t r = 0; r < kNumRates; ++r) {
    RateStats& rate = rates[r];
    rate.Finish();
    if (kRates[r] == kNominalRate) nominal = &rate;
    const bool meets = rate.failed == 0 && !rate.backlog_grows &&
                       rate.rows.tail <= kP99LimitMs;
    if (meets) max_rate = std::max(max_rate, kRates[r]);
    sent += rate.sent;
    failed += rate.failed;
    backlog_max = std::max(backlog_max, rate.backlog_max);
    swap_ms.insert(swap_ms.end(), rate.swap_ms.begin(), rate.swap_ms.end());
    lag_us.insert(lag_us.end(), rate.lag_us.begin(), rate.lag_us.end());
    char line[320];
    std::snprintf(line, sizeof(line),
                  "rate %.0f req/s: rows p50 %.4g ms, %s %.4g ms (n=%zu); "
                  "plan p50 %.4g ms, %s %.4g ms (n=%zu); swaps %zu; backlog "
                  "%s; %s the %.1f ms limit",
                  kRates[r], rate.rows.p50, rate.rows.TailName().c_str(),
                  rate.rows.tail, rate.rows.n, rate.plan.p50,
                  rate.plan.TailName().c_str(), rate.plan.tail, rate.plan.n,
                  rate.swap_ms.size(), rate.backlog_grows ? "grows" : "steady",
                  meets ? "meets" : "misses", kP99LimitMs);
    result.Note(line);
  }
  result.attempted = sent;
  result.failed = failed;
  const Distribution swaps = Summarize(swap_ms);
  const Distribution lag = Summarize(lag_us);

  result.NoteDistribution("rows", nominal->rows, "ms");
  result.NoteDistribution("plan", nominal->plan, "ms");
  result.NoteDistribution("server.swap", swaps, "ms");
  result.NoteDistribution("bench.gen_lag", lag, "us");
  char line[256];
  std::snprintf(line, sizeof(line),
                "max_rate_rps %.0f 1/s (ladder 2500/5000/10000/20000 req/s, "
                "limit rows p99 <= %.1f ms with a steady backlog)%s",
                max_rate, kP99LimitMs,
                max_rate == 0.0 ? ": no ladder rate meets the limit" : "");
  result.Note(line);
  std::snprintf(line, sizeof(line), "failed_frac %.6g (%llu of %llu sent)",
                sent == 0 ? 0.0 : static_cast<double>(failed) / sent,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(sent));
  result.Note(line);

  const double answered_per_s = static_cast<double>(answered) / ladder_s;
  const double cpu_us_per_op = NoteWork("requests", answered, ladder_s, cpu_s,
                                        &result);

  if (!args.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("cpu_us_per_op", cpu_us_per_op, "us");
    result.Add("answered_frac",
               sent == 0 ? 0.0 : 1.0 - static_cast<double>(failed) / sent,
               "ratio");
    AddAccuracyMetrics(prepared.accuracy, &result);
    return result;
  }
  LayerCosts costs;
  const uint64_t layers = tracer.Begin(tracer.Name("bench.layers"), 0);
  if (!MeasureLayers(args, prepared.inputs, prepared.specs,
                     stats.batcher.RowsPerBatch(), &tracer, layers, &result,
                     &costs)) {
    return result;
  }
  tracer.End(layers);
  AddServerLayerMetrics(stats, costs, nominal->rows.p50, &result);
  result.Add("bench.throughput_per_s", answered_per_s, "1/s");
  result.Add("serve.rows_p50_ms", nominal->rows.p50, "ms");
  result.Add("serve.rows_p90_ms", nominal->rows.p90, "ms");
  result.Add("serve.rows_p99_ms", nominal->rows.tail, "ms");
  result.Add("serve.plan_p50_ms", nominal->plan.p50, "ms");
  result.Add("serve.plan_p99_ms", nominal->plan.tail, "ms");
  result.Add("serve.max_rate_rps", max_rate, "1/s");
  result.Add("server.swap_p50_ms", swaps.p50, "ms");
  result.Add("server.swap_max_ms", swaps.max, "ms");
  result.Add("server.backlog_max", static_cast<double>(backlog_max),
             "count");
  result.Add("bench.gen_lag_p99_us", lag.tail, "us");
  AddTraceOverhead(reference.rows.p50, nominal->rows.p50, &result);
  if (!tracer.WriteJson(args.trace_out)) result.Fail("cannot write trace");
  return result;
}

RunResult RunServeBulk(const Args& args) {
  RunResult result;
  Tracer tracer(args.trace);
  Prepared prepared;
  if (!Prepare(args, /*bulk=*/true, &result, &prepared)) return result;

  Checker checker;
  checker.specs = &prepared.specs;
  checker.refs = &prepared.refs;
  checker.result = &result;
  t3::Rng rng(args.seed * 0xD1B54A32D192ED03ull + 11);
  // Trace mode first runs a quarter-length untraced reference, the baseline
  // of the tracing overhead.
  ClosedStats reference;
  bool ok = true;
  if (args.trace) {
    tracer.set_enabled(false);
    ok = RunClosedLoop(&prepared.session, prepared.specs, &checker, &rng,
                       &tracer, args.seconds / 4, &reference, &result);
    tracer.set_enabled(true);
  }
  ClosedStats run;
  ok = ok && RunClosedLoop(&prepared.session, prepared.specs, &checker, &rng,
                           &tracer, args.seconds, &run, &result);
  t3::ServerStats stats;
  FinishSession(&prepared.session, checker, &result, &stats);
  if (!ok) return result;
  const double setup_s = FinishSetUp(args, &result, &prepared);
  if (setup_s < 0.0) return result;
  const uint64_t sent = reference.sent + run.sent;
  // A wrong answer counts as a failed request.
  const uint64_t failed = checker.failed + checker.mismatches;
  result.attempted = sent;
  result.failed = failed;
  const Distribution rows = Summarize(run.rows_ms);
  const double preds_per_s =
      static_cast<double>(run.rows_in_window) / run.window_s;
  result.NoteDistribution("rows", rows, "ms");
  char line[160];
  std::snprintf(line, sizeof(line),
                "preds_per_s %.6g 1/s (%llu rows over %.3f s)", preds_per_s,
                static_cast<unsigned long long>(run.rows_in_window),
                run.window_s);
  result.Note(line);
  const double cpu_us_per_op = NoteWork("predictions", run.rows_answered,
                                        run.window_s, run.cpu_s, &result);
  std::snprintf(line, sizeof(line), "failed_frac %.6g (%llu of %llu sent)",
                sent == 0 ? 0.0 : static_cast<double>(failed) / sent,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(sent));
  result.Note(line);

  if (!args.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("cpu_us_per_op", cpu_us_per_op, "us");
    result.Add("answered_frac",
               sent == 0 ? 0.0 : 1.0 - static_cast<double>(failed) / sent,
               "ratio");
    AddAccuracyMetrics(prepared.accuracy, &result);
    return result;
  }
  LayerCosts costs;
  const uint64_t layers = tracer.Begin(tracer.Name("bench.layers"), 0);
  if (!MeasureLayers(args, prepared.inputs, prepared.specs,
                     stats.batcher.RowsPerBatch(), &tracer, layers, &result,
                     &costs)) {
    return result;
  }
  tracer.End(layers);
  AddServerLayerMetrics(stats, costs, rows.p50, &result);
  result.Add("bench.throughput_per_s", preds_per_s, "1/s");
  result.Add("serve.rows_p50_ms", rows.p50, "ms");
  result.Add("serve.rows_p90_ms", rows.p90, "ms");
  result.Add("serve.rows_p99_ms", rows.tail, "ms");
  AddTraceOverhead(Summarize(reference.rows_ms).p50, rows.p50, &result);
  if (!tracer.WriteJson(args.trace_out)) result.Fail("cannot write trace");
  return result;
}

}  // namespace t3bench
