// Prediction-server battery: wire-protocol goldens and strict rejection,
// end-to-end bit-exactness against the direct model call, client
// misbehavior (disconnects, malformed frames), and the hot-swap contract
// (zero dropped requests, per-version bit-matching) under concurrent load.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/file_util.h"
#include "common/net.h"
#include "common/random.h"
#include "common/string_util.h"
#include "gbt/forest.h"
#include "harness/corpus.h"
#include "model/t3_model.h"
#include "server/client.h"
#include "server/plan_features.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/serving_model.h"
#include "treejit/quick_scorer.h"

namespace t3 {
namespace {

// --- Shared fixtures: small hand-built random forests (the treejit-test
// idiom) wrapped as serving models. ---

TreeNode RandomLeaf(Rng* rng) {
  TreeNode leaf;
  leaf.is_leaf = true;
  leaf.value = rng->UniformDouble(-10, 10);
  return leaf;
}

// A split on a random feature and threshold; the caller sets its children.
TreeNode RandomSplit(Rng* rng, int num_features) {
  TreeNode split;
  split.feature = static_cast<int>(rng->UniformInt(0, num_features - 1));
  split.threshold = 0.25 * rng->UniformInt(-8, 8);
  split.default_left = rng->Bernoulli(0.5);
  return split;
}

int BuildRandomSubtree(Tree* tree, Rng* rng, int num_features, int depth) {
  const int index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  if (depth <= 0 || rng->Bernoulli(0.3)) {
    tree->nodes[index] = RandomLeaf(rng);
    return index;
  }
  TreeNode split = RandomSplit(rng, num_features);
  split.left = BuildRandomSubtree(tree, rng, num_features, depth - 1);
  split.right = BuildRandomSubtree(tree, rng, num_features, depth - 1);
  tree->nodes[index] = split;
  return index;
}

// A random subtree with exactly `num_leaves` leaves, split as evenly as
// possible.
int BuildSubtreeWithLeaves(Tree* tree, Rng* rng, int num_features, int num_leaves) {
  const int index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  if (num_leaves == 1) {
    tree->nodes[index] = RandomLeaf(rng);
    return index;
  }
  TreeNode split = RandomSplit(rng, num_features);
  split.left = BuildSubtreeWithLeaves(tree, rng, num_features, num_leaves / 2);
  split.right = BuildSubtreeWithLeaves(tree, rng, num_features,
                                       num_leaves - num_leaves / 2);
  tree->nodes[index] = split;
  return index;
}

Forest MakeRandomForest(uint64_t seed, int num_features, int num_trees) {
  Rng rng(seed);
  Forest forest;
  forest.num_features = num_features;
  forest.base_score = rng.UniformDouble(-5, 5);
  for (int t = 0; t < num_trees; ++t) {
    Tree tree;
    BuildRandomSubtree(&tree, &rng, num_features, 5);
    forest.trees.push_back(std::move(tree));
  }
  return forest;
}

T3Model MakeRandomModel(
    uint64_t seed, int num_features, int num_trees,
    PredictionTarget target = PredictionTarget::kPerTuple) {
  return T3Model(MakeRandomForest(seed, num_features, num_trees), target);
}

// Version 1 of MakeRandomModel(seed, ...) as a serving snapshot; call it
// under ASSERT_NO_FATAL_FAILURE.
void MakeTestServingModel(uint64_t seed, int num_features, int num_trees,
                          std::shared_ptr<const ServingModel>* out) {
  Result<std::shared_ptr<const ServingModel>> serving = MakeServingModel(
      MakeRandomModel(seed, num_features, num_trees), 1,
      StrFormat("test:%llu", static_cast<unsigned long long>(seed)));
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  *out = *std::move(serving);
}

PredictRowsRequest MakeRandomRequest(uint64_t seed, size_t num_rows,
                                     int num_features) {
  Rng rng(seed);
  PredictRowsRequest request;
  request.num_features = static_cast<uint32_t>(num_features);
  request.rows.resize(num_rows * static_cast<size_t>(num_features));
  for (double& value : request.rows) {
    value = 0.25 * static_cast<double>(rng.UniformInt(-8, 8));
  }
  request.input_cardinalities.resize(num_rows);
  for (double& card : request.input_cardinalities) {
    card = static_cast<double>(rng.UniformInt(0, 100000));
  }
  return request;
}

ServerOptions TestServerOptions() {
  ServerOptions options;
  options.port = 0;  // Ephemeral: tests never race over a fixed port.
  options.num_workers = 2;
  return options;
}

// --- Wire-protocol goldens ---

TEST(ProtocolTest, FrameHeaderGolden) {
  Frame frame;
  frame.type = MessageType::kStats;
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  const uint8_t golden[kFrameHeaderBytes] = {'t', '3', 'p', '1',  // magic
                                             4,   0,              // type/flags
                                             0,   0,              // reserved
                                             0,   0,   0,   0};   // length LE
  EXPECT_EQ(std::memcmp(bytes.data(), golden, kFrameHeaderBytes), 0);

  Result<Frame> decoded = DecodeFrame(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MessageType::kStats);
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(ProtocolTest, PredictRowsRoundTripsBitExact) {
  const PredictRowsRequest request = MakeRandomRequest(7, 5, 48);
  const std::vector<uint8_t> bytes = EncodeFrame(EncodePredictRows(request));
  Result<Frame> frame = DecodeFrame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  Result<PredictRowsRequest> decoded = DecodePredictRows(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_features, request.num_features);
  // Doubles travel as IEEE-754 bit patterns: the round trip is bit-exact,
  // not approximately equal.
  ASSERT_EQ(decoded->rows.size(), request.rows.size());
  EXPECT_EQ(std::memcmp(decoded->rows.data(), request.rows.data(),
                        request.rows.size() * sizeof(double)),
            0);
  ASSERT_EQ(decoded->input_cardinalities.size(),
            request.input_cardinalities.size());
  EXPECT_EQ(std::memcmp(decoded->input_cardinalities.data(),
                        request.input_cardinalities.data(),
                        request.input_cardinalities.size() * sizeof(double)),
            0);
}

TEST(ProtocolTest, PredictResponseRoundTripsBitExact) {
  PredictResponse response;
  response.model_version = 42;
  response.predictions = {1.5e-6, 0.25, 3.0e4, -0.0};
  const std::vector<uint8_t> bytes =
      EncodeFrame(EncodePredictResponse(response));
  Result<Frame> frame = DecodeFrame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok());
  Result<PredictResponse> decoded = DecodePredictResponse(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->model_version, 42u);
  ASSERT_EQ(decoded->predictions.size(), response.predictions.size());
  EXPECT_EQ(std::memcmp(decoded->predictions.data(),
                        response.predictions.data(),
                        response.predictions.size() * sizeof(double)),
            0);
}

std::vector<uint64_t> BitsOf(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), sizeof(double) * values.size());
  return bits;
}

// Doubles travel as bulk copies of their bit patterns, so every IEEE-754
// special value survives both message kinds bit for bit — NaN payloads and
// signalling NaNs included — and the wire carries each one little-endian.
TEST(ProtocolTest, SpecialDoublesRoundTripBitExact) {
  const std::vector<uint64_t> patterns = {
      0x8000000000000000,  // -0.0
      0x7FF0000000000000,  // +inf
      0xFFF0000000000000,  // -inf
      0x0000000000000001,  // smallest subnormal
      0x800FFFFFFFFFFFFF,  // largest-magnitude negative subnormal
      0x7FF8000000000000,  // quiet NaN
      0xFFF8DEADBEEF0001,  // negative quiet NaN with payload bits
      0x7FF0000000000001,  // signalling NaN
      0x7FF4C0FFEE123456,  // signalling NaN with payload bits
  };
  std::vector<double> values(patterns.size());
  std::memcpy(values.data(), patterns.data(), sizeof(double) * values.size());

  PredictRowsRequest request;
  request.num_features = static_cast<uint32_t>(patterns.size());
  request.rows = values;
  request.input_cardinalities = {values[8]};
  const Frame frame = EncodePredictRows(request);
  ASSERT_EQ(frame.payload.size(), 8 + 8 * (patterns.size() + 1));
  for (size_t i = 0; i < patterns.size(); ++i) {
    for (size_t b = 0; b < 8; ++b) {
      EXPECT_EQ(frame.payload[8 + 8 * i + b],
                static_cast<uint8_t>(patterns[i] >> (8 * b)))
          << "value " << i << " byte " << b;
    }
  }
  Result<PredictRowsRequest> rows = DecodePredictRows(frame);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(BitsOf(rows->rows), patterns);
  EXPECT_EQ(BitsOf(rows->input_cardinalities),
            std::vector<uint64_t>{patterns[8]});

  PredictResponse response;
  response.model_version = 3;
  response.predictions = values;
  Result<PredictResponse> decoded =
      DecodePredictResponse(EncodePredictResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(BitsOf(decoded->predictions), patterns);
}

TEST(ProtocolTest, ErrorResponseRoundTrips) {
  const Frame frame =
      EncodeErrorResponse(FailedPreconditionError("swap rejected"));
  Result<ErrorResponse> decoded = DecodeErrorResponse(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(decoded->message, "swap rejected");
}

TEST(ProtocolTest, RejectsBadHeaders) {
  const std::vector<uint8_t> good = EncodeFrame(Frame{
      MessageType::kStats, {}});

  {
    std::vector<uint8_t> bad = good;
    bad[0] = 'x';  // Bad magic.
    EXPECT_FALSE(DecodeFrameHeader(bad.data()).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[4] = 99;  // Unknown message type.
    EXPECT_FALSE(DecodeFrameHeader(bad.data()).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[5] = 1;  // Nonzero flags.
    EXPECT_FALSE(DecodeFrameHeader(bad.data()).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    bad[6] = 1;  // Nonzero reserved.
    EXPECT_FALSE(DecodeFrameHeader(bad.data()).ok());
  }
  {
    std::vector<uint8_t> bad = good;
    // Payload length over the cap.
    const uint32_t huge = kMaxPayloadBytes + 1;
    std::memcpy(bad.data() + 8, &huge, sizeof(huge));
    EXPECT_FALSE(DecodeFrameHeader(bad.data()).ok());
  }
  EXPECT_TRUE(DecodeFrameHeader(good.data()).ok());
}

TEST(ProtocolTest, RejectsTruncatedAndTrailingBytes) {
  const std::vector<uint8_t> bytes =
      EncodeFrame(EncodePredictRows(MakeRandomRequest(11, 2, 4)));
  // Truncated: every strict prefix fails.
  EXPECT_FALSE(DecodeFrame(bytes.data(), bytes.size() - 1).ok());
  EXPECT_FALSE(DecodeFrame(bytes.data(), kFrameHeaderBytes).ok());
  // Trailing: extra bytes after the declared payload fail.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(DecodeFrame(padded.data(), padded.size()).ok());
}

TEST(ProtocolTest, RejectsOversizedRowCounts) {
  PredictRowsRequest request = MakeRandomRequest(13, 1, 4);
  Frame frame = EncodePredictRows(request);
  // Corrupt the row count beyond the cap; the decoder must reject before
  // allocating.
  const uint32_t huge_rows = kMaxRowsPerRequest + 1;
  std::memcpy(frame.payload.data(), &huge_rows, sizeof(huge_rows));
  EXPECT_FALSE(DecodePredictRows(frame).ok());

  // A payload shorter than its own row count promises is rejected too.
  Frame truncated = EncodePredictRows(request);
  truncated.payload.resize(truncated.payload.size() - 8);
  EXPECT_FALSE(DecodePredictRows(truncated).ok());
}

// --- End-to-end: the served prediction bit-matches the direct model call ---

TEST(PredictionServerTest, PredictRowsBitMatchesDirectModel) {
  const int kFeatures = 16;
  const T3Model reference = MakeRandomModel(101, kFeatures, 20);
  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(101, kFeatures, 20, &serving));
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (uint64_t seed = 0; seed < 5; ++seed) {
    const PredictRowsRequest request =
        MakeRandomRequest(200 + seed, 17, kFeatures);
    Result<PredictResponse> response = client->PredictRows(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->model_version, 1u);
    ASSERT_EQ(response->predictions.size(), request.num_rows());
    for (size_t i = 0; i < request.num_rows(); ++i) {
      const double expected = reference.PredictPipelineSeconds(
          request.rows.data() + i * kFeatures,
          request.input_cardinalities[i]);
      // Bit-exact, not approximately: the whole serving path (batching,
      // SIMD evaluators, wire encoding) must not perturb a single ULP.
      EXPECT_EQ(response->predictions[i], expected) << "row " << i;
    }
  }
  (*server)->Stop();
}

TEST(PredictionServerTest, PredictPlanMatchesPipelineSum) {
  const T3Model reference = MakeRandomModel(303, 48, 12);
  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(303, 48, 12, &serving));
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Result<std::string> plan_text = ReadFileToString(
      std::string(T3_SOURCE_DIR) + "/data/plan_agg_golden.txt");
  ASSERT_TRUE(plan_text.ok()) << plan_text.status().ToString();

  // The expected value through the library path: featurize the skeleton,
  // then sum the per-pipeline predictions in pipeline order (a per-tuple
  // model's query rule).
  Result<PlanPredictionInput> input = BuildPlanPredictionInput(*plan_text);
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  ASSERT_GT(input->num_rows(), 0u);
  ASSERT_EQ(input->num_features, 48u);
  double expected = 0.0;
  for (size_t i = 0; i < input->num_rows(); ++i) {
    expected += reference.PredictPipelineSeconds(
        input->rows.data() + i * input->num_features,
        input->input_cardinalities[i]);
  }

  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Result<PredictResponse> response = client->PredictPlan(*plan_text);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->predictions.size(), 1u);
  EXPECT_EQ(response->predictions[0], expected);

  // Malformed plan text: a kError reply each, and the connection stays
  // usable. The huge node count and the huge filter extra used to throw
  // out of the worker and kill the server; the text ending in a digit was
  // read past the end of the frame payload.
  for (const char* bad : {
           "not a plan",
           "t3plan v1\nnodes 99999999999999\n",
           "t3plan v1\nnodes 3\nN 0 -1 -1 100 1 8 0\nN 1 0 -1 50 1e18 8 0\n"
           "N 8 1 -1 50 0 8 0\n",
           "t3plan v1\nnodes 1\nN 8 -1 -1 1 0 8 0",
       }) {
    // The server's InvalidArgument comes back in a kError reply; a dropped
    // connection would read as Unavailable.
    Result<PredictResponse> rejected = client->PredictPlan(bad);
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << bad;
    Result<PredictResponse> again = client->PredictPlan(*plan_text);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->predictions[0], expected);
  }
  (*server)->Stop();
}

// A per-query model reads a plan as one row, its pipeline rows summed
// elementwise in pipeline order, and predicts once; summing per-pipeline
// predictions would answer a different query time.
TEST(PredictionServerTest, PredictPlanPerQueryModelPredictsSummedRow) {
  const T3Model reference =
      MakeRandomModel(505, 48, 12, PredictionTarget::kPerQuery);
  Result<std::shared_ptr<const ServingModel>> serving =
      MakeServingModel(reference, 1, "test:per-query");
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(*std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Result<std::string> plan_text = ReadFileToString(
      std::string(T3_SOURCE_DIR) + "/data/plan_join_golden.txt");
  ASSERT_TRUE(plan_text.ok()) << plan_text.status().ToString();
  Result<PlanPredictionInput> input = BuildPlanPredictionInput(*plan_text);
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  ASSERT_GT(input->num_rows(), 1u);
  const size_t dim = input->num_features;
  ASSERT_EQ(dim, 48u);
  std::vector<double> summed(input->rows.begin(),
                             input->rows.begin() + static_cast<long>(dim));
  for (size_t i = 1; i < input->num_rows(); ++i) {
    for (size_t f = 0; f < dim; ++f) summed[f] += input->rows[i * dim + f];
  }
  const double expected = reference.PredictPipelineSeconds(summed.data(), 0.0);

  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Result<PredictResponse> response = client->PredictPlan(*plan_text);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->predictions.size(), 1u);
  EXPECT_EQ(response->predictions[0], expected);
  (*server)->Stop();
}

TEST(PredictionServerTest, PipelinedFramesAnswerInArrivalOrder) {
  const int kFeatures = 8;
  const T3Model reference = MakeRandomModel(404, kFeatures, 6);
  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(404, kFeatures, 6, &serving));
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  // Four frames in one write, so the server parses them in one round: a
  // failing request and an admin request between two predictions must not
  // overtake the prediction ahead of them.
  const PredictRowsRequest first = MakeRandomRequest(41, 5, kFeatures);
  const PredictRowsRequest last = MakeRandomRequest(42, 3, kFeatures);
  std::vector<uint8_t> bytes;
  for (const Frame& frame :
       {EncodePredictRows(first),
        EncodeTextFrame(MessageType::kPredictPlan, "not a plan"),
        EncodeEmptyFrame(MessageType::kStats), EncodePredictRows(last)}) {
    const std::vector<uint8_t> encoded = EncodeFrame(frame);
    bytes.insert(bytes.end(), encoded.begin(), encoded.end());
  }
  ASSERT_TRUE(client->RawSend(bytes.data(), bytes.size()).ok());

  const MessageType expected_types[] = {
      MessageType::kPredictOk, MessageType::kError, MessageType::kStatsOk,
      MessageType::kPredictOk};
  std::vector<Frame> replies;
  for (MessageType expected : expected_types) {
    Result<Frame> reply = client->RawReceive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, expected) << "reply " << replies.size();
    replies.push_back(*std::move(reply));
  }

  // The predictions are the right ones for their requests, bit for bit.
  const PredictRowsRequest* requests[] = {&first, &last};
  const Frame* predict_replies[] = {&replies[0], &replies[3]};
  for (int r = 0; r < 2; ++r) {
    Result<PredictResponse> response =
        DecodePredictResponse(*predict_replies[r]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const PredictRowsRequest& request = *requests[r];
    ASSERT_EQ(response->predictions.size(), request.num_rows());
    for (size_t i = 0; i < request.num_rows(); ++i) {
      EXPECT_EQ(response->predictions[i],
                reference.PredictPipelineSeconds(
                    request.rows.data() + i * kFeatures,
                    request.input_cardinalities[i]))
          << "request " << r << " row " << i;
    }
  }
  (*server)->Stop();
}

// --- Client misbehavior ---

TEST(PredictionServerTest, MalformedFrameGetsErrorAndClose) {
  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(55, 8, 4, &serving));
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  const char garbage[kFrameHeaderBytes] = {'n', 'o', 'n', 's', 'e', 'n',
                                           's', 'e', '.', '.', '.', '.'};
  ASSERT_TRUE(client->RawSend(garbage, sizeof(garbage)).ok());
  Result<Frame> reply = client->RawReceive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MessageType::kError);
  // The server closes after flushing the error: the next read sees EOF.
  EXPECT_FALSE(client->RawReceive().ok());

  // The server itself is unharmed: a fresh connection predicts fine.
  Result<PredictionClient> fresh =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->PredictRows(MakeRandomRequest(1, 3, 8)).ok());
  EXPECT_GE((*server)->stats().protocol_errors, 1u);
  (*server)->Stop();
}

TEST(PredictionServerTest, WrongFeatureWidthIsAnErrorNotACrash) {
  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(56, 8, 4, &serving));
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  // 5 features against an 8-feature model: rejected per-request, and the
  // same connection keeps working afterwards.
  Result<PredictResponse> bad =
      client->PredictRows(MakeRandomRequest(2, 3, 5));
  EXPECT_FALSE(bad.ok());
  Result<PredictResponse> good =
      client->PredictRows(MakeRandomRequest(3, 3, 8));
  EXPECT_TRUE(good.ok()) << good.status().ToString();
  (*server)->Stop();
}

TEST(PredictionServerTest, SurvivesAbruptDisconnects) {
  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(57, 8, 4, &serving));
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  // Half-written frames, requests abandoned before the response is read,
  // and immediate closes: none of it may take down the server (SIGPIPE is
  // ignored; EPIPE/ECONNRESET reap just that connection).
  for (int round = 0; round < 10; ++round) {
    Result<PredictionClient> client =
        PredictionClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    const std::vector<uint8_t> bytes = EncodeFrame(
        EncodePredictRows(MakeRandomRequest(round, 64, 8)));
    switch (round % 3) {
      case 0:  // Half a frame, then vanish.
        ASSERT_TRUE(client->RawSend(bytes.data(), bytes.size() / 2).ok());
        break;
      case 1:  // Full request, vanish without reading the response.
        ASSERT_TRUE(client->RawSend(bytes.data(), bytes.size()).ok());
        break;
      default:  // Connect and vanish.
        break;
    }
    // Client destructor closes the socket abruptly.
  }

  Result<PredictionClient> survivor =
      PredictionClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(survivor.ok());
  Result<PredictResponse> response =
      survivor->PredictRows(MakeRandomRequest(99, 4, 8));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  (*server)->Stop();
}

// --- Hot swap under load: zero drops, per-version bit-matching ---

TEST(PredictionServerTest, HotSwapUnderLoadDropsNothingAndBitMatches) {
  const int kFeatures = 12;
  const T3Model model_v1 = MakeRandomModel(1001, kFeatures, 10);
  const T3Model model_v2 = MakeRandomModel(2002, kFeatures, 10);
  const std::string swap_path =
      testing::TempDir() + "/t3_server_swap_model.txt";
  ASSERT_TRUE(model_v2.SaveToFile(swap_path).ok());

  ServerOptions options = TestServerOptions();
  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(
      MakeTestServingModel(1001, kFeatures, 10, &serving));
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(std::move(serving), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  constexpr int kClientThreads = 4;
  constexpr int kRequestsPerThread = 50;
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<bool> failed{false};

  auto worker = [&](int thread_index) {
    Result<PredictionClient> client =
        PredictionClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      failed.store(true);
      return;
    }
    for (int r = 0; r < kRequestsPerThread; ++r) {
      const PredictRowsRequest request = MakeRandomRequest(
          static_cast<uint64_t>(thread_index) * 1000 + r, 8, kFeatures);
      Result<PredictResponse> response = client->PredictRows(request);
      if (!response.ok()) {
        failed.store(true);
        return;
      }
      // Whichever version answered, it must bit-match that version's
      // model on every row — never a torn batch across the swap.
      const T3Model& version_model =
          response->model_version == 1 ? model_v1 : model_v2;
      for (size_t i = 0; i < request.num_rows(); ++i) {
        const double expected = version_model.PredictPipelineSeconds(
            request.rows.data() + i * kFeatures,
            request.input_cardinalities[i]);
        if (response->predictions[i] != expected) {
          mismatches.fetch_add(1);
        }
      }
      answered.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; ++t) threads.emplace_back(worker, t);

  // Swap mid-run on a dedicated admin connection.
  Result<PredictionClient> admin =
      PredictionClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(admin.ok());
  Result<uint32_t> swapped = admin->Swap(swap_path);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(*swapped, 2u);

  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  // Zero drops: every single request was answered.
  EXPECT_EQ(answered.load(),
            static_cast<uint64_t>(kClientThreads) * kRequestsPerThread);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ((*server)->registry().num_swaps(), 1u);

  // After the swap, new requests are served by version 2 and bit-match
  // the swapped-in model.
  Result<PredictionClient> after =
      PredictionClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(after.ok());
  const PredictRowsRequest request = MakeRandomRequest(7777, 6, kFeatures);
  Result<PredictResponse> response = after->PredictRows(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->model_version, 2u);
  for (size_t i = 0; i < request.num_rows(); ++i) {
    EXPECT_EQ(response->predictions[i],
              model_v2.PredictPipelineSeconds(
                  request.rows.data() + i * kFeatures,
                  request.input_cardinalities[i]));
  }
  (*server)->Stop();
}

// Requests on both sides of the 8-row block width, one at a time so each
// is one PredictBatch call, before and after a hot swap: below it the
// one-row scan answers every row, from it the 8-lane scan (where
// dispatched) takes the whole blocks. Every answer bit-matches the model
// version it names.
TEST(PredictionServerTest, BatchesAroundBlockWidthBitMatchAcrossSwap) {
  const int kFeatures = 12;
  const T3Model model_v1 = MakeRandomModel(3001, kFeatures, 30);
  const T3Model model_v2 = MakeRandomModel(3002, kFeatures, 30);
  const std::string swap_path =
      testing::TempDir() + "/t3_server_threshold_model.txt";
  ASSERT_TRUE(model_v2.SaveToFile(swap_path).ok());

  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(3001, kFeatures, 30, &serving));
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  uint64_t seed = 500;
  for (const uint32_t version : {1u, 2u}) {
    if (version == 2) {
      Result<uint32_t> swapped = client->Swap(swap_path);
      ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
      ASSERT_EQ(*swapped, 2u);
    }
    const T3Model& model = version == 1 ? model_v1 : model_v2;
    for (const size_t num_rows :
         {size_t{1}, size_t{7}, size_t{8}, size_t{73}}) {
      const PredictRowsRequest request =
          MakeRandomRequest(seed++, num_rows, kFeatures);
      Result<PredictResponse> response = client->PredictRows(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->model_version, version);
      ASSERT_EQ(response->predictions.size(), num_rows);
      for (size_t i = 0; i < num_rows; ++i) {
        EXPECT_EQ(response->predictions[i],
                  model.PredictPipelineSeconds(
                      request.rows.data() + i * kFeatures,
                      request.input_cardinalities[i]))
            << "version " << version << ", " << num_rows << " rows, row "
            << i;
      }
    }
  }
  (*server)->Stop();
}

// A tree with 33 leaves does not fit the 8-lane scan's 32-bit lanes, so the
// served QuickScorer is not vectorized: kStats says so, and every request
// size, around the 8-row block width too, is answered by the one-row scan
// bit for bit like the direct model call.
TEST(PredictionServerTest, WideTreeForestServesWithoutTheEightLaneScan) {
  constexpr int kFeatures = 8;
  Forest forest = MakeRandomForest(61, kFeatures, 4);
  Rng rng(62);
  Tree wide;
  BuildSubtreeWithLeaves(&wide, &rng, kFeatures, 33);
  forest.trees.push_back(std::move(wide));
  const T3Model reference(std::move(forest), PredictionTarget::kPerTuple);
  Result<std::shared_ptr<const ServingModel>> serving =
      MakeServingModel(reference, 1, "test:wide");
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  EXPECT_FALSE((*serving)->scorer.vectorized());
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(*std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Result<std::string> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("simd_batch_kernels 0\n"), std::string::npos) << *stats;

  uint64_t seed = 600;
  for (const size_t num_rows : {size_t{1}, size_t{7}, size_t{8}, size_t{73}}) {
    const PredictRowsRequest request = MakeRandomRequest(seed++, num_rows, kFeatures);
    Result<PredictResponse> response = client->PredictRows(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->predictions.size(), num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      EXPECT_EQ(response->predictions[i],
                reference.PredictPipelineSeconds(request.rows.data() + i * kFeatures,
                                                 request.input_cardinalities[i]))
          << num_rows << " rows, row " << i;
    }
  }
  (*server)->Stop();
}

TEST(PredictionServerTest, SwapRejectsFeatureCountMismatch) {
  const T3Model narrow = MakeRandomModel(31, 4, 3);
  const std::string narrow_path =
      testing::TempDir() + "/t3_server_narrow_model.txt";
  ASSERT_TRUE(narrow.SaveToFile(narrow_path).ok());

  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(32, 8, 3, &serving));
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Result<uint32_t> swapped = client->Swap(narrow_path);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kFailedPrecondition);
  // Still serving version 1.
  EXPECT_EQ((*server)->registry().Current()->version, 1u);
  (*server)->Stop();
}

TEST(ModelRegistryTest, SwapReturnsThePublishedSnapshotWithItsTimings) {
  const std::string path = testing::TempDir() + "/t3_registry_model.txt";
  ASSERT_TRUE(MakeRandomModel(41, 8, 5).SaveToFile(path).ok());

  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(40, 8, 5, &serving));
  ModelRegistry registry(std::move(serving));
  EXPECT_EQ(registry.Current()->timings.load_ms, 0.0);  // Built in memory.
  Result<std::shared_ptr<const ServingModel>> swapped =
      registry.SwapFromFile(path);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(*swapped, registry.Current());
  EXPECT_EQ((*swapped)->version, 2u);
  EXPECT_EQ((*swapped)->source, path);
  EXPECT_GT((*swapped)->timings.load_ms, 0.0);
  EXPECT_GT((*swapped)->timings.build_ms, 0.0);
  const std::string text = (*swapped)->TimingsText();
  EXPECT_EQ(text.rfind("load ", 0), 0u) << text;
  EXPECT_NE(text.find(" ms, build "), std::string::npos) << text;
}

// The file path's one gate is T3Model::LoadFromFile: a forest that fails
// Forest::Validate (an out-of-range feature), an unknown target header and
// a bare forest body with no header are all InvalidArgument, and the
// served snapshot stays version 1.
TEST(ModelRegistryTest, SwapFromFileRefusesWhatTheLoaderRefuses) {
  const std::string headerless = testing::TempDir() + "/t3_registry_headerless.txt";
  ASSERT_TRUE(
      WriteStringToFile(headerless, MakeRandomModel(43, 48, 5).forest().ToText()).ok());
  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(42, 48, 5, &serving));
  ModelRegistry registry(std::move(serving));
  const std::string data = std::string(T3_SOURCE_DIR) + "/tests/data/";
  for (const std::string& path : {data + "model_corrupt.txt",
                                  data + "model_unknown_target.txt", headerless}) {
    Result<std::shared_ptr<const ServingModel>> swapped = registry.SwapFromFile(path);
    ASSERT_FALSE(swapped.ok()) << path;
    EXPECT_EQ(swapped.status().code(), StatusCode::kInvalidArgument) << path;
    EXPECT_EQ(registry.Current()->version, 1u) << path;
  }
  EXPECT_EQ(registry.num_swaps(), 0u);
}

// A child index out of range: MakeServingModel's Forest::Validate refuses
// the forest and returns that InvalidArgument unchanged. No
// QuickScorer is built for it: its build would index the bad child
// unchecked.
TEST(ModelRegistryTest, MalformedForestIsRefusedWithoutAnEvaluator) {
  Forest forest = MakeRandomForest(50, 8, 4);
  TreeNode* split = nullptr;
  for (Tree& tree : forest.trees) {
    for (TreeNode& node : tree.nodes) {
      if (split == nullptr && !node.is_leaf) split = &node;
    }
  }
  ASSERT_NE(split, nullptr);
  split->right = 1 << 20;
  const Status invalid = forest.Validate();
  ASSERT_EQ(invalid.code(), StatusCode::kInvalidArgument);

  Result<std::shared_ptr<const ServingModel>> serving = MakeServingModel(
      T3Model(std::move(forest), PredictionTarget::kPerTuple), 1, "test:malformed");
  ASSERT_FALSE(serving.ok());
  EXPECT_EQ(serving.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(serving.status().message(), invalid.message());
}

// Four threads prepare snapshots of the 200-tree fixtures at once, two
// through MakeServingModel and two through one registry's SwapFromFile, so
// several builds overlap. Every snapshot must predict the
// mini corpus's rows bit for bit like its fixture's Forest::Predict, row
// by row and batched.
TEST(ModelRegistryTest, ConcurrentPreparesBitMatchTheFixtures) {
  constexpr const char* kFixtures[] = {
      "model_ablation_per_pipeline.txt",
      "model_ablation_per_query.txt",
      "model_autowlm_per_query.txt",
      "model_loo_airline.txt",
  };
  constexpr size_t kNumFixtures = std::size(kFixtures);
  const std::string data = std::string(T3_SOURCE_DIR) + "/data/";
  std::vector<std::string> paths;
  std::vector<T3Model> models;
  for (const char* fixture : kFixtures) {
    paths.push_back(data + fixture);
    Result<T3Model> model = T3Model::LoadFromFile(paths.back());
    ASSERT_TRUE(model.ok()) << fixture << ": " << model.status().ToString();
    models.push_back(*std::move(model));
  }
  Result<Corpus> corpus = LoadCorpusFromFile(data + "corpus_mini.txt");
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  std::vector<double> rows;
  for (const QueryRecord& record : corpus->records) {
    for (const auto* features : {&record.feat_true, &record.feat_est}) {
      for (const PipelineFeatures& pipeline : *features) {
        rows.insert(rows.end(), pipeline.values.begin(), pipeline.values.end());
      }
    }
  }
  const size_t dim = static_cast<size_t>(models[0].forest().num_features);
  ASSERT_EQ(rows.size() % dim, 0u);
  const size_t num_rows = rows.size() / dim;

  Result<std::shared_ptr<const ServingModel>> initial =
      MakeServingModel(models[0], 1, paths[0]);
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  ModelRegistry registry(*std::move(initial));

  // Each thread's snapshots with their fixture index, checked after the join.
  using Made = std::pair<std::shared_ptr<const ServingModel>, size_t>;
  constexpr int kThreads = 4;
  constexpr size_t kRounds = 2;
  std::vector<std::vector<Made>> made(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t fixture = (static_cast<size_t>(t) + round) % kNumFixtures;
        Result<std::shared_ptr<const ServingModel>> serving =
            t % 2 == 0 ? MakeServingModel(models[fixture], 0, paths[fixture])
                       : registry.SwapFromFile(paths[fixture]);
        if (!serving.ok()) {
          errors[static_cast<size_t>(t)] = serving.status().ToString();
          return;
        }
        made[static_cast<size_t>(t)].emplace_back(*std::move(serving), fixture);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) ASSERT_EQ(error, "");
  EXPECT_EQ(registry.num_swaps(), kRounds * kThreads / 2);

  std::vector<double> batch(num_rows);
  for (const auto& snapshots : made) {
    ASSERT_EQ(snapshots.size(), kRounds);
    for (const auto& [serving, fixture] : snapshots) {
      ASSERT_EQ(serving->source, paths[fixture]);
      const Forest& expected = models[fixture].forest();
      serving->scorer.PredictBatch(rows.data(), num_rows, dim, batch.data());
      for (size_t r = 0; r < num_rows; ++r) {
        const double want = expected.Predict(rows.data() + r * dim);
        ASSERT_EQ(serving->scorer.Predict(rows.data() + r * dim), want)
            << paths[fixture] << " row " << r;
        ASSERT_EQ(batch[r], want) << paths[fixture] << " batch row " << r;
      }
    }
  }
}

// --- Shutdown and stats ---

TEST(PredictionServerTest, ProtocolShutdownStopsWait) {
  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(77, 8, 4, &serving));
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(std::move(serving), TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->PredictRows(MakeRandomRequest(5, 2, 8)).ok());
  Result<std::string> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("model_version 1"), std::string::npos);
  EXPECT_NE(stats->find("model_features 8"), std::string::npos);
  // Whether PredictBatch runs the 8-lane scan: compiled in and dispatched
  // (the test forest's trees have at most 32 leaves), so 0 under
  // T3_FORCE_SCALAR=1 and in builds without it.
  const bool simd = BatchJitSupported() && BatchKernelsEnabled();
  EXPECT_NE(stats->find(StrFormat("simd_batch_kernels %d\n", simd ? 1 : 0)),
            std::string::npos)
      << *stats;

  ASSERT_TRUE(client->Shutdown().ok());
  (*server)->Wait();  // Returns because the kShutdown frame stopped it.

  const ServerStats final_stats = (*server)->stats();
  EXPECT_GE(final_stats.predict_requests, 1u);
  EXPECT_GE(final_stats.rows_predicted, 2u);
  EXPECT_EQ(final_stats.batcher.jobs, final_stats.predict_requests);
}

TEST(PredictionServerTest, RemoteShutdownCanBeDisabled) {
  ServerOptions options = TestServerOptions();
  options.allow_remote_shutdown = false;
  std::shared_ptr<const ServingModel> serving;
  ASSERT_NO_FATAL_FAILURE(MakeTestServingModel(78, 8, 4, &serving));
  Result<std::unique_ptr<PredictionServer>> server =
      PredictionServer::Start(std::move(serving), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Result<PredictionClient> client =
      PredictionClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(client->Shutdown().ok());
  // Still serving.
  EXPECT_TRUE(client->PredictRows(MakeRandomRequest(6, 2, 8)).ok());
  (*server)->Stop();
}

}  // namespace
}  // namespace t3
