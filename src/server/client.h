#ifndef T3_SERVER_CLIENT_H_
#define T3_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/net.h"
#include "common/status.h"
#include "server/protocol.h"

namespace t3 {

/// Blocking request/response client for the "t3p1" protocol — the shared
/// transport of t3_loadgen, the CI smoke test, and the server tests. One
/// client per connection; a client instance is not thread-safe (open one
/// per loadgen connection instead).
class PredictionClient {
 public:
  /// Connects to `host:port`, retrying for up to `timeout_seconds` (the
  /// server may still be binding when a test or smoke script races it).
  static Result<PredictionClient> Connect(const std::string& host,
                                          uint16_t port,
                                          double timeout_seconds = 5.0);

  PredictionClient(PredictionClient&&) = default;
  PredictionClient& operator=(PredictionClient&&) = default;

  /// kPredictRows round trip. A kError reply surfaces as the carried
  /// status.
  Result<PredictResponse> PredictRows(const PredictRowsRequest& request);

  /// kPredictPlan round trip over "t3plan v1" skeleton text; the response
  /// holds one query prediction.
  Result<PredictResponse> PredictPlan(std::string_view plan_text);

  /// kSwapModel round trip; empty path = the server's default swap path.
  /// Returns the version now being served.
  Result<uint32_t> Swap(const std::string& path = "");

  /// kStats round trip; returns the "key value" lines.
  Result<std::string> Stats();

  /// kShutdown round trip; resolves once the server acknowledged.
  Status Shutdown();

  /// Sends `frame` and returns the server's reply — the raw layer the
  /// protocol tests drive directly (including deliberately bad frames via
  /// RawSend + RawReceive below).
  Result<Frame> RoundTrip(const Frame& frame);

  /// Writes arbitrary bytes to the socket (malformed-frame tests).
  Status RawSend(const void* data, size_t size);

  /// Reads one well-formed frame off the socket.
  Result<Frame> RawReceive();

  int fd() const { return fd_.get(); }

 private:
  explicit PredictionClient(ScopedFd fd) : fd_(std::move(fd)) {}

  ScopedFd fd_;
};

}  // namespace t3

#endif  // T3_SERVER_CLIENT_H_
