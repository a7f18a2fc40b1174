#include "server/protocol.h"

#include <bit>
#include <cstring>

#include "common/string_util.h"

namespace t3 {
namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<uint8_t>(value >> shift));
  }
}

/// Appends `values` as little-endian IEEE-754 bit patterns: one memcpy on a
/// little-endian host, a byte loop elsewhere.
void PutF64s(std::vector<uint8_t>* out, const std::vector<double>& values) {
  if (values.empty()) return;
  const size_t at = out->size();
  out->resize(at + 8 * values.size());
  uint8_t* dst = out->data() + at;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, values.data(), 8 * values.size());
  } else {
    for (const double value : values) {
      uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      for (int shift = 0; shift < 64; shift += 8) {
        *dst++ = static_cast<uint8_t>(bits >> shift);
      }
    }
  }
}

uint32_t GetU32(const uint8_t* data) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) value = (value << 8) | data[i];
  return value;
}

double GetF64(const uint8_t* data) {
  uint64_t bits = 0;
  for (int i = 7; i >= 0; --i) bits = (bits << 8) | data[i];
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Strict sequential payload reader: every decoder must consume the whole
/// payload (Finish checks), mirroring the text parsers' trailing-data
/// rejection.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}

  Status ReadU32(uint32_t* out) {
    if (size_ - pos_ < 4) return Truncated("uint32");
    *out = GetU32(data_ + pos_);
    pos_ += 4;
    return Status::OK();
  }

  /// Appends `count` little-endian doubles: one memcpy on a little-endian
  /// host, a byte loop elsewhere.
  Status ReadF64s(size_t count, std::vector<double>* out) {
    if ((size_ - pos_) / 8 < count) return Truncated("doubles");
    if (count == 0) return Status::OK();
    const size_t at = out->size();
    out->resize(at + count);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out->data() + at, data_ + pos_, 8 * count);
    } else {
      for (size_t i = 0; i < count; ++i) {
        (*out)[at + i] = GetF64(data_ + pos_ + 8 * i);
      }
    }
    pos_ += 8 * count;
    return Status::OK();
  }

  /// The rest of the payload as text.
  std::string ReadRemainingText() {
    std::string text(reinterpret_cast<const char*>(data_ + pos_),
                     size_ - pos_);
    pos_ = size_;
    return text;
  }

  Status Finish() const {
    if (pos_ != size_) {
      return InvalidArgumentError(StrFormat(
          "frame payload has %zu trailing bytes", size_ - pos_));
    }
    return Status::OK();
  }

 private:
  Status Truncated(const char* what) const {
    return InvalidArgumentError(StrFormat(
        "frame payload truncated reading %s at offset %zu", what, pos_));
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status CheckType(const Frame& frame, MessageType expected,
                 const char* decoder) {
  if (frame.type != expected) {
    return InvalidArgumentError(StrFormat(
        "%s: unexpected message type %d", decoder,
        static_cast<int>(frame.type)));
  }
  return Status::OK();
}

}  // namespace

bool IsKnownMessageType(uint8_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kPredictRows:
    case MessageType::kPredictPlan:
    case MessageType::kSwapModel:
    case MessageType::kStats:
    case MessageType::kShutdown:
    case MessageType::kPredictOk:
    case MessageType::kError:
    case MessageType::kSwapOk:
    case MessageType::kStatsOk:
    case MessageType::kShutdownOk:
      return true;
  }
  return false;
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  const uint32_t payload_len = static_cast<uint32_t>(frame.payload.size());
  std::vector<uint8_t> out(kFrameHeaderBytes + frame.payload.size());
  std::memcpy(out.data(), kMagic, 4);
  out[4] = static_cast<uint8_t>(frame.type);
  out[5] = 0;  // flags
  out[6] = 0;  // reserved
  out[7] = 0;
  out[8] = static_cast<uint8_t>(payload_len & 0xff);
  out[9] = static_cast<uint8_t>((payload_len >> 8) & 0xff);
  out[10] = static_cast<uint8_t>((payload_len >> 16) & 0xff);
  out[11] = static_cast<uint8_t>((payload_len >> 24) & 0xff);
  if (!frame.payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderBytes, frame.payload.data(),
                frame.payload.size());
  }
  return out;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data) {
  if (std::memcmp(data, kMagic, 4) != 0) {
    return InvalidArgumentError("bad frame magic (want \"t3p1\")");
  }
  if (!IsKnownMessageType(data[4])) {
    return InvalidArgumentError(
        StrFormat("unknown message type %d", data[4]));
  }
  if (data[5] != 0 || data[6] != 0 || data[7] != 0) {
    return InvalidArgumentError("nonzero flags/reserved bytes");
  }
  FrameHeader header;
  header.type = static_cast<MessageType>(data[4]);
  header.payload_size = GetU32(data + 8);
  if (header.payload_size > kMaxPayloadBytes) {
    return InvalidArgumentError(StrFormat(
        "frame payload of %u bytes exceeds the %u-byte cap",
        header.payload_size, kMaxPayloadBytes));
  }
  return header;
}

Result<Frame> DecodeFrame(const uint8_t* data, size_t size) {
  if (size < kFrameHeaderBytes) {
    return InvalidArgumentError(StrFormat(
        "frame of %zu bytes is shorter than the %zu-byte header", size,
        kFrameHeaderBytes));
  }
  Result<FrameHeader> header = DecodeFrameHeader(data);
  if (!header.ok()) return header.status();
  if (size != kFrameHeaderBytes + header->payload_size) {
    return InvalidArgumentError(StrFormat(
        "frame length mismatch: header declares %u payload bytes, buffer "
        "has %zu",
        header->payload_size, size - kFrameHeaderBytes));
  }
  Frame frame;
  frame.type = header->type;
  frame.payload.assign(data + kFrameHeaderBytes, data + size);
  return frame;
}

Frame EncodePredictRows(const PredictRowsRequest& request) {
  Frame frame;
  frame.type = MessageType::kPredictRows;
  const uint32_t num_rows =
      static_cast<uint32_t>(request.input_cardinalities.size());
  PutU32(&frame.payload, num_rows);
  PutU32(&frame.payload, request.num_features);
  frame.payload.reserve(frame.payload.size() +
                        8 * (request.rows.size() + num_rows));
  PutF64s(&frame.payload, request.rows);
  PutF64s(&frame.payload, request.input_cardinalities);
  return frame;
}

Result<PredictRowsRequest> DecodePredictRows(const Frame& frame) {
  Status status = CheckType(frame, MessageType::kPredictRows, "PredictRows");
  if (!status.ok()) return status;
  PayloadReader reader(frame.payload);
  uint32_t num_rows = 0;
  uint32_t num_features = 0;
  if (Status s = reader.ReadU32(&num_rows); !s.ok()) return s;
  if (Status s = reader.ReadU32(&num_features); !s.ok()) return s;
  if (num_rows == 0 || num_rows > kMaxRowsPerRequest) {
    return InvalidArgumentError(StrFormat(
        "predict request row count %u outside [1, %u]", num_rows,
        kMaxRowsPerRequest));
  }
  if (num_features == 0 || num_features > kMaxFeaturesPerRow) {
    return InvalidArgumentError(StrFormat(
        "predict request feature count %u outside [1, %u]", num_features,
        kMaxFeaturesPerRow));
  }
  PredictRowsRequest request;
  request.num_features = num_features;
  if (Status s = reader.ReadF64s(
          static_cast<size_t>(num_rows) * num_features, &request.rows);
      !s.ok()) {
    return s;
  }
  if (Status s = reader.ReadF64s(num_rows, &request.input_cardinalities);
      !s.ok()) {
    return s;
  }
  if (Status s = reader.Finish(); !s.ok()) return s;
  return request;
}

Frame EncodePredictResponse(const PredictResponse& response) {
  Frame frame;
  frame.type = MessageType::kPredictOk;
  PutU32(&frame.payload, response.model_version);
  PutU32(&frame.payload,
         static_cast<uint32_t>(response.predictions.size()));
  PutF64s(&frame.payload, response.predictions);
  return frame;
}

Result<PredictResponse> DecodePredictResponse(const Frame& frame) {
  Status status = CheckType(frame, MessageType::kPredictOk, "PredictOk");
  if (!status.ok()) return status;
  PayloadReader reader(frame.payload);
  PredictResponse response;
  uint32_t num_rows = 0;
  if (Status s = reader.ReadU32(&response.model_version); !s.ok()) return s;
  if (Status s = reader.ReadU32(&num_rows); !s.ok()) return s;
  if (Status s = reader.ReadF64s(num_rows, &response.predictions); !s.ok()) {
    return s;
  }
  if (Status s = reader.Finish(); !s.ok()) return s;
  return response;
}

Frame EncodeErrorResponse(const ErrorResponse& response) {
  Frame frame;
  frame.type = MessageType::kError;
  frame.payload.reserve(4 + response.message.size());
  PutU32(&frame.payload, static_cast<uint32_t>(response.code));
  frame.payload.insert(frame.payload.end(), response.message.begin(),
                       response.message.end());
  return frame;
}

Frame EncodeErrorResponse(const Status& status) {
  ErrorResponse response;
  response.code = status.code();
  response.message = status.message();
  return EncodeErrorResponse(response);
}

Result<ErrorResponse> DecodeErrorResponse(const Frame& frame) {
  Status status = CheckType(frame, MessageType::kError, "Error");
  if (!status.ok()) return status;
  PayloadReader reader(frame.payload);
  uint32_t code = 0;
  if (Status s = reader.ReadU32(&code); !s.ok()) return s;
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kInternal)) {
    return InvalidArgumentError(
        StrFormat("error frame carries bad status code %u", code));
  }
  ErrorResponse response;
  response.code = static_cast<StatusCode>(code);
  response.message = reader.ReadRemainingText();
  return response;
}

Frame EncodeTextFrame(MessageType type, std::string_view text) {
  Frame frame;
  frame.type = type;
  frame.payload.assign(text.begin(), text.end());
  return frame;
}

Frame EncodeSwapResponse(uint32_t model_version) {
  Frame frame;
  frame.type = MessageType::kSwapOk;
  PutU32(&frame.payload, model_version);
  return frame;
}

Result<uint32_t> DecodeSwapResponse(const Frame& frame) {
  Status status = CheckType(frame, MessageType::kSwapOk, "SwapOk");
  if (!status.ok()) return status;
  PayloadReader reader(frame.payload);
  uint32_t version = 0;
  if (Status s = reader.ReadU32(&version); !s.ok()) return s;
  if (Status s = reader.Finish(); !s.ok()) return s;
  return version;
}

Frame EncodeEmptyFrame(MessageType type) {
  Frame frame;
  frame.type = type;
  return frame;
}

}  // namespace t3
