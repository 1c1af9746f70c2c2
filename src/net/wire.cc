// Copyright (c) 2026 moqo authors. MIT license.

#include "net/wire.h"

#include "core/plan_set.h"
#include "util/byte_codec.h"

namespace moqo {
namespace net {
namespace {

/// Prepends the 8-byte header once the payload is complete.
std::string Frame(MsgType type, const std::string& payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  PutU16(&frame, kMagic);
  PutU8(&frame, kProtocolVersion);
  PutU8(&frame, static_cast<uint8_t>(type));
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

}  // namespace

std::string EncodeOpenFrontier(const OpenFrontierMsg& msg) {
  std::string payload;
  PutString(&payload, msg.query_id);
  PutU8(&payload, static_cast<uint8_t>(msg.objectives.size()));
  for (uint8_t objective : msg.objectives) PutU8(&payload, objective);
  PutU8(&payload, static_cast<uint8_t>(msg.algorithm));
  PutF64(&payload, msg.alpha);
  PutI32(&payload, msg.parallelism);
  PutF64(&payload, msg.alpha_start);
  PutF64(&payload, msg.alpha_target);
  PutI32(&payload, msg.max_steps);
  PutI64(&payload, msg.step_deadline_ms);
  PutU8(&payload, msg.quick_first);
  return Frame(MsgType::kOpenFrontier, payload);
}

std::string EncodeSelect(const SelectMsg& msg) {
  std::string payload;
  PutU64(&payload, msg.tag);
  PutF64Vector(&payload, msg.weights);
  PutF64Vector(&payload, msg.bounds);
  return Frame(MsgType::kSelect, payload);
}

std::string EncodeCancel() { return Frame(MsgType::kCancel, std::string()); }

std::string EncodeClose() { return Frame(MsgType::kClose, std::string()); }

std::string EncodeFrontierUpdate(const FrontierUpdateMsg& msg) {
  std::string payload;
  PutI32(&payload, msg.step);
  PutF64(&payload, msg.alpha);
  PutU8(&payload, msg.from_cache);
  PutF64(&payload, msg.step_ms);
  PutU32(&payload, msg.num_plans());
  PutU8(&payload, static_cast<uint8_t>(msg.dims));
  for (double cost : msg.costs) PutF64(&payload, cost);
  return Frame(MsgType::kFrontierUpdate, payload);
}

std::string EncodeSelectResult(const SelectResultMsg& msg) {
  std::string payload;
  PutU64(&payload, msg.tag);
  PutI32(&payload, msg.step);
  PutF64(&payload, msg.alpha);
  PutI32(&payload, msg.plan_index);
  PutF64(&payload, msg.weighted_cost);
  PutF64Vector(&payload, msg.cost);
  return Frame(MsgType::kSelectResult, payload);
}

std::string EncodeDone(const DoneMsg& msg) {
  std::string payload;
  PutU8(&payload, msg.target_reached);
  PutU8(&payload, msg.cancelled);
  PutU8(&payload, msg.degraded);
  PutU8(&payload, msg.shed);
  PutU8(&payload, msg.rejected);
  PutI32(&payload, msg.steps_published);
  PutF64(&payload, msg.best_alpha);
  return Frame(MsgType::kDone, payload);
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kProtocol:
      return "protocol";
    case ErrorCode::kUnknownQuery:
      return "unknown_query";
    case ErrorCode::kRejected:
      return "rejected";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kTimeout:
      return "timeout";
  }
  return "unknown";
}

std::string EncodeError(ErrorCode code, const std::string& message) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(code));
  PutString(&payload, message);
  return Frame(MsgType::kError, payload);
}

FrontierUpdateMsg MakeFrontierUpdate(int step, double alpha, bool from_cache,
                                     double step_ms,
                                     const PlanSet& plan_set) {
  FrontierUpdateMsg msg;
  msg.step = step;
  msg.alpha = alpha;
  msg.from_cache = from_cache ? 1 : 0;
  msg.step_ms = step_ms;
  msg.dims = plan_set.empty()
                 ? 0
                 : static_cast<uint32_t>(plan_set.cost(0).size());
  msg.costs.reserve(static_cast<size_t>(plan_set.size()) * msg.dims);
  for (int i = 0; i < plan_set.size(); ++i) {
    const CostVector& cost = plan_set.cost(i);
    for (uint32_t d = 0; d < msg.dims; ++d) msg.costs.push_back(cost[d]);
  }
  return msg;
}

bool DecodeOpenFrontier(const uint8_t* data, size_t size,
                        OpenFrontierMsg* out) {
  ByteReader r(data, size);
  uint8_t num_objectives = 0;
  if (!r.GetString(&out->query_id) || !r.GetU8(&num_objectives) ||
      !r.GetBytes(&out->objectives, num_objectives) ||
      !r.GetI8(&out->algorithm) || !r.GetF64(&out->alpha) ||
      !r.GetI32(&out->parallelism) || !r.GetF64(&out->alpha_start) ||
      !r.GetF64(&out->alpha_target) || !r.GetI32(&out->max_steps) ||
      !r.GetI64(&out->step_deadline_ms) || !r.GetU8(&out->quick_first)) {
    return false;
  }
  return r.exhausted();
}

bool DecodeSelect(const uint8_t* data, size_t size, SelectMsg* out) {
  ByteReader r(data, size);
  if (!r.GetU64(&out->tag) || !r.GetF64Vector(&out->weights) ||
      !r.GetF64Vector(&out->bounds)) {
    return false;
  }
  return r.exhausted();
}

bool DecodeFrontierUpdate(const uint8_t* data, size_t size,
                          FrontierUpdateMsg* out) {
  ByteReader r(data, size);
  uint32_t num_plans = 0;
  uint8_t dims = 0;
  if (!r.GetI32(&out->step) || !r.GetF64(&out->alpha) ||
      !r.GetU8(&out->from_cache) || !r.GetF64(&out->step_ms) ||
      !r.GetU32(&num_plans) || !r.GetU8(&dims)) {
    return false;
  }
  out->dims = dims;
  const uint64_t count = static_cast<uint64_t>(num_plans) * dims;
  if (r.remaining() / 8 < count) return false;
  out->costs.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (!r.GetF64(&out->costs[i])) return false;
  }
  return r.exhausted();
}

bool DecodeSelectResult(const uint8_t* data, size_t size,
                        SelectResultMsg* out) {
  ByteReader r(data, size);
  if (!r.GetU64(&out->tag) || !r.GetI32(&out->step) ||
      !r.GetF64(&out->alpha) || !r.GetI32(&out->plan_index) ||
      !r.GetF64(&out->weighted_cost) || !r.GetF64Vector(&out->cost)) {
    return false;
  }
  return r.exhausted();
}

bool DecodeDone(const uint8_t* data, size_t size, DoneMsg* out) {
  ByteReader r(data, size);
  if (!r.GetU8(&out->target_reached) || !r.GetU8(&out->cancelled) ||
      !r.GetU8(&out->degraded) || !r.GetU8(&out->shed) ||
      !r.GetU8(&out->rejected) || !r.GetI32(&out->steps_published) ||
      !r.GetF64(&out->best_alpha)) {
    return false;
  }
  return r.exhausted();
}

bool DecodeError(const uint8_t* data, size_t size, ErrorMsg* out) {
  ByteReader r(data, size);
  if (!r.GetU8(&out->code) || !r.GetString(&out->message)) return false;
  return r.exhausted();
}

FrameDecoder::Status FrameDecoder::Next(MsgType* type,
                                        std::vector<uint8_t>* payload) {
  if (broken_ != Status::kFrame) return broken_;
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its read buffer unboundedly.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  ByteReader reader(buffer_.data() + consumed_, buffer_.size() - consumed_);
  uint16_t magic = 0;
  uint8_t version = 0, type_byte = 0;
  uint32_t payload_len = 0;
  if (!reader.GetU16(&magic) || !reader.GetU8(&version) ||
      !reader.GetU8(&type_byte) || !reader.GetU32(&payload_len)) {
    return Status::kNeedMore;
  }
  if (magic != kMagic || version != kProtocolVersion) {
    broken_ = Status::kBadHeader;
    return broken_;
  }
  if (payload_len > max_frame_bytes_) {
    broken_ = Status::kOversized;
    return broken_;
  }
  if (!reader.GetBytes(payload, payload_len)) return Status::kNeedMore;
  *type = static_cast<MsgType>(type_byte);
  consumed_ += reader.position();
  return Status::kFrame;
}

}  // namespace net
}  // namespace moqo
