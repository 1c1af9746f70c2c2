// Copyright (c) 2026 moqo authors. MIT license.
//
// Wire-codec tests (PR 7): every message type round-trips bit-exactly,
// the incremental FrameDecoder survives arbitrarily torn reads, and
// malformed input (oversized declarations, garbage headers, truncated
// payloads) is rejected, never buffered. Also covers the PushQueue
// newest-wins backpressure policy, which is deterministic here and only
// timing-dependent through a real socket.

#include "net/wire.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/push_queue.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Feeds one encoded frame through a decoder and returns its payload,
/// asserting type and clean consumption.
std::vector<uint8_t> DecodeOneFrame(const std::string& frame,
                                    MsgType expected_type) {
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  MsgType type;
  std::vector<uint8_t> payload;
  EXPECT_EQ(decoder.Next(&type, &payload), FrameDecoder::Status::kFrame);
  EXPECT_EQ(type, expected_type);
  EXPECT_EQ(decoder.Next(&type, &payload), FrameDecoder::Status::kNeedMore);
  return payload;
}

TEST(NetFrameTest, OpenFrontierRoundTripsEveryField) {
  OpenFrontierMsg msg;
  msg.query_id = "tpch_q5";
  msg.objectives = {0, 2, 5};
  msg.algorithm = 1;
  msg.alpha = 1.25;
  msg.parallelism = 4;
  msg.alpha_start = 8.0;
  msg.alpha_target = 1.0625;
  msg.max_steps = 6;
  msg.step_deadline_ms = 1500;
  msg.quick_first = 0;

  const std::vector<uint8_t> payload =
      DecodeOneFrame(EncodeOpenFrontier(msg), MsgType::kOpenFrontier);
  OpenFrontierMsg decoded;
  ASSERT_TRUE(DecodeOpenFrontier(payload.data(), payload.size(), &decoded));
  EXPECT_EQ(decoded.query_id, msg.query_id);
  EXPECT_EQ(decoded.objectives, msg.objectives);
  EXPECT_EQ(decoded.algorithm, msg.algorithm);
  EXPECT_EQ(decoded.alpha, msg.alpha);
  EXPECT_EQ(decoded.parallelism, msg.parallelism);
  EXPECT_EQ(decoded.alpha_start, msg.alpha_start);
  EXPECT_EQ(decoded.alpha_target, msg.alpha_target);
  EXPECT_EQ(decoded.max_steps, msg.max_steps);
  EXPECT_EQ(decoded.step_deadline_ms, msg.step_deadline_ms);
  EXPECT_EQ(decoded.quick_first, msg.quick_first);
}

TEST(NetFrameTest, SelectRoundTripsWeightsAndBounds) {
  SelectMsg msg;
  msg.tag = 0xdeadbeefcafe1234ull;
  msg.weights = {0.5, 0.25, 1.0 / 3.0};  // 1/3 is not exactly representable.
  msg.bounds = {kInf, 42.5, kInf};

  const std::vector<uint8_t> payload =
      DecodeOneFrame(EncodeSelect(msg), MsgType::kSelect);
  SelectMsg decoded;
  ASSERT_TRUE(DecodeSelect(payload.data(), payload.size(), &decoded));
  EXPECT_EQ(decoded.tag, msg.tag);
  EXPECT_EQ(decoded.weights, msg.weights);  // Bit-exact, including +inf.
  EXPECT_EQ(decoded.bounds, msg.bounds);
}

TEST(NetFrameTest, FrontierUpdateCostMatrixIsBitExact) {
  FrontierUpdateMsg msg;
  msg.step = 3;
  msg.alpha = kInf;  // The quick-mode frontier's "no guarantee" alpha.
  msg.from_cache = 1;
  msg.step_ms = 0.125;
  msg.dims = 3;
  // Values chosen to have non-trivial mantissas.
  msg.costs = {1.0 / 3.0, 2.0 / 7.0, 1e-300, 3.14159265358979,
               1e300,     0.1,       0.2,    0.3, 123456.789};

  const std::vector<uint8_t> payload =
      DecodeOneFrame(EncodeFrontierUpdate(msg), MsgType::kFrontierUpdate);
  FrontierUpdateMsg decoded;
  ASSERT_TRUE(
      DecodeFrontierUpdate(payload.data(), payload.size(), &decoded));
  EXPECT_EQ(decoded.step, msg.step);
  EXPECT_EQ(decoded.alpha, msg.alpha);
  EXPECT_EQ(decoded.from_cache, msg.from_cache);
  EXPECT_EQ(decoded.step_ms, msg.step_ms);
  EXPECT_EQ(decoded.dims, msg.dims);
  EXPECT_EQ(decoded.num_plans(), 3u);
  EXPECT_EQ(decoded.costs, msg.costs);
  // Bit-exactness, not just value equality: re-encoding reproduces the
  // identical frame.
  EXPECT_EQ(EncodeFrontierUpdate(decoded), EncodeFrontierUpdate(msg));
}

TEST(NetFrameTest, SelectResultDoneAndErrorRoundTrip) {
  SelectResultMsg result;
  result.tag = 7;
  result.step = 2;
  result.alpha = 1.5;
  result.plan_index = 4;
  result.weighted_cost = 99.75;
  result.cost = {1.5, 2.5};
  std::vector<uint8_t> payload =
      DecodeOneFrame(EncodeSelectResult(result), MsgType::kSelectResult);
  SelectResultMsg result_decoded;
  ASSERT_TRUE(DecodeSelectResult(payload.data(), payload.size(),
                                 &result_decoded));
  EXPECT_EQ(result_decoded.tag, result.tag);
  EXPECT_EQ(result_decoded.step, result.step);
  EXPECT_EQ(result_decoded.plan_index, result.plan_index);
  EXPECT_EQ(result_decoded.weighted_cost, result.weighted_cost);
  EXPECT_EQ(result_decoded.cost, result.cost);

  DoneMsg done;
  done.target_reached = 1;
  done.shed = 1;
  done.steps_published = 5;
  done.best_alpha = 1.0625;
  payload = DecodeOneFrame(EncodeDone(done), MsgType::kDone);
  DoneMsg done_decoded;
  ASSERT_TRUE(DecodeDone(payload.data(), payload.size(), &done_decoded));
  EXPECT_EQ(done_decoded.target_reached, 1);
  EXPECT_EQ(done_decoded.cancelled, 0);
  EXPECT_EQ(done_decoded.shed, 1);
  EXPECT_EQ(done_decoded.steps_published, 5);
  EXPECT_EQ(done_decoded.best_alpha, done.best_alpha);

  payload = DecodeOneFrame(EncodeError(ErrorCode::kUnknownQuery, "no q17"),
                           MsgType::kError);
  ErrorMsg error;
  ASSERT_TRUE(DecodeError(payload.data(), payload.size(), &error));
  EXPECT_EQ(error.code, static_cast<uint8_t>(ErrorCode::kUnknownQuery));
  EXPECT_EQ(error.message, "no q17");

  // The two bodyless client frames.
  EXPECT_TRUE(DecodeOneFrame(EncodeCancel(), MsgType::kCancel).empty());
  EXPECT_TRUE(DecodeOneFrame(EncodeClose(), MsgType::kClose).empty());
}

// Golden frames: every message type's exact bytes, pinned. A client
// built against an older release decodes these bytes, so an encoder
// refactor must reproduce them byte for byte.
TEST(NetFrameTest, GoldenFramesForEveryMessageType) {
  // A NaN with a payload: the bit pattern, not just NaN-ness, must travel.
  const double kNaN = std::bit_cast<double>(uint64_t{0x7ff8000000c0ffeeull});
  OpenFrontierMsg open;
  open.query_id = "tpch_q5";
  open.objectives = {0, 2, 5};
  open.algorithm = -1;
  open.alpha = 1.25;
  open.parallelism = -4;
  open.alpha_start = 8.0;
  open.alpha_target = 1.0 / 3.0;
  open.max_steps = 6;
  open.step_deadline_ms = -1500;
  open.quick_first = 0;
  testing::ExpectGoldenBytes(EncodeOpenFrontier(open), 65,
                             16322584412578915971ull);

  SelectMsg select;
  select.tag = 0xdeadbeefcafe1234ull;
  select.weights = {0.5, -0.0, 5e-324};
  select.bounds = {kInf, 42.5};
  testing::ExpectGoldenBytes(EncodeSelect(select), 64, 16615103455124907230ull);

  testing::ExpectGoldenBytes(EncodeCancel(), 8, 51388228314038622ull);
  testing::ExpectGoldenBytes(EncodeClose(), 8, 51388228608538543ull);

  FrontierUpdateMsg update;
  update.step = 3;
  update.alpha = kInf;
  update.from_cache = 1;
  update.step_ms = 0.125;
  update.dims = 2;
  update.costs = {1.0 / 3.0, kNaN, -0.0, 1e300, 2.0 / 7.0, 5e-324};
  testing::ExpectGoldenBytes(EncodeFrontierUpdate(update), 82,
                             15390057904219197872ull);

  SelectResultMsg result;
  result.tag = 7;
  result.step = -2;
  result.alpha = 1.5;
  result.plan_index = 4;
  result.weighted_cost = 99.75;
  result.cost = {1.5, -kInf};
  testing::ExpectGoldenBytes(EncodeSelectResult(result), 60,
                             11089992795055789625ull);

  DoneMsg done;
  done.target_reached = 1;
  done.degraded = 1;
  done.rejected = 1;
  done.steps_published = 5;
  done.best_alpha = 1.0625;
  testing::ExpectGoldenBytes(EncodeDone(done), 25, 4622221420208596188ull);

  testing::ExpectGoldenBytes(EncodeError(ErrorCode::kTimeout, "no q17"), 19,
                             5557598749022447745ull);
}

TEST(NetFrameTest, DecoderReassemblesByteByByteFeed) {
  // Worst-case torn reads: three frames delivered one byte at a time must
  // come out whole, in order.
  SelectMsg select;
  select.tag = 42;
  select.weights = {1.0, 2.0};
  const std::string stream =
      EncodeCancel() + EncodeSelect(select) + EncodeClose();

  FrameDecoder decoder;
  std::vector<MsgType> types;
  MsgType type;
  std::vector<uint8_t> payload;
  for (char byte : stream) {
    decoder.Feed(&byte, 1);
    while (decoder.Next(&type, &payload) == FrameDecoder::Status::kFrame) {
      types.push_back(type);
      if (type == MsgType::kSelect) {
        SelectMsg decoded;
        EXPECT_TRUE(DecodeSelect(payload.data(), payload.size(), &decoded));
        EXPECT_EQ(decoded.tag, 42u);
      }
    }
  }
  EXPECT_EQ(types, (std::vector<MsgType>{MsgType::kCancel, MsgType::kSelect,
                                         MsgType::kClose}));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(NetFrameTest, OversizedDeclarationIsFatalAndSticky) {
  FrameDecoder decoder(/*max_frame_bytes=*/64);
  // A header declaring a 65-byte payload: legal magic/version, too big.
  OpenFrontierMsg msg;
  msg.query_id = std::string(100, 'x');  // Payload well over 64 bytes.
  const std::string frame = EncodeOpenFrontier(msg);
  decoder.Feed(frame.data(), frame.size());
  MsgType type;
  std::vector<uint8_t> payload;
  EXPECT_EQ(decoder.Next(&type, &payload),
            FrameDecoder::Status::kOversized);
  // Sticky: feeding a perfectly valid frame afterwards cannot resync.
  const std::string ok = EncodeCancel();
  decoder.Feed(ok.data(), ok.size());
  EXPECT_EQ(decoder.Next(&type, &payload),
            FrameDecoder::Status::kOversized);
}

TEST(NetFrameTest, GarbageHeaderIsFatal) {
  FrameDecoder decoder;
  const char garbage[] = "GET / HTTP/1.1\r\n";  // Wrong protocol entirely.
  decoder.Feed(garbage, sizeof(garbage) - 1);
  MsgType type;
  std::vector<uint8_t> payload;
  EXPECT_EQ(decoder.Next(&type, &payload),
            FrameDecoder::Status::kBadHeader);

  // Wrong version with the right magic is equally fatal.
  FrameDecoder versioned;
  std::string frame = EncodeCancel();
  frame[2] = 9;  // version byte
  versioned.Feed(frame.data(), frame.size());
  EXPECT_EQ(versioned.Next(&type, &payload),
            FrameDecoder::Status::kBadHeader);
}

TEST(NetFrameTest, TruncatedAndOverlongPayloadsFailDecode) {
  SelectMsg msg;
  msg.tag = 9;
  msg.weights = {1.0, 2.0, 3.0};
  const std::string frame = EncodeSelect(msg);
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(frame.data()) + kHeaderBytes;
  const size_t payload_size = frame.size() - kHeaderBytes;

  SelectMsg decoded;
  ASSERT_TRUE(DecodeSelect(payload, payload_size, &decoded));
  // Every strict prefix fails cleanly.
  for (size_t cut = 0; cut < payload_size; ++cut) {
    EXPECT_FALSE(DecodeSelect(payload, cut, &decoded)) << "cut=" << cut;
  }
  // Trailing junk is rejected too (payload length must match exactly).
  std::vector<uint8_t> padded(payload, payload + payload_size);
  padded.push_back(0);
  EXPECT_FALSE(DecodeSelect(padded.data(), padded.size(), &decoded));

  // A hostile element count that promises more doubles than bytes remain
  // must be rejected, not allocated.
  std::vector<uint8_t> hostile = {8, 0, 0, 0, 0, 0, 0, 0,  // tag
                                  0xff, 0xff, 0xff, 0x7f};  // count 2^31-1
  EXPECT_FALSE(DecodeSelect(hostile.data(), hostile.size(), &decoded));
}

TEST(NetFrameTest, PushQueueDropsOldestFrontierNeverControl) {
  PushQueue queue(/*max_queued_pushes=*/2);
  EXPECT_EQ(queue.Push("f0", true, 0), 0u);
  EXPECT_EQ(queue.Push("done", false, 0), 0u);
  EXPECT_EQ(queue.Push("f1", true, 0), 0u);
  // Third frontier frame: f0 (the oldest update) goes, DONE stays.
  EXPECT_EQ(queue.Push("f2", true, 0), 1u);
  std::vector<std::string> order;
  while (!queue.empty()) {
    order.push_back(queue.front().bytes);
    queue.pop_front();
  }
  EXPECT_EQ(order, (std::vector<std::string>{"done", "f1", "f2"}));

  // Control frames are never dropped, no matter how many queue up.
  PushQueue controls(/*max_queued_pushes=*/1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(controls.Push("c", false, 0), 0u);
  EXPECT_EQ(controls.size(), 10u);
}

TEST(NetFrameTest, PushQueuePinsPartiallyWrittenHead) {
  PushQueue queue(/*max_queued_pushes=*/1);
  queue.Push("f0", true, 0);
  // f0's first bytes are already on the wire: it must not be dropped, so
  // the NEXT oldest frontier frame gives way instead.
  EXPECT_EQ(queue.Push("f1", true, /*head_bytes_written=*/1), 0u);
  EXPECT_EQ(queue.Push("f2", true, /*head_bytes_written=*/1), 1u);
  std::vector<std::string> order;
  while (!queue.empty()) {
    order.push_back(queue.front().bytes);
    queue.pop_front();
  }
  EXPECT_EQ(order, (std::vector<std::string>{"f0", "f2"}));
}

}  // namespace
}  // namespace net
}  // namespace moqo
