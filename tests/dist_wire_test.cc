// Wire-layer tests of the distributed subsystem (src/dist/wire.h,
// core/merge.h suffstat codec, util/net.h framing): the encodings must
// round-trip every bit — the whole determinism contract of
// docs/DISTRIBUTED.md rests on serialize -> parse -> merge being
// indistinguishable from merging in process.

#include <sys/socket.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/em.h"
#include "core/gaussian_mixture.h"
#include "core/merge.h"
#include "dist/wire.h"
#include "testutil/gmreg_testutil.h"
#include "util/net.h"
#include "util/parallel.h"

namespace gmreg {
namespace {

using ::gmreg::testing::MakeBimodalWeights;

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::uint32_t Bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void ExpectStatsBitwiseEqual(const GmSuffStats& a, const GmSuffStats& b) {
  ASSERT_EQ(a.resp_sum.size(), b.resp_sum.size());
  EXPECT_EQ(a.count, b.count);
  for (std::size_t k = 0; k < a.resp_sum.size(); ++k) {
    EXPECT_EQ(Bits(a.resp_sum[k]), Bits(b.resp_sum[k])) << "resp_sum " << k;
    EXPECT_EQ(Bits(a.resp_w2_sum[k]), Bits(b.resp_w2_sum[k]))
        << "resp_w2_sum " << k;
  }
}

// --------------------------------------------------------------------------
// Suffstat hex-float codec (core/merge.h)
// --------------------------------------------------------------------------

TEST(SuffStatCodecTest, RoundTripsAdversarialBitPatterns) {
  GmSuffStats stats;
  stats.Reset(4);
  stats.count = (std::int64_t{1} << 40) + 17;
  // The values %g-style text would mangle: subnormals, negative zero, the
  // extremes of the double range, and a value with a full 53-bit mantissa.
  stats.resp_sum = {std::numeric_limits<double>::denorm_min(), -0.0,
                    std::numeric_limits<double>::max(),
                    0.1 + 0.2};  // 0.30000000000000004, not 0.3
  stats.resp_w2_sum = {std::numeric_limits<double>::min(), 1.0 / 3.0,
                       6.02214076e23, 5e-324};
  GmSuffStats decoded;
  Status st = DecodeGmSuffStats(EncodeGmSuffStats(stats), &decoded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectStatsBitwiseEqual(stats, decoded);
}

TEST(SuffStatCodecTest, WireMergeMatchesInProcessMergeBitwise) {
  // Genuine per-slice statistics from real E-step passes, folded two ways:
  // in process (GmSuffStats::Merge) and through the wire codec
  // (MergeEncodedSuffStats) — the exact computation the coordinator runs
  // on worker replies. Bitwise equality is the claim dist training leans
  // on.
  GaussianMixture gm = GaussianMixture::Initialize(4, GmInitMethod::kLinear,
                                                   /*min_precision=*/2.5);
  std::vector<float> w = MakeBimodalWeights(4096, /*seed=*/123);
  const int kSlices = 4;
  GmSuffStats merged_direct;
  merged_direct.Reset(gm.num_components());
  std::vector<std::string> encoded;
  for (int s = 0; s < kSlices; ++s) {
    auto [begin, end] = ShardRange(s, kSlices, 0,
                                   static_cast<std::int64_t>(w.size()));
    GmSuffStats slice;
    slice.Reset(gm.num_components());
    EStep(gm, w.data() + begin, end - begin, /*greg_out=*/nullptr, &slice,
          /*num_threads=*/1);
    merged_direct.Merge(slice);
    encoded.push_back(EncodeGmSuffStats(slice));
  }
  GmSuffStats merged_wire;
  merged_wire.Reset(gm.num_components());
  Status st = MergeEncodedSuffStats(encoded, &merged_wire);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectStatsBitwiseEqual(merged_direct, merged_wire);
}

TEST(SuffStatCodecTest, RejectsMalformedRecords) {
  GmSuffStats out;
  out.Reset(2);
  // Wrong magic / version.
  EXPECT_EQ(DecodeGmSuffStats("nonsense v1 2 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0",
                              &out)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeGmSuffStats(
                "gm-suffstats v9 2 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0", &out)
                .code(),
            StatusCode::kInvalidArgument);
  // K and count bounds.
  EXPECT_EQ(DecodeGmSuffStats("gm-suffstats v1 0 0", &out).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(DecodeGmSuffStats("gm-suffstats v1 1 -3 0x0p+0 0x0p+0", &out)
                .code(),
            StatusCode::kOutOfRange);
  // Truncation, non-finite values, trailing garbage.
  EXPECT_EQ(DecodeGmSuffStats("gm-suffstats v1 2 5 0x1p+0", &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeGmSuffStats("gm-suffstats v1 1 5 inf 0x0p+0", &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeGmSuffStats(
                "gm-suffstats v1 1 5 0x1p+0 0x1p+0 surprise", &out)
                .code(),
            StatusCode::kInvalidArgument);
  // A non-numeric token where a value belongs.
  EXPECT_EQ(
      DecodeGmSuffStats("gm-suffstats v1 1 5 zebra 0x1p+0", &out).code(),
      StatusCode::kInvalidArgument);
}

TEST(SuffStatCodecTest, BoundsComponentCount) {
  GmSuffStats stats;
  stats.Reset(kMaxGmComponents);
  stats.count = 7;
  GmSuffStats out;
  Status st = DecodeGmSuffStats(EncodeGmSuffStats(stats), &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out.resp_sum.size(), static_cast<std::size_t>(kMaxGmComponents));
  stats.Reset(kMaxGmComponents + 1);
  EXPECT_EQ(DecodeGmSuffStats(EncodeGmSuffStats(stats), &out).code(),
            StatusCode::kOutOfRange);
}

TEST(SuffStatCodecTest, MergeRejectsComponentCountMismatch) {
  GmSuffStats three;
  three.Reset(3);
  GmSuffStats out;
  out.Reset(2);
  Status st = MergeEncodedSuffStats({EncodeGmSuffStats(three)}, &out);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

// --------------------------------------------------------------------------
// Message payload codecs (dist/wire.h)
// --------------------------------------------------------------------------

TEST(WireMessageTest, GradMessagesRoundTripExactFloats) {
  GradRequestMsg request;
  request.step = 12345678901LL;
  request.epoch = 7;
  request.params = {{1.5f, -0.0f, std::numeric_limits<float>::denorm_min()},
                    {std::numeric_limits<float>::max()},
                    {}};
  GradRequestMsg request2;
  Status st = GradRequestMsg::Decode(request.Encode(), &request2);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(request2.step, request.step);
  EXPECT_EQ(request2.epoch, request.epoch);
  ASSERT_EQ(request2.params.size(), request.params.size());
  for (std::size_t k = 0; k < request.params.size(); ++k) {
    ASSERT_EQ(request2.params[k].size(), request.params[k].size());
    for (std::size_t i = 0; i < request.params[k].size(); ++i) {
      EXPECT_EQ(Bits(request2.params[k][i]), Bits(request.params[k][i]));
    }
  }

  GradReplyMsg reply;
  reply.step = 42;
  reply.loss = 0.1 + 0.2;
  reply.grads = {{-1e-30f, 3.0f}, {0.0f}};
  GradReplyMsg reply2;
  st = GradReplyMsg::Decode(reply.Encode(), &reply2);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(reply2.step, reply.step);
  EXPECT_EQ(Bits(reply2.loss), Bits(reply.loss));
  ASSERT_EQ(reply2.grads.size(), 2u);
  EXPECT_EQ(Bits(reply2.grads[0][0]), Bits(reply.grads[0][0]));
}

TEST(WireMessageTest, EStepRequestBoundsComponentCount) {
  // The worker runs the request's mixture through the E-step, which holds
  // one value per component on the stack.
  EStepRequestMsg request;
  request.want_greg = true;
  request.w = {0.5f};
  for (int k : {kMaxGmComponents, kMaxGmComponents + 1}) {
    request.pi.assign(static_cast<std::size_t>(k), 1.0 / k);
    request.lambda.assign(static_cast<std::size_t>(k), 4.0);
    EStepRequestMsg decoded;
    Status st = EStepRequestMsg::Decode(request.Encode(), &decoded);
    if (k <= kMaxGmComponents) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(decoded.pi.size(), static_cast<std::size_t>(k));
    } else {
      EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
    }
  }
}

TEST(WireMessageTest, EStepMessagesRoundTrip) {
  EStepRequestMsg request;
  request.seq = 9;
  request.want_greg = true;
  request.want_stats = true;
  request.pi = {0.25, 0.75};
  request.lambda = {1.0 / 3.0, 512.0};
  request.slice_begin = 1000;
  request.w = {0.5f, -0.5f, 1e-20f};
  EStepRequestMsg request2;
  Status st = EStepRequestMsg::Decode(request.Encode(), &request2);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(request2.seq, request.seq);
  EXPECT_TRUE(request2.want_greg);
  EXPECT_TRUE(request2.want_stats);
  EXPECT_EQ(Bits(request2.lambda[0]), Bits(request.lambda[0]));
  EXPECT_EQ(request2.slice_begin, 1000);
  ASSERT_EQ(request2.w.size(), 3u);
  EXPECT_EQ(Bits(request2.w[2]), Bits(request.w[2]));

  EStepReplyMsg reply;
  reply.seq = 9;
  reply.greg = {1.0f, 2.0f};
  reply.stats_encoded = "gm-suffstats v1 1 2 0x1p+0 0x1p+1";
  EStepReplyMsg reply2;
  st = EStepReplyMsg::Decode(reply.Encode(), &reply2);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(reply2.greg, reply.greg);
  EXPECT_EQ(reply2.stats_encoded, reply.stats_encoded);

  // Empty sections stay empty through the round trip.
  EStepReplyMsg sparse;
  sparse.seq = 10;
  EStepReplyMsg sparse2;
  st = EStepReplyMsg::Decode(sparse.Encode(), &sparse2);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(sparse2.greg.empty());
  EXPECT_TRUE(sparse2.stats_encoded.empty());
}

TEST(WireMessageTest, RejectsTruncatedAndOversizedPayloads) {
  GradRequestMsg request;
  request.step = 1;
  request.params = {{1.0f, 2.0f}};
  std::string payload = request.Encode();
  GradRequestMsg out;
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(GradRequestMsg::Decode(payload.substr(0, cut), &out).ok())
        << "prefix of " << cut << " bytes decoded";
  }
  // Trailing garbage is an error too.
  EXPECT_FALSE(GradRequestMsg::Decode(payload + "x", &out).ok());
  // A parameter-count header beyond the cap is rejected without allocating.
  WireWriter huge;
  huge.PutI64(0);
  huge.PutI64(0);
  huge.PutU32(1u << 20);
  EXPECT_FALSE(GradRequestMsg::Decode(huge.payload(), &out).ok());

  HelloMsg hello;
  EXPECT_FALSE(HelloMsg::Decode("abc", &hello).ok());
  // rank >= world is out of range.
  HelloMsg bad;
  bad.rank = 3;
  bad.world = 2;
  std::string encoded = bad.Encode();
  EXPECT_EQ(HelloMsg::Decode(encoded, &hello).code(),
            StatusCode::kOutOfRange);
}

// --------------------------------------------------------------------------
// Framing over a real socket pair (util/net.h)
// --------------------------------------------------------------------------

TEST(FrameIoTest, RoundTripsFramesOverSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "binary\0payload" + std::string(1000, '\x7f');
  ASSERT_TRUE(WriteFrame(fds[0], 3, payload).ok());
  ASSERT_TRUE(WriteFrame(fds[0], 7, "").ok());
  std::uint8_t type = 0;
  std::string got;
  ASSERT_TRUE(ReadFrame(fds[1], &type, &got).ok());
  EXPECT_EQ(type, 3);
  EXPECT_EQ(got, payload);
  ASSERT_TRUE(ReadFrame(fds[1], &type, &got).ok());
  EXPECT_EQ(type, 7);
  EXPECT_TRUE(got.empty());
  CloseFd(fds[0]);
  // EOF surfaces as Unavailable, the signal the coordinator treats as a
  // dead worker.
  Status st = ReadFrame(fds[1], &type, &got);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  CloseFd(fds[1]);
}

TEST(FrameIoTest, EnforcesThePayloadCap) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(WriteFrame(fds[0], 1, std::string(64, 'a')).ok());
  std::uint8_t type = 0;
  std::string got;
  Status st = ReadFrame(fds[1], &type, &got, /*max_payload=*/16);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  CloseFd(fds[0]);
  CloseFd(fds[1]);
}

}  // namespace
}  // namespace gmreg
