// The determinism contract of src/dist (docs/DISTRIBUTED.md): a distributed
// run over W workers is bitwise identical to the single-process local-
// sharded reference over the same W, and W = 1 degenerates to the vanilla
// trainer. Workers here are std::threads over real loopback sockets
// (WorkerLaunch::kThread) so the whole exchange — weight broadcast,
// gradient fold, E-step slice merge — runs under the sanitizers too.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "dist/launcher.h"
#include "testutil/gmreg_testutil.h"
#include "util/json_writer.h"
#include "util/metrics.h"

namespace gmreg {
namespace {

using ::gmreg::testing::ExpectTensorBitwiseEqual;
using ::gmreg::testing::TempPath;

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

DistJobSpec MakeSpec() {
  DistJobSpec spec;
  spec.dataset = "climate-model";  // 540 x 18: fast, still multi-batch
  spec.epochs = 2;
  spec.batch_size = 32;
  spec.hidden = 8;
  return spec;
}

// Everything RunDistJob surfaces must match bit for bit: per-epoch loss and
// penalty, the final weights, and each regularizer's learned mixture and
// cached greg. Wall clock is the only tolerated difference.
void ExpectResultsBitwiseEqual(const DistRunResult& a, const DistRunResult& b,
                               const std::string& what) {
  ASSERT_EQ(a.stats.size(), b.stats.size()) << what;
  for (std::size_t e = 0; e < a.stats.size(); ++e) {
    EXPECT_EQ(a.stats[e].epoch, b.stats[e].epoch) << what;
    EXPECT_EQ(Bits(a.stats[e].mean_loss), Bits(b.stats[e].mean_loss))
        << what << " epoch " << e << " mean_loss " << a.stats[e].mean_loss
        << " vs " << b.stats[e].mean_loss;
    EXPECT_EQ(Bits(a.stats[e].penalty), Bits(b.stats[e].penalty))
        << what << " epoch " << e << " penalty";
  }
  ASSERT_EQ(a.param_names, b.param_names) << what;
  ASSERT_EQ(a.params.size(), b.params.size()) << what;
  for (std::size_t p = 0; p < a.params.size(); ++p) {
    ExpectTensorBitwiseEqual(a.params[p], b.params[p],
                             what + " param " + a.param_names[p]);
  }
  ASSERT_EQ(a.pi.size(), b.pi.size()) << what;
  for (std::size_t r = 0; r < a.pi.size(); ++r) {
    ASSERT_EQ(a.pi[r].size(), b.pi[r].size()) << what;
    for (std::size_t k = 0; k < a.pi[r].size(); ++k) {
      EXPECT_EQ(Bits(a.pi[r][k]), Bits(b.pi[r][k]))
          << what << " reg " << r << " pi " << k;
      EXPECT_EQ(Bits(a.lambda[r][k]), Bits(b.lambda[r][k]))
          << what << " reg " << r << " lambda " << k;
    }
  }
  ASSERT_EQ(a.gregs.size(), b.gregs.size()) << what;
  for (std::size_t r = 0; r < a.gregs.size(); ++r) {
    ExpectTensorBitwiseEqual(a.gregs[r], b.gregs[r], what + " greg");
  }
}

TEST(DistTrainTest, WorldOfOneMatchesVanillaTrainer) {
  DistJobSpec spec = MakeSpec();
  DistRunResult single, dist1;
  ASSERT_TRUE(RunSingleProcessJob(spec, &single).ok());
  ASSERT_TRUE(RunDistJob(spec, 1, WorkerLaunch::kThread, &dist1).ok());
  ASSERT_EQ(dist1.stats.size(), 2u);
  ExpectResultsBitwiseEqual(dist1, single, "dist(1) vs single");
}

TEST(DistTrainTest, TwoWorkersMatchLocalShardedReference) {
  DistJobSpec spec = MakeSpec();
  DistRunResult local2, dist2;
  ASSERT_TRUE(RunLocalShardedJob(spec, 2, &local2).ok());
  ASSERT_TRUE(RunDistJob(spec, 2, WorkerLaunch::kThread, &dist2).ok());
  ExpectResultsBitwiseEqual(dist2, local2, "dist(2) vs local(2)");
}

TEST(DistTrainTest, FourWorkersMatchLocalShardedReference) {
  DistJobSpec spec = MakeSpec();
  DistRunResult local4, dist4;
  ASSERT_TRUE(RunLocalShardedJob(spec, 4, &local4).ok());
  ASSERT_TRUE(RunDistJob(spec, 4, WorkerLaunch::kThread, &dist4).ok());
  ExpectResultsBitwiseEqual(dist4, local4, "dist(4) vs local(4)");
}

// Every step of MakeSpec's job is inside the GM warm-up (2 epochs), so
// each step is one gradient round plus, per GM tensor, ONE E-step round
// that returns the greg and the suffstats together: S * (1 + T) rounds.
TEST(DistTrainTest, EagerStepSendsOneEStepRoundPerTensor) {
  DistJobSpec spec = MakeSpec();
  std::int64_t steps =
      spec.epochs * BatchesPerEpoch(spec, BuildJobDataset(spec));
  ASSERT_EQ(steps, 32);
  Counter* rounds = MetricsRegistry::Global().counter("gm.dist.rounds");
  std::int64_t before = rounds->value();
  DistRunResult dist2;
  ASSERT_TRUE(RunDistJob(spec, 2, WorkerLaunch::kThread, &dist2).ok());
  auto tensors = static_cast<std::int64_t>(dist2.pi.size());
  ASSERT_EQ(tensors, 2);
  EXPECT_EQ(rounds->value() - before, steps * (1 + tensors));
}

TEST(DistTrainTest, UnregularizedJobStillMatches) {
  // No GM regularizer: the E-step path is off, only the gradient allreduce
  // is under test.
  DistJobSpec spec = MakeSpec();
  spec.use_gm_reg = false;
  DistRunResult local2, dist2;
  ASSERT_TRUE(RunLocalShardedJob(spec, 2, &local2).ok());
  ASSERT_TRUE(RunDistJob(spec, 2, WorkerLaunch::kThread, &dist2).ok());
  EXPECT_TRUE(dist2.pi.empty());
  ExpectResultsBitwiseEqual(dist2, local2, "no-reg dist(2) vs local(2)");
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Two trace lines must agree on every field except wall-clock-derived ones
// (same predicate as checkpoint_test.cc: any key containing "seconds").
void ExpectSameDeterministicFields(const std::string& dist_line,
                                   const std::string& ref_line, int epoch) {
  JsonValue a, b;
  ASSERT_TRUE(JsonValue::Parse(dist_line, &a).ok()) << dist_line;
  ASSERT_TRUE(JsonValue::Parse(ref_line, &b).ok()) << ref_line;
  ASSERT_TRUE(a.is_object());
  ASSERT_TRUE(b.is_object());
  ASSERT_EQ(a.members.size(), b.members.size()) << "epoch " << epoch;
  for (const auto& [key, value] : a.members) {
    if (key.find("seconds") != std::string::npos) continue;
    const JsonValue* other = b.Find(key);
    ASSERT_NE(other, nullptr) << "epoch " << epoch << " missing " << key;
    ASSERT_EQ(static_cast<int>(value.kind), static_cast<int>(other->kind))
        << "epoch " << epoch << " field " << key;
    switch (value.kind) {
      case JsonValue::Kind::kNumber:
        EXPECT_EQ(value.number, other->number)
            << "epoch " << epoch << " field " << key
            << " diverged: " << value.number << " vs " << other->number;
        break;
      case JsonValue::Kind::kString:
        EXPECT_EQ(value.string_value, other->string_value)
            << "epoch " << epoch << " field " << key;
        break;
      case JsonValue::Kind::kArray:
        ASSERT_EQ(value.items.size(), other->items.size())
            << "epoch " << epoch << " field " << key;
        for (std::size_t i = 0; i < value.items.size(); ++i) {
          EXPECT_EQ(value.items[i].number, other->items[i].number)
              << "epoch " << epoch << " field " << key << "[" << i << "]";
        }
        break;
      default:
        break;
    }
  }
}

TEST(DistTrainTest, TraceMatchesLocalReferenceFieldByField) {
  // The per-epoch JSONL trace — loss, penalty, lr, learned mixture, lazy-
  // update counters — is part of the contract, not just the in-memory
  // result. Compare every field except wall clock.
  std::string dist_trace = TempPath("dist_trace.jsonl");
  std::string ref_trace = TempPath("dist_ref_trace.jsonl");
  std::remove(dist_trace.c_str());
  std::remove(ref_trace.c_str());

  DistJobSpec spec = MakeSpec();
  spec.metrics_path = ref_trace;
  spec.run_label = "dist_trace_test";
  DistRunResult local2;
  ASSERT_TRUE(RunLocalShardedJob(spec, 2, &local2).ok());

  spec.metrics_path = dist_trace;
  DistRunResult dist2;
  ASSERT_TRUE(RunDistJob(spec, 2, WorkerLaunch::kThread, &dist2).ok());

  std::vector<std::string> dist_lines = ReadLines(dist_trace);
  std::vector<std::string> ref_lines = ReadLines(ref_trace);
  ASSERT_EQ(dist_lines.size(), ref_lines.size());
  ASSERT_EQ(dist_lines.size(), static_cast<std::size_t>(spec.epochs));
  for (std::size_t e = 0; e < dist_lines.size(); ++e) {
    ExpectSameDeterministicFields(dist_lines[e], ref_lines[e],
                                  static_cast<int>(e));
  }
}

}  // namespace
}  // namespace gmreg
