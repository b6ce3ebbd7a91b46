#include <algorithm>
#include <numeric>
#include <ostream>
#include <set>

#include "data/batch.h"
#include "data/cifar_like.h"
#include "data/dataset.h"
#include "data/preprocess.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tabular.h"
#include "gtest/gtest.h"

namespace gmreg {
namespace {

TabularData TinyRaw() {
  // Two continuous columns (one with a missing entry) + one 3-way
  // categorical with a missing entry (assigned category 2).
  TabularData raw;
  raw.name = "tiny";
  Column c0;
  c0.type = ColumnType::kContinuous;
  c0.values = {1.0, 2.0, 3.0, 4.0};
  c0.missing = {false, false, false, false};
  Column c1;
  c1.type = ColumnType::kContinuous;
  c1.values = {10.0, 0.0, 30.0, 20.0};
  c1.missing = {false, true, false, false};
  Column c2;
  c2.type = ColumnType::kCategorical;
  c2.cardinality = 3;
  c2.values = {0.0, 1.0, 0.0, 0.0};
  c2.missing = {false, false, false, true};
  raw.columns = {c0, c1, c2};
  raw.labels = {0, 1, 0, 1};
  return raw;
}

TEST(TabularTest, EncodedWidthAndFeatureType) {
  TabularData raw = TinyRaw();
  EXPECT_EQ(raw.EncodedWidth(), 5);  // 2 continuous + card-3 one-hot
  EXPECT_EQ(raw.FeatureTypeString(), "combined");
  EXPECT_TRUE(raw.Validate().ok());
}

TEST(TabularTest, ValidateCatchesLengthMismatch) {
  TabularData raw = TinyRaw();
  raw.columns[0].values.pop_back();
  EXPECT_FALSE(raw.Validate().ok());
}

TEST(TabularTest, ValidateCatchesBadCategory) {
  TabularData raw = TinyRaw();
  raw.columns[2].values[0] = 7.0;
  EXPECT_EQ(raw.Validate().code(), StatusCode::kOutOfRange);
}

TEST(TabularTest, ValidateCatchesNonBinaryLabel) {
  TabularData raw = TinyRaw();
  raw.labels[0] = 2;
  EXPECT_EQ(raw.Validate().code(), StatusCode::kOutOfRange);
}

TEST(PreprocessorTest, StandardizesContinuousOnTrainStats) {
  TabularData raw = TinyRaw();
  Preprocessor prep;
  std::vector<int> all = {0, 1, 2, 3};
  ASSERT_TRUE(prep.Fit(raw, all).ok());
  Dataset d = prep.Transform(raw, all);
  EXPECT_EQ(d.num_samples(), 4);
  EXPECT_EQ(d.num_features(), 5);
  // Column 0 standardized: mean 2.5, values symmetric.
  double mean = 0.0;
  for (int i = 0; i < 4; ++i) mean += d.features.At(i, 0);
  EXPECT_NEAR(mean, 0.0, 1e-5);
  double var = 0.0;
  for (int i = 0; i < 4; ++i) var += d.features.At(i, 0) * d.features.At(i, 0);
  EXPECT_NEAR(var / 4.0, 1.0, 1e-5);
}

TEST(PreprocessorTest, ImputesMissingContinuousToZero) {
  TabularData raw = TinyRaw();
  Preprocessor prep;
  std::vector<int> all = {0, 1, 2, 3};
  ASSERT_TRUE(prep.Fit(raw, all).ok());
  Dataset d = prep.Transform(raw, all);
  // Row 1, column 1 is missing -> imputed with train mean -> standardized 0.
  EXPECT_FLOAT_EQ(d.features.At(1, 1), 0.0f);
}

TEST(PreprocessorTest, OneHotEncodingWithMissingCategory) {
  TabularData raw = TinyRaw();
  Preprocessor prep;
  std::vector<int> all = {0, 1, 2, 3};
  ASSERT_TRUE(prep.Fit(raw, all).ok());
  Dataset d = prep.Transform(raw, all);
  // Row 0: category 0 -> [1,0,0] at offsets 2..4.
  EXPECT_FLOAT_EQ(d.features.At(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(d.features.At(0, 3), 0.0f);
  // Row 3: missing -> last category [0,0,1].
  EXPECT_FLOAT_EQ(d.features.At(3, 4), 1.0f);
  EXPECT_FLOAT_EQ(d.features.At(3, 2), 0.0f);
}

TEST(PreprocessorTest, FitOnSubsetOnly) {
  TabularData raw = TinyRaw();
  Preprocessor prep;
  ASSERT_TRUE(prep.Fit(raw, {0, 1}).ok());
  Dataset d = prep.Transform(raw, {0, 1, 2, 3});
  // Column 0 train stats from rows {0,1}: mean 1.5, std 0.5.
  EXPECT_NEAR(d.features.At(0, 0), -1.0f, 1e-5);
  EXPECT_NEAR(d.features.At(3, 0), 5.0f, 1e-5);
}

TEST(PreprocessorTest, FitRequiresRows) {
  TabularData raw = TinyRaw();
  Preprocessor prep;
  EXPECT_FALSE(prep.Fit(raw, {}).ok());
}

TEST(DatasetTest, SelectRowsCopies) {
  TabularData raw = TinyRaw();
  Preprocessor prep;
  Dataset d = prep.FitTransformAll(raw);
  Dataset sub = SelectRows(d, {2, 0});
  EXPECT_EQ(sub.num_samples(), 2);
  EXPECT_EQ(sub.labels[0], 0);
  EXPECT_FLOAT_EQ(sub.features.At(0, 2), d.features.At(2, 2));
}

TEST(DatasetTest, ClassCounts) {
  std::vector<int> labels = {0, 1, 1, 0, 1};
  std::vector<int> counts = ClassCounts(labels, 2);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 3);
}

TEST(SplitTest, StratifiedSplitPreservesClassRatio) {
  std::vector<int> labels;
  for (int i = 0; i < 100; ++i) labels.push_back(0);
  for (int i = 0; i < 50; ++i) labels.push_back(1);
  Rng rng(7);
  TrainTestIndices split = StratifiedSplit(labels, 0.2, &rng);
  EXPECT_EQ(split.train.size() + split.test.size(), labels.size());
  int test0 = 0, test1 = 0;
  for (int idx : split.test) (labels[static_cast<std::size_t>(idx)] == 0 ? test0 : test1)++;
  EXPECT_EQ(test0, 20);
  EXPECT_EQ(test1, 10);
}

TEST(SplitTest, TrainTestDisjoint) {
  std::vector<int> labels(37);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 2;
  Rng rng(9);
  TrainTestIndices split = StratifiedSplit(labels, 0.25, &rng);
  std::set<int> train(split.train.begin(), split.train.end());
  for (int idx : split.test) EXPECT_EQ(train.count(idx), 0u);
}

TEST(SplitTest, KFoldPartitionsEverything) {
  std::vector<int> labels(53);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 2;
  Rng rng(11);
  auto rounds = StratifiedKFold(labels, 5, &rng);
  ASSERT_EQ(rounds.size(), 5u);
  std::set<int> all_val;
  for (const auto& round : rounds) {
    EXPECT_EQ(round.train.size() + round.test.size(), labels.size());
    std::set<int> train(round.train.begin(), round.train.end());
    for (int idx : round.test) {
      EXPECT_EQ(train.count(idx), 0u);
      EXPECT_TRUE(all_val.insert(idx).second) << "fold overlap at " << idx;
    }
  }
  EXPECT_EQ(all_val.size(), labels.size());
}

TEST(SplitTest, KFoldKeepsClassBalancePerFold) {
  std::vector<int> labels(100);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i < 60 ? 0 : 1;
  Rng rng(13);
  auto rounds = StratifiedKFold(labels, 5, &rng);
  for (const auto& round : rounds) {
    int c0 = 0, c1 = 0;
    for (int idx : round.test) (labels[static_cast<std::size_t>(idx)] == 0 ? c0 : c1)++;
    EXPECT_EQ(c0, 12);
    EXPECT_EQ(c1, 8);
  }
}

TEST(BatchIteratorTest, CoversEverySampleEachEpoch) {
  Rng rng(17);
  BatchIterator it(23, 5, &rng);
  EXPECT_EQ(it.NumBatches(), 5);
  std::set<int> seen;
  for (int b = 0; b < 5; ++b) {
    for (int idx : it.Next()) EXPECT_TRUE(seen.insert(idx).second);
  }
  EXPECT_EQ(seen.size(), 23u);
  EXPECT_TRUE(it.EpochDone());
}

TEST(BatchIteratorTest, ReshufflesBetweenEpochs) {
  Rng rng(19);
  BatchIterator it(50, 50, &rng);
  std::vector<int> first = it.Next();
  std::vector<int> second = it.Next();
  EXPECT_NE(first, second);  // astronomically unlikely to match
}

TEST(SyntheticTest, UciNamesMatchTable2Order) {
  const auto& names = UciDatasetNames();
  ASSERT_EQ(names.size(), 11u);
  EXPECT_EQ(names.front(), "breast-canc");
  EXPECT_EQ(names.back(), "ionosphere");
}

struct Table2Row {
  const char* name;
  int samples;
  int features;
  const char* type;
};

// Names the row in discovered ctest names; gtest's default would dump the
// struct's bytes, whose string pointers change from build to build.
void PrintTo(const Table2Row& row, std::ostream* os) {
  *os << row.name << " " << row.samples << "x" << row.features << " "
      << row.type;
}

class Table2Test : public ::testing::TestWithParam<Table2Row> {};

TEST_P(Table2Test, GeneratorMatchesPaperCharacteristics) {
  const Table2Row& row = GetParam();
  TabularData data = MakeUciLike(row.name, 1);
  EXPECT_EQ(data.num_samples(), row.samples);
  EXPECT_EQ(data.EncodedWidth(), row.features);
  EXPECT_EQ(data.FeatureTypeString(), row.type);
  EXPECT_TRUE(data.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllRows, Table2Test,
    ::testing::Values(Table2Row{"breast-canc", 699, 81, "categorical"},
                      Table2Row{"breast-canc-dia", 569, 30, "continuous"},
                      Table2Row{"breast-canc-pro", 198, 33, "continuous"},
                      Table2Row{"climate-model", 540, 18, "continuous"},
                      Table2Row{"congress-voting", 435, 32, "categorical"},
                      Table2Row{"conn-sonar", 208, 60, "continuous"},
                      Table2Row{"credit-approval", 690, 42, "combined"},
                      Table2Row{"cylindar-bands", 541, 93, "combined"},
                      Table2Row{"hepatitis", 155, 34, "combined"},
                      Table2Row{"horse-colic", 368, 58, "combined"},
                      Table2Row{"ionosphere", 351, 33, "combined"}),
    [](const ::testing::TestParamInfo<Table2Row>& info) {
      std::string name = info.param.name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(SyntheticTest, HospFaMatchesPaperDimensions) {
  TabularData data = MakeHospFaLike(1);
  EXPECT_EQ(data.num_samples(), 1755);
  EXPECT_EQ(data.EncodedWidth(), 375);
  EXPECT_TRUE(data.Validate().ok());
}

TEST(SyntheticTest, DeterministicInSeed) {
  TabularData a = MakeUciLike("conn-sonar", 5);
  TabularData b = MakeUciLike("conn-sonar", 5);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.columns[3].values, b.columns[3].values);
  TabularData c = MakeUciLike("conn-sonar", 6);
  EXPECT_NE(a.labels, c.labels);
}

TEST(SyntheticTest, ClassesRoughlyBalanced) {
  TabularData data = MakeUciLike("credit-approval", 2);
  auto counts = ClassCounts(data.labels, 2);
  double ratio = static_cast<double>(counts[0]) /
                 static_cast<double>(data.num_samples());
  EXPECT_GT(ratio, 0.35);
  EXPECT_LT(ratio, 0.65);
}

TEST(SyntheticTest, MissingRateApproximatelyRespected) {
  TabularData data = MakeUciLike("horse-colic", 3);  // missing_rate 0.2
  std::int64_t missing = 0, total = 0;
  for (const Column& col : data.columns) {
    if (col.type != ColumnType::kContinuous) continue;
    for (bool m : col.missing) {
      missing += m;
      ++total;
    }
  }
  double rate = static_cast<double>(missing) / static_cast<double>(total);
  EXPECT_NEAR(rate, 0.2, 0.05);
}

TEST(CifarLikeTest, ShapesAndDeterminism) {
  CifarLikeSpec spec;
  spec.num_train = 64;
  spec.num_test = 32;
  spec.height = 12;
  spec.width = 12;
  CifarLikePair a = MakeCifarLike(spec, 7);
  EXPECT_EQ(a.train.num_samples(), 64);
  EXPECT_EQ(a.test.num_samples(), 32);
  EXPECT_EQ(a.train.channels(), 3);
  EXPECT_EQ(a.train.height(), 12);
  CifarLikePair b = MakeCifarLike(spec, 7);
  EXPECT_EQ(a.train.labels, b.train.labels);
  EXPECT_FLOAT_EQ(a.train.images[100], b.train.images[100]);
}

TEST(CifarLikeTest, TrainSetIsPerPixelMeanSubtracted) {
  CifarLikeSpec spec;
  spec.num_train = 200;
  spec.num_test = 10;
  spec.height = 8;
  spec.width = 8;
  CifarLikePair pair = MakeCifarLike(spec, 9);
  std::int64_t chw = pair.train.images.size() / pair.train.num_samples();
  for (std::int64_t p = 0; p < chw; p += 17) {
    double mean = 0.0;
    for (std::int64_t i = 0; i < pair.train.num_samples(); ++i) {
      mean += pair.train.images[i * chw + p];
    }
    mean /= static_cast<double>(pair.train.num_samples());
    EXPECT_NEAR(mean, 0.0, 1e-4);
  }
}

TEST(CifarLikeTest, AllClassesPresent) {
  CifarLikeSpec spec;
  spec.num_train = 300;
  spec.num_test = 10;
  spec.height = 8;
  spec.width = 8;
  CifarLikePair pair = MakeCifarLike(spec, 11);
  auto counts = ClassCounts(pair.train.labels, 10);
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(GatherBatchTest, ImageBatchWithoutAugmentationCopies) {
  CifarLikeSpec spec;
  spec.num_train = 16;
  spec.num_test = 4;
  spec.height = 8;
  spec.width = 8;
  CifarLikePair pair = MakeCifarLike(spec, 13);
  Tensor out({2, 3, 8, 8});
  std::vector<int> labels;
  GatherImageBatch(pair.train, {3, 5}, false, 0, nullptr, &out, &labels);
  EXPECT_EQ(labels[0], pair.train.labels[3]);
  std::int64_t chw = 3 * 8 * 8;
  for (std::int64_t p = 0; p < chw; ++p) {
    EXPECT_FLOAT_EQ(out[p], pair.train.images[3 * chw + p]);
  }
}

TEST(GatherBatchTest, AugmentationIsShiftOrFlipOfSource) {
  CifarLikeSpec spec;
  spec.num_train = 4;
  spec.num_test = 4;
  spec.height = 8;
  spec.width = 8;
  CifarLikePair pair = MakeCifarLike(spec, 15);
  Rng rng(1);
  Tensor out({1, 3, 8, 8});
  std::vector<int> labels;
  GatherImageBatch(pair.train, {0}, true, 2, &rng, &out, &labels);
  // The augmented image's multiset of values is a subset of the source plus
  // zero padding; sanity-check that its energy does not exceed the source.
  double src = 0.0, dst = 0.0;
  std::int64_t chw = 3 * 8 * 8;
  for (std::int64_t p = 0; p < chw; ++p) {
    double v = pair.train.images[p];
    src += v * v;
    dst += static_cast<double>(out[p]) * out[p];
  }
  EXPECT_LE(dst, src + 1e-3);
}

TEST(GatherBatchTest, TabularBatch) {
  TabularData raw = TinyRaw();
  Preprocessor prep;
  Dataset d = prep.FitTransformAll(raw);
  Tensor out({2, d.num_features()});
  std::vector<int> labels;
  GatherTabularBatch(d, {1, 3}, &out, &labels);
  EXPECT_EQ(labels[1], d.labels[3]);
  EXPECT_FLOAT_EQ(out.At(0, 0), d.features.At(1, 0));
}

}  // namespace
}  // namespace gmreg
