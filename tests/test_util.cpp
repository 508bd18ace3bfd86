#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "util/atomic_file.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace actg::util {
namespace {

// ---------------------------------------------------------------------------
// Error handling

TEST(Error, CheckMacroThrowsInvalidArgument) {
  EXPECT_THROW(ACTG_CHECK(false, "boom"), InvalidArgument);
  EXPECT_NO_THROW(ACTG_CHECK(true, "fine"));
}

TEST(Error, AssertMacroThrowsInternalError) {
  EXPECT_THROW(ACTG_ASSERT(false, "bug"), InternalError);
  EXPECT_NO_THROW(ACTG_ASSERT(true, "fine"));
}

TEST(Error, MessagesCarryLocationAndExpression) {
  try {
    ACTG_CHECK(1 == 2, "numbers disagree");
    FAIL() << "expected a throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Error, HierarchyRootsAtActgError) {
  // actg:: qualification: inside namespace actg::util the unqualified
  // name resolves to the value-semantic util::Error status type.
  EXPECT_THROW(
      { throw InvalidArgument("x"); }, actg::Error);
  EXPECT_THROW(
      { throw InternalError("x"); }, actg::Error);
}

TEST(ErrorStatus, DefaultIsOk) {
  const Error ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_FALSE(static_cast<bool>(ok));
  EXPECT_TRUE(ok.message().empty());
  EXPECT_NO_THROW(ok.ThrowIfError());
}

TEST(ErrorStatus, InvalidCarriesMessageAndThrows) {
  const Error err = Error::Invalid("bad knob");
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(static_cast<bool>(err));
  EXPECT_EQ(err.message(), "bad knob");
  EXPECT_THROW(err.ThrowIfError(), InvalidArgument);
}

// ---------------------------------------------------------------------------
// RNG

TEST(Rng, DeterministicForEqualSeeds) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, KnownReferenceFirstOutputsAreStable) {
  // Golden values pin the generator across refactorings; any change here
  // silently invalidates every recorded experiment.
  Xoshiro256 g(12345);
  const std::uint64_t first = g.Next();
  Xoshiro256 h(12345);
  EXPECT_EQ(first, h.Next());
  EXPECT_NE(first, h.Next());
}

TEST(Rng, JumpDecorrelatesStreams) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  b.Jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Random, UniformUnitStaysInHalfOpenInterval) {
  Random rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformUnit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Random, UniformRespectsBoundsAndMean) {
  Random rng(4);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Uniform(-2.0, 6.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 6.0);
    stats.Add(x);
  }
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(Random, UniformRejectsInvertedBounds) {
  Random rng(5);
  EXPECT_THROW(rng.Uniform(1.0, 0.0), InvalidArgument);
}

TEST(Random, UniformIntCoversAllValuesInclusive) {
  Random rng(6);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Random, UniformIntDegenerateRange) {
  Random rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Random, BernoulliMatchesProbability) {
  Random rng(8);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Random, BernoulliEdgeCases) {
  Random rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Random, NormalMatchesMoments) {
  Random rng(10);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Random, CategoricalMatchesWeights) {
  Random rng(11);
  std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Random, CategoricalRejectsBadWeights) {
  Random rng(12);
  EXPECT_THROW(rng.Categorical({0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(rng.Categorical({1.0, -0.5}), InvalidArgument);
}

TEST(Random, PermutationIsAPermutation) {
  Random rng(13);
  const auto perm = rng.Permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Random, PermutationOfZeroAndOne) {
  Random rng(14);
  EXPECT_TRUE(rng.Permutation(0).empty());
  EXPECT_EQ(rng.Permutation(1), std::vector<std::size_t>{0});
}

// ---------------------------------------------------------------------------
// Stats

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleObservation) {
  RunningStats s;
  s.Add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSingleStream) {
  RunningStats all, left, right;
  Random rng(15);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(1.0, 3.0);
    all.Add(x);
    (i % 2 == 0 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(b);  // empty right
  EXPECT_EQ(a.count(), 2u);
  b.Merge(a);  // empty left
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Quantile, MedianAndExtremes) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.5);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(Quantile({}, 0.5), InvalidArgument);
  EXPECT_THROW(Quantile({1.0}, 1.5), InvalidArgument);
}

TEST(Mean, SimpleAndThrowsOnEmpty) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_THROW(Mean({}), InvalidArgument);
}

/// Log-uniform over [1e-3, 1e6], with about one sample in 16 a zero.
std::vector<double> HistogramSamples(Random& rng, std::size_t n) {
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(rng.UniformInt(0, 15) == 0
                     ? 0.0
                     : std::pow(10.0, rng.Uniform(-3.0, 6.0)));
  }
  return xs;
}

TEST(Histogram, MergeIsBitExactlyAssociativeAndCommutative) {
  Random rng(99);
  for (int round = 0; round < 50; ++round) {
    const std::vector<double> xs = HistogramSamples(
        rng, static_cast<std::size_t>(rng.UniformInt(1, 400)));
    Histogram all;
    for (double x : xs) all.Observe(x);

    // Random split into up to 8 parts, merged in a random order.
    const int parts = rng.UniformInt(1, 8);
    std::vector<Histogram> shards(static_cast<std::size_t>(parts));
    for (double x : xs) {
      shards[static_cast<std::size_t>(rng.UniformInt(0, parts - 1))]
          .Observe(x);
    }
    Histogram merged;
    for (std::size_t idx : rng.Permutation(shards.size())) {
      merged.Merge(shards[idx]);
    }

    ASSERT_TRUE(merged == all) << "round " << round;
    EXPECT_EQ(merged.count(), xs.size());
    for (const double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(merged.Quantile(q), all.Quantile(q)) << "q " << q;
    }
  }
}

// Against a sorted-vector nearest rank: the reported value is the lower
// edge of the rank's bucket, never above the sample and less than 2^-7
// below it; the top rank is the exact max; memory stays within 128
// buckets per octave the samples span.
TEST(Histogram, QuantileIsTheLowerEdgeOfTheNearestRankBucket) {
  EXPECT_EQ(Histogram().Quantile(0.5), 0.0);

  Random rng(2026);
  std::vector<double> xs = HistogramSamples(rng, 1000000);
  Histogram h;
  for (double x : xs) h.Observe(x);
  std::sort(xs.begin(), xs.end());
  ASSERT_EQ(h.count(), xs.size());
  EXPECT_EQ(h.min(), xs.front());
  EXPECT_EQ(h.max(), xs.back());
  EXPECT_EQ(h.Quantile(1.0), xs.back());

  constexpr double kWidth = 1.0 / (1 << Histogram::kSubBucketBits);
  for (const double q : {0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                         0.999, 0.999999}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(xs.size()))));
    const double exact = xs[rank - 1];
    const double edge = h.Quantile(q);
    if (exact == 0.0) {
      EXPECT_EQ(edge, 0.0) << "q " << q;
      continue;
    }
    EXPECT_LE(edge, exact) << "q " << q;
    EXPECT_LT(exact, edge * (1.0 + kWidth)) << "q " << q;
  }

  const double min_positive = *std::upper_bound(xs.begin(), xs.end(), 0.0);
  const double octaves =
      std::floor(std::log2(xs.back())) - std::floor(std::log2(min_positive)) +
      1.0;
  // Plus one for the zero bucket.
  EXPECT_LE(static_cast<double>(h.buckets().size()),
            octaves * (1 << Histogram::kSubBucketBits) + 1.0);
}

TEST(Histogram, IntegersUpTo256AreExact) {
  Histogram h;
  for (int i = 1; i <= 256; ++i) h.Observe(static_cast<double>(i));
  for (int k = 1; k <= 256; ++k) {
    EXPECT_EQ(h.Quantile(k / 256.0), static_cast<double>(k)) << k;
  }
}

TEST(Histogram, FromRawRebuildsTheStateAndRejectsUnsortedBuckets) {
  Histogram h;
  for (double x : {0.0, 3.5, 3.5, 1e6}) h.Observe(x);
  EXPECT_TRUE(Histogram::FromRaw(h.min(), h.max(), h.buckets()) == h);
  EXPECT_THROW(Histogram::FromRaw(0.0, 1.0, {{7, 1}, {7, 1}}),
               InvalidArgument);
  EXPECT_THROW(Histogram::FromRaw(0.0, 1.0, {{7, 0}}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// TablePrinter

TEST(TablePrinter, AlignsColumnsAndPrintsAllRows) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.BeginRow().Cell("b").Cell(2.5, 1);
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TablePrinter, RejectsMismatchedRowWidth) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only one"}), InvalidArgument);
}

TEST(TablePrinter, CellBeforeBeginRowThrows) {
  TablePrinter t({"a"});
  EXPECT_THROW(t.Cell("x"), InvalidArgument);
}

TEST(TablePrinter, FormatFixedDecimals) {
  EXPECT_EQ(TablePrinter::Format(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Format(2.0, 0), "2");
}

// ---------------------------------------------------------------------------
// CSV

TEST(Csv, PlainRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.WriteRow(std::vector<std::string>{"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os);
  w.WriteRow(std::vector<std::string>{"x,y", "he said \"hi\"", "line\nbreak"});
  EXPECT_EQ(os.str(), "\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(Csv, NumericRowPrecision) {
  std::ostringstream os;
  CsvWriter w(os);
  w.WriteRow(std::vector<double>{1.5, 2.25}, 2);
  EXPECT_EQ(os.str(), "1.50,2.25\n");
}

// ---------------------------------------------------------------------------
// AtomicFile

namespace fs = std::filesystem;

std::string ScratchFile(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "actg_atomic_file";
  fs::create_directories(dir);
  const fs::path path = dir / name;
  fs::remove(path);
  return path.string();
}

std::string Slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// No `<name>.tmp.<pid>` sibling may survive an AtomicFile's lifetime.
bool HasTempSibling(const std::string& path) {
  const fs::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  for (const auto& entry : fs::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST(AtomicFile, CommitLandsTheBytesAndRemovesTheTemp) {
  const std::string path = ScratchFile("commit.txt");
  {
    AtomicFile file(path);
    ASSERT_TRUE(file.ok());
    EXPECT_EQ(file.path(), path);
    file.os() << "hello\nworld\n";
    EXPECT_FALSE(fs::exists(path));  // nothing visible before Commit
    EXPECT_TRUE(file.Commit().ok());
  }
  EXPECT_EQ(Slurp(path), "hello\nworld\n");
  EXPECT_FALSE(HasTempSibling(path));
}

TEST(AtomicFile, AbandonedWriteLeavesTheTargetUntouched) {
  const std::string path = ScratchFile("abandon.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "original\n").ok());
  {
    AtomicFile file(path);
    ASSERT_TRUE(file.ok());
    file.os() << "half-written garbage";
    // destructor runs with no Commit(): simulated crash before rename
  }
  EXPECT_EQ(Slurp(path), "original\n");
  EXPECT_FALSE(HasTempSibling(path));
}

TEST(AtomicFile, CommitReplacesAnExistingFileWholesale) {
  const std::string path = ScratchFile("replace.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "old contents that are longer\n").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "new\n").ok());
  EXPECT_EQ(Slurp(path), "new\n");
  EXPECT_FALSE(HasTempSibling(path));
}

TEST(AtomicFile, MissingDirectoryReportsInsteadOfThrowing) {
  const std::string path =
      (fs::temp_directory_path() / "actg_atomic_file_no_such_dir" /
       "deep" / "file.txt")
          .string();
  AtomicFile file(path);
  EXPECT_FALSE(file.ok());
  const Error err = file.Commit();
  EXPECT_FALSE(err.ok());
  EXPECT_FALSE(fs::exists(path));
}

TEST(AtomicFile, WriteFileAtomicRoundTripsBinaryBytes) {
  const std::string path = ScratchFile("binary.bin");
  const std::string contents("a\0b\r\nc", 6);
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
  EXPECT_EQ(Slurp(path), contents);
}

}  // namespace
}  // namespace actg::util
