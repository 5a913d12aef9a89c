#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "datagen/corpus_io.h"
#include "datagen/openimages.h"
#include "service/protocol.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/samplers.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace phocus {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.NextBelow(0), CheckFailure);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.UniformInt(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalHasRightMoments) {
  Rng rng(13);
  StatsAccumulator stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(21);
  const auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (std::size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(RngTest, SampleRejectsOversizedRequest) {
  Rng rng(1);
  EXPECT_THROW(rng.SampleWithoutReplacement(3, 4), CheckFailure);
}

TEST(RngTest, ForkStreamsAreIndependentAndDeterministic) {
  Rng parent(5);
  Rng child1 = parent.Fork(1);
  Rng child1_again = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  EXPECT_EQ(child1.Next(), child1_again.Next());
  EXPECT_NE(child1.Next(), child2.Next());
}

// ------------------------------------------------------------- Zipf ------

TEST(ZipfTest, ProbabilitiesSumToOne) {
  ZipfSampler zipf(100, 1.1);
  double total = 0.0;
  for (std::size_t k = 0; k < 100; ++k) total += zipf.Probability(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, HeadIsHeavierThanTail) {
  ZipfSampler zipf(1000, 1.0);
  EXPECT_GT(zipf.Probability(0), zipf.Probability(1));
  EXPECT_GT(zipf.Probability(1), zipf.Probability(999));
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(zipf.Probability(k), 0.1, 1e-9);
  }
}

TEST(ZipfTest, SamplingMatchesProbabilities) {
  ZipfSampler zipf(20, 1.2);
  Rng rng(3);
  std::vector<int> counts(20, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) ++counts[zipf.Sample(rng)];
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(draws), zipf.Probability(k), 0.01);
  }
}

/// The full cumulative table ZipfSampler kept before its block checkpoints:
/// the oracle its Probability and Sample must match bit for bit.
class FullTableZipf {
 public:
  FullTableZipf(std::size_t n, double exponent) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
    cdf_.back() = 1.0;
  }

  std::size_t Sample(Rng& rng) const {
    const double u = rng.UniformDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) return cdf_.size() - 1;
    return static_cast<std::size_t>(it - cdf_.begin());
  }

  double Probability(std::size_t k) const {
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
  }

 private:
  std::vector<double> cdf_;
};

TEST(ZipfTest, BlockCheckpointsMatchTheFullTableBitForBit) {
  // Sizes straddle the block edges (kBlock = 256) and reach phocusd's
  // 200 000-label vocabulary; the exponents include the uniform case, the
  // classic Zipf and the arrival generator's 1.8.
  static_assert(ZipfSampler::kBlock == 256);
  for (const std::size_t n : {1u, 2u, 255u, 256u, 257u, 1000u, 200000u}) {
    for (const double s : {0.0, 1.0, 1.1, 1.8}) {
      const ZipfSampler zipf(n, s);
      const FullTableZipf oracle(n, s);
      ASSERT_EQ(zipf.size(), n);
      std::size_t mismatches = 0;
      for (std::size_t k = 0; k < n; ++k) {
        if (std::bit_cast<std::uint64_t>(zipf.Probability(k)) !=
            std::bit_cast<std::uint64_t>(oracle.Probability(k))) {
          if (mismatches++ == 0) {
            ADD_FAILURE() << "n=" << n << " s=" << s << " P(" << k
                          << ") = " << zipf.Probability(k) << ", table has "
                          << oracle.Probability(k);
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << s;
      Rng a(n * 31 + static_cast<std::uint64_t>(s * 10));
      Rng b(n * 31 + static_cast<std::uint64_t>(s * 10));
      std::size_t draw_mismatches = 0;
      for (int i = 0; i < 100000; ++i) {
        if (zipf.Sample(a) != oracle.Sample(b)) ++draw_mismatches;
      }
      EXPECT_EQ(draw_mismatches, 0u) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ZipfTest, SharedReturnsOneSamplerPerParameters) {
  const ZipfSampler& a = ZipfSampler::Shared(300, 1.8);
  EXPECT_EQ(&a, &ZipfSampler::Shared(300, 1.8));
  EXPECT_NE(&a, &ZipfSampler::Shared(300, 1.1));
  EXPECT_NE(&a, &ZipfSampler::Shared(301, 1.8));
  EXPECT_EQ(a.size(), 300u);
  EXPECT_THROW(ZipfSampler::Shared(0, 1.0), CheckFailure);
}

TEST(ArrivalConcurrencyTest, FourConcurrentArrivalsKeepThePinnedChecksums) {
  // Four threads generate 16-photo arrivals at once, racing the first build
  // of the process-wide Zipf checkpoints and projection. The pins are
  // OpenImagesTest.EncodedCorpusMatchesPinnedChecksums' 16-photo rows.
  constexpr std::uint64_t kPins[] = {0xe5f656eb56e1accfULL,
                                     0x2c4a9818653d1b5aULL};
  constexpr std::uint64_t kSeeds[] = {1, 7};
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::uint64_t> checksums(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      OpenImagesOptions options;
      options.num_photos = 16;
      options.seed = kSeeds[t % 2];
      start.arrive_and_wait();
      checksums[t] =
          service::Fnv64(EncodeCorpus(GenerateOpenImagesCorpus(options)));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(checksums[t], kPins[t % 2]) << "thread " << t;
  }
}

TEST(AliasSamplerTest, MatchesWeights) {
  std::vector<double> weights = {1.0, 3.0, 6.0};
  AliasSampler sampler(weights);
  Rng rng(5);
  std::vector<int> counts(3, 0);
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(draws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(draws), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(draws), 0.6, 0.01);
}

TEST(AliasSamplerTest, RejectsBadWeights) {
  EXPECT_THROW(AliasSampler({}), CheckFailure);
  EXPECT_THROW(AliasSampler({0.0, 0.0}), CheckFailure);
  EXPECT_THROW(AliasSampler({1.0, -1.0}), CheckFailure);
}

// ---------------------------------------------------------- strings ------

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitWhitespaceDropsEmpties) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, JoinTrimLower) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(ToLower("AbC"), "abc");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("phocus", "pho"));
  EXPECT_FALSE(StartsWith("pho", "phocus"));
  EXPECT_TRUE(EndsWith("archive.json", ".json"));
  EXPECT_FALSE(EndsWith("json", "archive.json"));
}

TEST(StringsTest, HumanBytesRoundTripsWithParseBytes) {
  EXPECT_EQ(ParseBytes("5MB"), 5'000'000u);
  EXPECT_EQ(ParseBytes("1GB"), 1'000'000'000u);
  EXPECT_EQ(ParseBytes("250kb"), 250'000u);
  EXPECT_EQ(ParseBytes("123"), 123u);
  EXPECT_EQ(ParseBytes(" 2.5 MB "), 2'500'000u);
  EXPECT_EQ(HumanBytes(5'000'000), "5.0MB");
  EXPECT_EQ(HumanBytes(1'000'000'000), "1.0GB");
  EXPECT_EQ(HumanBytes(999), "999B");
}

TEST(StringsTest, ParseBytesRejectsGarbage) {
  EXPECT_THROW(ParseBytes(""), CheckFailure);
  EXPECT_THROW(ParseBytes("MB"), CheckFailure);
  EXPECT_THROW(ParseBytes("5XB"), CheckFailure);
}

// ------------------------------------------------------------ stats ------

TEST(StatsTest, AccumulatorMoments) {
  StatsAccumulator stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
}

TEST(StatsTest, EmptyAccumulatorIsZero) {
  StatsAccumulator stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> values = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

// ------------------------------------------------------------- json ------

TEST(JsonTest, RoundTripsScalars) {
  EXPECT_EQ(Json::Parse("42").AsInt(), 42);
  EXPECT_DOUBLE_EQ(Json::Parse("-2.5e2").AsDouble(), -250.0);
  EXPECT_EQ(Json::Parse("\"hi\\nthere\"").AsString(), "hi\nthere");
  EXPECT_TRUE(Json::Parse("true").AsBool());
  EXPECT_FALSE(Json::Parse("false").AsBool());
  EXPECT_TRUE(Json::Parse("null").is_null());
}

TEST(JsonTest, RoundTripsNestedStructure) {
  Json root = Json::Object();
  root.Set("name", "phocus");
  root.Set("version", 1);
  Json list = Json::Array();
  list.Append(1.5);
  list.Append("two");
  list.Append(Json::Object());
  root.Set("items", std::move(list));

  const std::string compact = root.Dump();
  const Json parsed = Json::Parse(compact);
  EXPECT_EQ(parsed.Get("name").AsString(), "phocus");
  EXPECT_EQ(parsed.Get("items").size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.Get("items")[0].AsDouble(), 1.5);
  EXPECT_EQ(parsed.Dump(), compact);
}

TEST(JsonTest, PreservesKeyOrder) {
  Json object = Json::Object();
  object.Set("zebra", 1);
  object.Set("apple", 2);
  EXPECT_EQ(object.Dump(), "{\"zebra\":1,\"apple\":2}");
}

TEST(JsonTest, EscapesStrings) {
  Json value("a\"b\\c\n");
  EXPECT_EQ(value.Dump(), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(Json::Parse(value.Dump()).AsString(), "a\"b\\c\n");
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  EXPECT_EQ(Json::Parse("\"\\u0041\"").AsString(), "A");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(Json::Parse(""), CheckFailure);
  EXPECT_THROW(Json::Parse("{"), CheckFailure);
  EXPECT_THROW(Json::Parse("[1,]2"), CheckFailure);
  EXPECT_THROW(Json::Parse("{\"a\" 1}"), CheckFailure);
  EXPECT_THROW(Json::Parse("tru"), CheckFailure);
  EXPECT_THROW(Json::Parse("1 2"), CheckFailure);
}

TEST(JsonTest, TypeMismatchThrows) {
  const Json number(1.0);
  EXPECT_THROW(number.AsString(), CheckFailure);
  EXPECT_THROW(number.Get("x"), CheckFailure);
  Json object = Json::Object();
  EXPECT_THROW(object.Append(1), CheckFailure);
  EXPECT_THROW(object.Get("missing"), CheckFailure);
  EXPECT_EQ(object.GetOr("missing", Json(3)).AsInt(), 3);
}

TEST(JsonTest, PrettyPrintIsReparsable) {
  Json root = Json::Object();
  Json inner = Json::Array();
  inner.Append(1);
  inner.Append(2);
  root.Set("xs", std::move(inner));
  const std::string pretty = root.Dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::Parse(pretty).Get("xs").size(), 2u);
}

TEST(JsonTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/phocus_json_test.json";
  WriteFile(path, "{\"k\": [1, 2]}");
  EXPECT_EQ(Json::Parse(ReadFile(path)).Get("k").size(), 2u);
  EXPECT_THROW(ReadFile(path + ".missing"), CheckFailure);
}

// ------------------------------------------------------------ table ------

TEST(TableTest, RendersAlignedColumns) {
  TextTable table;
  table.SetHeader({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow("beta", {2.345}, 2);
  const std::string out = table.Render("Title");
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.35"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  TextTable table;
  table.SetHeader({"a", "b"});
  EXPECT_THROW(table.AddRow({"only one"}), CheckFailure);
}

TEST(TableTest, CsvEscapesSpecialCharacters) {
  TextTable table;
  table.SetHeader({"a", "b"});
  table.AddRow({"x,y", "with \"quote\""});
  const std::string csv = table.RenderCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"with \"\"quote\"\"\""), std::string::npos);
}

// ------------------------------------------------------ thread pool ------

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) pool.Submit([&] { done++; });
  pool.Wait();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForRethrowsBodyExceptionOnCaller) {
  ThreadPool pool(4);
  // Enough iterations to take the parallel path (>= 2 * threads) and to
  // leave plenty of work queued when the throw happens.
  const std::size_t count = 10000;
  std::atomic<std::size_t> visited{0};
  try {
    pool.ParallelFor(count, [&](std::size_t i) {
      visited++;
      PHOCUS_CHECK(i != 137, "injected failure at index 137");
    });
    FAIL() << "expected CheckFailure to propagate to the calling thread";
  } catch (const CheckFailure& failure) {
    EXPECT_NE(std::string(failure.what()).find("injected failure"),
              std::string::npos);
  }
  // The abort flag stops workers early: not every index runs.
  EXPECT_LT(visited.load(), count);
}

TEST(ThreadPoolTest, PoolIsUsableAfterBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(1000,
                                [](std::size_t) {
                                  throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // A failed ParallelFor must not wedge the pool or leak the abort state.
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, FirstExceptionWinsWhenManyBodiesThrow) {
  ThreadPool pool(4);
  // Every iteration throws; exactly one exception must surface, and it must
  // be one of the thrown ones (not a broken_promise or a terminate).
  EXPECT_THROW(pool.ParallelFor(
                   500, [](std::size_t i) {
                     throw std::runtime_error("fail " + std::to_string(i));
                   }),
               std::runtime_error);
}

TEST(LoggingTest, CheckFailureCarriesContext) {
  try {
    PHOCUS_CHECK(1 == 2, "custom message");
    FAIL() << "expected throw";
  } catch (const CheckFailure& failure) {
    EXPECT_NE(std::string(failure.what()).find("custom message"),
              std::string::npos);
    EXPECT_NE(std::string(failure.what()).find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace phocus
