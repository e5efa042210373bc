#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/thread_pool.h"

namespace car {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status status = InvalidArgument("bad cardinality");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad cardinality");
  EXPECT_EQ(status.ToString(), "invalid_argument: bad cardinality");

  EXPECT_EQ(NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Unsupported("x").code(), StatusCode::kUnsupported);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFound("a"), NotFound("a"));
  EXPECT_FALSE(NotFound("a") == NotFound("b"));
  EXPECT_FALSE(NotFound("a") == Internal("a"));
}

Status FailsAtThree(int value) {
  if (value == 3) return InvalidArgument("three");
  return Status::Ok();
}

Status UsesReturnIfError(int value) {
  CAR_RETURN_IF_ERROR(FailsAtThree(value));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(3).code(), StatusCode::kInvalidArgument);
}

Result<int> ParsePositive(int value) {
  if (value <= 0) return InvalidArgument("not positive");
  return value;
}

Result<int> DoubledViaAssignOrReturn(int value) {
  CAR_ASSIGN_OR_RETURN(int parsed, ParsePositive(value));
  return parsed * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 21);
  EXPECT_EQ(*ok, 21);

  Result<int> err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(DoubledViaAssignOrReturn(21).value(), 42);
  EXPECT_FALSE(DoubledViaAssignOrReturn(0).ok());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = std::move(result).value();
  EXPECT_EQ(*value, 7);
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat(), "");
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
}

TEST(StringsTest, StrJoin) {
  std::vector<int> values = {1, 2, 3};
  EXPECT_EQ(StrJoin(values, ", "), "1, 2, 3");
  EXPECT_EQ(StrJoin(std::vector<int>{}, ","), "");
  EXPECT_EQ(StrJoin(std::vector<int>{9}, ","), "9");
}

TEST(StringsTest, StrSplit) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringsTest, Elide) {
  EXPECT_EQ(Elide("short"), "short");
  EXPECT_EQ(Elide("abcdef", 6), "abcdef");
  EXPECT_EQ(Elide("abcdef", 4), "abcd... [2 more bytes]");
  // The result's size is bounded regardless of the input's.
  EXPECT_LT(Elide(std::string(1 << 20, 'x')).size(), 300u);
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x  "), "x");
  EXPECT_EQ(StripWhitespace("\t\n a b \r"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringsTest, ParseUint64AcceptsWholeDecimalsOnly) {
  EXPECT_EQ(ParseUint64("0"), std::optional<uint64_t>(0));
  EXPECT_EQ(ParseUint64("1024"), std::optional<uint64_t>(1024));
  EXPECT_EQ(ParseUint64("18446744073709551615"),
            std::optional<uint64_t>(std::numeric_limits<uint64_t>::max()));
  // stoull would read "-1" as 2^64-1 and "12x" as 12.
  for (const char* bad :
       {"", "-1", "12x", "+5", " 7", "7 ", "18446744073709551616"}) {
    EXPECT_EQ(ParseUint64(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(7), 7u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int value = rng.NextInt(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    saw_lo |= value == -2;
    saw_hi |= value == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextChanceRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.NextChance(1, 4)) ++hits;
  }
  EXPECT_GT(hits, trials / 4 - trials / 20);
  EXPECT_LT(hits, trials / 4 + trials / 20);
}

TEST(ThreadPoolTest, EffectiveThreadsResolvesZeroToHardware) {
  EXPECT_EQ(EffectiveThreads(1), 1);
  EXPECT_EQ(EffectiveThreads(7), 7);
  EXPECT_GE(EffectiveThreads(0), 1);
}

TEST(ThreadPoolTest, SubmittedTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&counter, &done] {
      counter.fetch_add(1, std::memory_order_relaxed);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  while (done.load(std::memory_order_acquire) < kTasks) {
    pool.RunOnePendingTask();
  }
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> visits(n);
      for (auto& v : visits) v.store(0);
      ParallelForOptions options;
      options.num_threads = threads;
      ParallelFor(n, options, [&visits](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          visits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  // Outer and inner loops both request more threads than exist; the
  // caller-participation design must drain them regardless.
  std::atomic<int> total{0};
  ParallelForOptions options;
  options.num_threads = 8;
  ParallelFor(8, options, [&total, &options](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ParallelFor(16, options, [&total](size_t inner_begin,
                                        size_t inner_end) {
        total.fetch_add(static_cast<int>(inner_end - inner_begin),
                        std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelForTest, ChunkBoundariesAreDeterministic) {
  // The chunk split must depend only on (n, options) — record the
  // begin/end pairs from a serial run and require every parallel run to
  // produce the same set.
  constexpr size_t kN = 103;
  ParallelForOptions options;
  options.num_threads = 4;
  options.min_chunk = 8;
  std::mutex mutex;
  std::vector<std::pair<size_t, size_t>> first;
  ParallelFor(kN, options, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    first.emplace_back(begin, end);
  });
  std::sort(first.begin(), first.end());
  for (int run = 0; run < 10; ++run) {
    std::vector<std::pair<size_t, size_t>> chunks;
    ParallelFor(kN, options, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    EXPECT_EQ(chunks, first) << "run " << run;
  }
}

}  // namespace
}  // namespace car
