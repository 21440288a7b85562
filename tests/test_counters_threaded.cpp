// Thread-safety tests for obs::Counters. These run meaningfully under any
// sanitizer, but are written for ThreadSanitizer in particular (the CI
// tsan job runs this binary): concurrent add / observe_max / merge /
// snapshot on one shared instance must be race-free, and the kind-aware
// merge must behave as if one combined run had been observed.
#include "wrht/obs/counters.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace wrht::obs {
namespace {

constexpr unsigned kThreads = 8;
constexpr std::uint64_t kIterations = 2000;

TEST(CountersThreaded, ConcurrentAddsSumExactly) {
  Counters counters;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counters] {
      for (std::uint64_t i = 0; i < kIterations; ++i) {
        counters.add("shared", 1);
        counters.add("weighted", 3);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(counters.value("shared"), kThreads * kIterations);
  EXPECT_EQ(counters.value("weighted"), 3 * kThreads * kIterations);
}

TEST(CountersThreaded, ConcurrentObserveMaxKeepsGlobalMaximum) {
  Counters counters;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counters, t] {
      for (std::uint64_t i = 0; i < kIterations; ++i) {
        // Every thread's sequence peaks at a different value; the global
        // watermark is the largest peak over all threads.
        counters.observe_max("peak", t * kIterations + i);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(counters.value("peak"), kThreads * kIterations - 1);
}

TEST(CountersThreaded, ConcurrentReadersSeeConsistentSnapshots) {
  Counters counters;
  std::vector<std::thread> pool;
  // Writers...
  for (unsigned t = 0; t < kThreads / 2; ++t) {
    pool.emplace_back([&counters] {
      for (std::uint64_t i = 0; i < kIterations; ++i) {
        counters.add("writes");
        counters.observe_max("high", i);
      }
    });
  }
  // ...racing readers. Snapshots return copies, so iterating one while
  // writers mutate the registry must be safe.
  for (unsigned t = 0; t < kThreads / 2; ++t) {
    pool.emplace_back([&counters] {
      std::uint64_t last = 0;
      for (std::uint64_t i = 0; i < kIterations; ++i) {
        const auto snap = counters.snapshot();
        const auto it = snap.find("writes");
        const std::uint64_t now = it == snap.end() ? 0 : it->second;
        EXPECT_GE(now, last);  // additive counters never go backwards
        last = now;
        static_cast<void>(counters.contains("high"));
        static_cast<void>(counters.size());
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(counters.value("writes"), (kThreads / 2) * kIterations);
}

TEST(CountersThreaded, ConcurrentMergesMatchOneCombinedRun) {
  // The exp::SweepRunner pattern: every worker observes its own run into a
  // local registry, then merges into the shared one. Additive counters must
  // sum across runs; watermark counters must keep the global max.
  Counters shared;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&shared, t] {
      for (std::uint64_t i = 0; i < 100; ++i) {
        Counters local;
        local.add("runs");
        local.add("steps", 10);
        local.observe_max("max_wavelengths", t + 1);
        shared.merge(local);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(shared.value("runs"), kThreads * 100);
  EXPECT_EQ(shared.value("steps"), kThreads * 1000);
  EXPECT_EQ(shared.value("max_wavelengths"), kThreads);
}

TEST(CountersThreaded, MergePreservesKindsAcrossRegistries) {
  Counters a;
  a.add("adds", 5);
  a.observe_max("maxes", 7);

  Counters b;
  b.add("adds", 6);
  b.observe_max("maxes", 3);

  a.merge(b);
  EXPECT_EQ(a.value("adds"), 11u);   // additive: sums
  EXPECT_EQ(a.value("maxes"), 7u);   // watermark: keeps the larger

  // A second merge into a fresh registry inherits the kinds, so chained
  // merges (worker -> bench metrics -> process summary) stay correct.
  Counters c;
  c.merge(a);
  c.merge(b);
  EXPECT_EQ(c.value("adds"), 17u);
  EXPECT_EQ(c.value("maxes"), 7u);
}

TEST(CountersThreaded, SelfMergeIsANoOp) {
  Counters counters;
  counters.add("adds", 4);
  counters.observe_max("maxes", 9);
  counters.merge(counters);
  EXPECT_EQ(counters.value("adds"), 4u);
  EXPECT_EQ(counters.value("maxes"), 9u);
}

TEST(CountersThreaded, ClearResetsEverything) {
  Counters counters;
  counters.add("adds", 4);
  counters.observe_max("maxes", 9);
  counters.clear();
  EXPECT_EQ(counters.size(), 0u);
  EXPECT_EQ(counters.value("adds"), 0u);
  EXPECT_FALSE(counters.contains("maxes"));
}

}  // namespace
}  // namespace wrht::obs
