// Argument checks cost nothing when they pass, and say exactly what failed
// when they do not.
//
// Allocation guard: this binary replaces the global operator new with a
// counting one, so a passing check that heap-allocates (for instance by
// building its message before testing its condition) shows up as a
// non-zero count on the hottest checked paths: Schedule::validate(), run
// on every engine execute(), and segment_span(), run on every RWA
// placement attempt.
//
// Message pins: checks whose message is computed throw InvalidArgument
// with the same text as before, byte for byte.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/collectives/schedule.hpp"
#include "wrht/common/error.hpp"
#include "wrht/net/resource_lease.hpp"
#include "wrht/optical/lightpath.hpp"
#include "wrht/optical/rwa.hpp"
#include "wrht/topo/ring.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms (std::stable_sort's buffer) must come from the same
// malloc as the deletes below, or a sanitizer build sees a mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

void operator delete[](void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wrht {
namespace {

/// Heap allocations made while running `fn`.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

/// Runs `fn`, which must throw InvalidArgument, and returns its message.
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected InvalidArgument";
  return {};
}

TEST(RequireAllocation, CountingNewSeesAllocations) {
  // Guards the guard: a std::string past the small-string buffer must be
  // counted, or the zero-allocation checks below prove nothing.
  const std::size_t n = allocations_during([] {
    const std::string s(64, 'x');
    EXPECT_EQ(s.size(), 64u);
  });
  EXPECT_GE(n, 1u);
}

TEST(RequireAllocation, PassingRequireDoesNotAllocate) {
  EXPECT_EQ(allocations_during([] {
              for (int i = 0; i < 1000; ++i) {
                require(i >= 0, "a passing check with a long literal message");
              }
            }),
            0u);
}

TEST(RequireAllocation, ValidateOnValidRingDoesNotAllocate) {
  const coll::Schedule schedule = coll::ring_allreduce(256, 256 * 64);
  ASSERT_GT(schedule.num_steps(), 0u);
  EXPECT_EQ(allocations_during([&] { schedule.validate(); }), 0u);
}

TEST(RequireAllocation, SegmentSpanDoesNotAllocate) {
  const topo::Ring ring(64);
  std::uint32_t hops = 0;
  EXPECT_EQ(allocations_during([&] {
              for (std::uint32_t i = 0; i < 1000; ++i) {
                const topo::NodeId src = i % 64;
                const topo::NodeId dst = (src + 1 + i % 63) % 64;
                const topo::Direction dir =
                    i % 2 == 0 ? topo::Direction::kClockwise
                               : topo::Direction::kCounterClockwise;
                hops += optics::segment_span(ring, src, dst, dir).hops;
              }
            }),
            0u);
  EXPECT_GT(hops, 0u);
}

TEST(RequireMessage, ValidateNamesTheStep) {
  coll::Schedule bad_node("test", 4, 10);
  bad_node.add_step();
  bad_node.add_step().transfers.push_back(
      coll::Transfer{0, 7, 0, 10, coll::TransferKind::kReduce, {}});
  EXPECT_EQ(invalid_argument_message([&] { bad_node.validate(); }),
            "Schedule: node id out of range in step 1");

  coll::Schedule self("test", 4, 10);
  self.add_step().transfers.push_back(
      coll::Transfer{2, 2, 0, 10, coll::TransferKind::kReduce, {}});
  EXPECT_EQ(invalid_argument_message([&] { self.validate(); }),
            "Schedule: self-transfer in step 0");

  coll::Schedule range("test", 4, 10);
  range.add_step();
  range.add_step();
  range.add_step().transfers.push_back(
      coll::Transfer{0, 1, 5, 6, coll::TransferKind::kCopy, {}});
  EXPECT_EQ(invalid_argument_message([&] { range.validate(); }),
            "Schedule: element range out of bounds in step 2");
}

TEST(RequireMessage, RwaRejectsEmptyLeasedSlice) {
  const topo::Ring ring(8);
  const std::vector<coll::Transfer> transfers{
      coll::Transfer{0, 1, 0, 1, coll::TransferKind::kReduce, {}}};
  optics::RwaOptions options;
  options.wavelengths = 4;
  options.wavelength_lo = 4;
  const std::string expected = "RWA: leased slice [4, 4) is empty";
  EXPECT_EQ(invalid_argument_message([&] {
              (void)optics::assign_wavelengths(ring, transfers, options);
            }),
            expected);
  EXPECT_EQ(invalid_argument_message([&] {
              (void)optics::assign_rounds(ring, transfers, options);
            }),
            expected);
}

TEST(RequireMessage, ResourceLeaseNamesTheSlice) {
  const net::ResourceLease empty{3, 3, 0};
  EXPECT_EQ(invalid_argument_message([&] { empty.validate(8); }),
            "ResourceLease: empty slice [3, 3)");
  const net::ResourceLease wide{2, 10, 1};
  EXPECT_EQ(invalid_argument_message([&] { wide.validate(8); }),
            "ResourceLease: slice [2, 10) exceeds the fabric's 8 wavelengths");
}

TEST(RequireMessage, RescaleRejectsChunkedSchedule) {
  coll::Schedule chunked = coll::ring_allreduce(4, 8);
  EXPECT_EQ(invalid_argument_message([&] { chunked.rescale_elements(16); }),
            "rescale_elements: schedule '" + chunked.algorithm() +
                "' has chunked transfers; only full-vector schedules rescale");

  coll::Schedule named("hand-built", 4, 10);
  named.add_step().transfers.push_back(
      coll::Transfer{0, 1, 0, 5, coll::TransferKind::kReduce, {}});
  EXPECT_EQ(invalid_argument_message([&] { named.rescale_elements(20); }),
            "rescale_elements: schedule 'hand-built' has chunked transfers; "
            "only full-vector schedules rescale");
}

}  // namespace
}  // namespace wrht
