// Pins the exact output of the WRHT schedule family: the flat-ring
// All-reduce, Reduce and Broadcast and the torus and mesh All-reduce, over
// a grid of sizes, group sizes, wavelength budgets and both
// `allow_all_to_all` settings. Each builder has one FNV-1a digest over
// every schedule's algorithm name, node and element counts and step
// labels, every Transfer field (the direction byte included) and each
// rooted schedule's root, and over the exception type and message of every
// rejected point. A digest that moves is a behaviour change to explain,
// not a constant to refresh. Plan totals are left out: test_torus_wrht and
// test_mesh_wrht check them against the schedules the builders emit.
// RegistryDigest pins every coll::Registry algorithm the same way, and
// the copy-and-rescale patch the sweep cache applies to full-vector ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "wrht/collectives/registry.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/mesh_wrht.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"

namespace wrht::core {
namespace {

constexpr std::size_t kElements = 24;

/// 64-bit FNV-1a; strings hash by length then bytes, so no two field
/// sequences collide by concatenation.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  Digest& add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }
  Digest& add(const coll::Schedule& s) {
    add(s.algorithm()).add(s.num_nodes()).add(s.elements());
    add(s.num_steps());
    for (const coll::Step& step : s.steps()) {
      add(step.label).add(step.transfers.size());
      for (const coll::Transfer& t : step.transfers) {
        add(t.src).add(t.dst).add(t.offset).add(t.count);
        add(static_cast<std::uint64_t>(t.kind)).add(t.direction.bits());
      }
    }
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) { h_ = (h_ ^ b) * 0x100000001b3ULL; }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t schedules = 0;
  std::uint64_t rejections = 0;
};

/// Runs `point` over the grid; it feeds the digest the schedule it built,
/// or the digest takes the type and message of what it threw.
class Recorder {
 public:
  void record(const std::function<void(Digest&)>& point) {
    try {
      point(digest_);
      ++outcome_.schedules;
    } catch (const InvalidArgument& e) {
      digest_.add("InvalidArgument").add(e.what());
      ++outcome_.rejections;
    } catch (const std::exception& e) {
      digest_.add(typeid(e).name()).add(e.what());
      ++outcome_.rejections;
    }
  }
  [[nodiscard]] Outcome outcome() const {
    Outcome out = outcome_;
    out.digest = digest_.value();
    return out;
  }

 private:
  Digest digest_;
  Outcome outcome_;
};

/// N 1-70 x m 1-12 x w in {1, 2, 3, 4, 8, 64} x allow_all_to_all on/off.
Outcome ring_grid(
    const std::function<void(Digest&, std::uint32_t, const WrhtOptions&)>&
        build) {
  Recorder recorder;
  for (std::uint32_t n = 1; n <= 70; ++n) {
    for (std::uint32_t m = 1; m <= 12; ++m) {
      for (const std::uint32_t w : {1u, 2u, 3u, 4u, 8u, 64u}) {
        for (const bool all_to_all : {true, false}) {
          const WrhtOptions options{m, w, all_to_all};
          recorder.record([&](Digest& d) { build(d, n, options); });
        }
      }
    }
  }
  return recorder.outcome();
}

/// rows and cols 1-13 x m 1-7 x w in {1, 2, 4, 8, 64} x allow_all_to_all
/// on/off; the topology is built inside the point, so its own rejections
/// of a 1-wide grid are recorded too.
Outcome grid_2d(const std::function<void(Digest&, std::uint32_t, std::uint32_t,
                                         const WrhtOptions&)>& build) {
  Recorder recorder;
  for (std::uint32_t rows = 1; rows <= 13; ++rows) {
    for (std::uint32_t cols = 1; cols <= 13; ++cols) {
      for (std::uint32_t m = 1; m <= 7; ++m) {
        for (const std::uint32_t w : {1u, 2u, 4u, 8u, 64u}) {
          for (const bool all_to_all : {true, false}) {
            const WrhtOptions options{m, w, all_to_all};
            recorder.record(
                [&](Digest& d) { build(d, rows, cols, options); });
          }
        }
      }
    }
  }
  return recorder.outcome();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_outcome(const Outcome& got, const Outcome& want) {
  EXPECT_EQ(hex(got.digest), hex(want.digest));
  EXPECT_EQ(got.schedules, want.schedules);
  EXPECT_EQ(got.rejections, want.rejections);
}

TEST(WrhtFamilyDigest, RingAllreduce) {
  expect_outcome(
      ring_grid([](Digest& d, std::uint32_t n, const WrhtOptions& o) {
        d.add(wrht_allreduce(n, kElements, o));
      }),
      {0xf1694c5c5693e970ULL, 9108, 972});
}

TEST(WrhtFamilyDigest, RingReduce) {
  expect_outcome(
      ring_grid([](Digest& d, std::uint32_t n, const WrhtOptions& o) {
        const WrhtRootedSchedule r = wrht_reduce(n, kElements, o);
        d.add(r.schedule).add(r.root);
      }),
      {0x7994f427c4029951ULL, 9108, 972});
}

TEST(WrhtFamilyDigest, RingBroadcast) {
  expect_outcome(
      ring_grid([](Digest& d, std::uint32_t n, const WrhtOptions& o) {
        const WrhtRootedSchedule r = wrht_broadcast(n, kElements, o);
        d.add(r.schedule).add(r.root);
      }),
      {0xb13e04f8a5594f19ULL, 9108, 972});
}

TEST(WrhtFamilyDigest, TorusAllreduce) {
  expect_outcome(grid_2d([](Digest& d, std::uint32_t rows, std::uint32_t cols,
                            const WrhtOptions& o) {
                   d.add(torus_wrht_allreduce(topo::Torus(rows, cols),
                                              kElements, o));
                 }),
                 {0x6f052ef872174fb3ULL, 8640, 3190});
}

TEST(WrhtFamilyDigest, MeshAllreduce) {
  expect_outcome(grid_2d([](Digest& d, std::uint32_t rows, std::uint32_t cols,
                            const WrhtOptions& o) {
                   d.add(mesh_wrht_allreduce(topo::Mesh(rows, cols),
                                             kElements, o));
                 }),
                 {0x532cc2f6d3b01dedULL, 8640, 3190});
}

/// Every registry algorithm x N 1-40 x elements {1, N, N+3, 1000} x
/// m {0, 2, 3, 5} x w {1, 4, 64}. A full-vector build also adds a copy
/// rescaled to elements + 7, the sweep cache's patch.
TEST(RegistryDigest, EveryAlgorithmAndRescalePatch) {
  register_wrht_algorithm();
  const coll::Registry& registry = coll::Registry::instance();
  const std::vector<std::string> algorithms = {
      "btree", "halving_doubling", "hring", "recursive_doubling", "ring",
      "wrht"};
  ASSERT_EQ(registry.names(), algorithms);
  Recorder recorder;
  for (const std::string& algorithm : algorithms) {
    for (std::uint32_t n = 1; n <= 40; ++n) {
      for (const std::size_t elements : {std::size_t{1}, std::size_t{n},
                                         std::size_t{n} + 3,
                                         std::size_t{1000}}) {
        for (const std::uint32_t m : {0u, 2u, 3u, 5u}) {
          for (const std::uint32_t w : {1u, 4u, 64u}) {
            recorder.record([&](Digest& d) {
              const coll::Schedule s =
                  registry.build(algorithm, {n, elements, m, w});
              d.add(s).add(s.full_vector());
              if (!s.full_vector()) return;
              coll::Schedule patched(s);
              patched.rescale_elements(elements + 7);
              d.add(patched);
            });
          }
        }
      }
    }
  }
  expect_outcome(recorder.outcome(), {0x98d8b1671dc1a49aULL, 9477, 2043});
}

}  // namespace
}  // namespace wrht::core
