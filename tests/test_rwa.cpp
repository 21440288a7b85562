#include "wrht/optical/rwa.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/halving_doubling.hpp"
#include "wrht/collectives/hring_allreduce.hpp"
#include "wrht/collectives/recursive_doubling.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/grouping.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/optical/torus_network.hpp"
#include "wrht/plan/schedule_planner.hpp"

namespace wrht::optics {
namespace {

using coll::Transfer;
using coll::TransferKind;
using topo::Direction;
using topo::Ring;

Transfer t(topo::NodeId src, topo::NodeId dst,
           std::optional<Direction> dir = std::nullopt) {
  return Transfer{src, dst, 0, 1, TransferKind::kReduce, dir};
}

/// Asserts the assignment is conflict-free: same (direction, wavelength)
/// lightpaths must not overlap.
void expect_conflict_free(const Ring& ring, const std::vector<Lightpath>& ps) {
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t j = i + 1; j < ps.size(); ++j) {
      const auto& a = ps[i];
      const auto& b = ps[j];
      if (a.direction != b.direction || a.wavelength != b.wavelength) {
        continue;
      }
      EXPECT_FALSE(spans_overlap({a.first_segment, a.hops},
                                 {b.first_segment, b.hops}, ring.size()))
          << "lightpaths " << i << " and " << j << " conflict";
    }
  }
}

TEST(Rwa, DisjointNeighbourTransfersShareOneWavelength) {
  // Ring All-reduce step: every node to its clockwise neighbour.
  const Ring ring(8);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 8; ++i) {
    step.push_back(t(i, (i + 1) % 8, Direction::kClockwise));
  }
  const RoundsResult res = assign_rounds(ring, step, RwaOptions{64});
  ASSERT_EQ(res.rounds.size(), 1u);
  EXPECT_EQ(res.wavelengths_used, 1u);
  expect_conflict_free(ring, res.paths[0]);
}

TEST(Rwa, NestedPathsNeedDistinctWavelengths) {
  // 0->4, 1->4, 2->4, 3->4 clockwise: all overlap near node 4.
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 4; ++i) {
    step.push_back(t(i, 4, Direction::kClockwise));
  }
  const RoundsResult res = assign_rounds(ring, step, RwaOptions{64});
  ASSERT_EQ(res.rounds.size(), 1u);
  EXPECT_EQ(res.wavelengths_used, 4u);
  expect_conflict_free(ring, res.paths[0]);
}

TEST(Rwa, TwoDirectionsReuseWavelengths) {
  // WRHT group: members both sides of rep 4, same wavelengths per side.
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i : {2u, 3u}) step.push_back(t(i, 4, Direction::kClockwise));
  for (topo::NodeId i : {5u, 6u}) {
    step.push_back(t(i, 4, Direction::kCounterClockwise));
  }
  const RoundsResult res = assign_rounds(ring, step, RwaOptions{64});
  ASSERT_EQ(res.rounds.size(), 1u);
  EXPECT_EQ(res.wavelengths_used, 2u);  // floor(m/2) with m=5
  expect_conflict_free(ring, res.paths[0]);
}

TEST(Rwa, HintRespected) {
  const Ring ring(10);
  const std::vector<Transfer> step = {t(0, 3, Direction::kCounterClockwise)};
  const RoundsResult res = assign_rounds(ring, step, RwaOptions{4});
  ASSERT_EQ(res.rounds.size(), 1u);
  EXPECT_EQ(res.paths[0][0].direction, Direction::kCounterClockwise);
  EXPECT_EQ(res.paths[0][0].hops, 7u);
}

TEST(Rwa, ShortestDirectionChosenWithoutHint) {
  const Ring ring(10);
  const RoundsResult cw =
      assign_rounds(ring, std::vector<Transfer>{t(0, 3)}, RwaOptions{4});
  ASSERT_EQ(cw.rounds.size(), 1u);
  EXPECT_EQ(cw.paths[0][0].direction, Direction::kClockwise);
  const RoundsResult ccw =
      assign_rounds(ring, std::vector<Transfer>{t(0, 8)}, RwaOptions{4});
  ASSERT_EQ(ccw.rounds.size(), 1u);
  EXPECT_EQ(ccw.paths[0][0].direction, Direction::kCounterClockwise);
}

TEST(Rwa, FailsWhenBudgetExceeded) {
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 4; ++i) {
    step.push_back(t(i, 4, Direction::kClockwise));
  }
  const RoundsResult res = assign_rounds(ring, step, RwaOptions{3});
  EXPECT_GT(res.rounds.size(), 1u);
}

TEST(Rwa, RandomFitIsConflictFreeAndSeedStable) {
  const Ring ring(32);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 8; ++i) {
    step.push_back(t(i, 8, Direction::kClockwise));
  }
  RwaOptions opt{64, RwaPolicy::kRandomFit};
  Rng rng_a(7), rng_b(7);
  const RoundsResult a = assign_rounds(ring, step, opt, &rng_a);
  const RoundsResult b = assign_rounds(ring, step, opt, &rng_b);
  ASSERT_EQ(a.rounds.size(), 1u);
  expect_conflict_free(ring, a.paths[0]);
  ASSERT_EQ(a.rounds, b.rounds);
  for (std::size_t i = 0; i < a.paths[0].size(); ++i) {
    EXPECT_EQ(a.paths[0][i].wavelength, b.paths[0][i].wavelength);
  }
}

TEST(Rwa, RandomFitRequiresRng) {
  const Ring ring(8);
  RwaOptions opt{4, RwaPolicy::kRandomFit};
  EXPECT_THROW((void)assign_rounds(ring, std::vector<Transfer>{t(0, 1)}, opt),
               InvalidArgument);
}

TEST(Rwa, AllToAllStaysNearLiangShenBound) {
  // k equally spaced reps on a ring: the per-segment load (and hence the
  // wavelength minimum) is ceil(k^2/8) [Liang & Shen]. Greedy first-fit
  // colouring carries a bounded overhead: <= 1.5x the bound across the
  // sweep, approaching 1.1x for large k (see DESIGN.md).
  for (const std::uint32_t k : {3u, 4u, 5u, 8u, 16u, 32u}) {
    const std::uint32_t n = 8 * k;
    const Ring ring(n);
    std::vector<Transfer> step;
    for (std::uint32_t a = 0; a < k; ++a) {
      for (std::uint32_t b = 0; b < k; ++b) {
        if (a == b) continue;
        const topo::NodeId sa = a * (n / k);
        const topo::NodeId sb = b * (n / k);
        // Split antipodal ties across the directions like the WRHT
        // builder.
        const std::uint32_t cw = ring.cw_distance(sa, sb);
        const std::uint32_t ccw = ring.ccw_distance(sa, sb);
        std::optional<Direction> dir;
        if (cw < ccw) {
          dir = Direction::kClockwise;
        } else if (ccw < cw) {
          dir = Direction::kCounterClockwise;
        } else {
          dir = sa < sb ? Direction::kClockwise : Direction::kCounterClockwise;
        }
        step.push_back(t(sa, sb, dir));
      }
    }
    const std::uint32_t bound =
        static_cast<std::uint32_t>(core::all_to_all_wavelengths(k));
    const RoundsResult res =
        assign_rounds(ring, step, RwaOptions{4 * bound});
    ASSERT_EQ(res.rounds.size(), 1u) << "k=" << k;
    expect_conflict_free(ring, res.paths[0]);
    EXPECT_LE(res.wavelengths_used, (3 * bound + 1) / 2) << "k=" << k;
  }
}

TEST(RwaRounds, SingleRoundWhenBudgetSuffices) {
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 4; ++i) {
    step.push_back(t(i, 4, Direction::kClockwise));
  }
  const RoundsResult res = assign_rounds(ring, step, RwaOptions{4});
  EXPECT_EQ(res.rounds.size(), 1u);
  EXPECT_EQ(res.rounds[0].size(), 4u);
}

TEST(RwaRounds, SplitsWhenStarved) {
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 4; ++i) {
    step.push_back(t(i, 4, Direction::kClockwise));
  }
  const RoundsResult res = assign_rounds(ring, step, RwaOptions{2});
  EXPECT_EQ(res.rounds.size(), 2u);
  std::size_t total = 0;
  for (const auto& r : res.rounds) total += r.size();
  EXPECT_EQ(total, 4u);
  EXPECT_LE(res.wavelengths_used, 2u);
}

TEST(RwaRounds, EveryTransferAssignedExactlyOnce) {
  const Ring ring(16);
  std::vector<Transfer> step;
  for (topo::NodeId i = 0; i < 8; ++i) {
    if (i != 4) step.push_back(t(i, 4));
  }
  const RoundsResult res = assign_rounds(ring, step, RwaOptions{1});
  std::vector<int> seen(step.size(), 0);
  for (const auto& round : res.rounds) {
    for (const std::size_t idx : round) ++seen[idx];
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
}

TEST(Rwa, Validation) {
  const Ring ring(8);
  const std::vector<Transfer> step = {t(0, 1)};
  EXPECT_THROW(assign_rounds(ring, {}, RwaOptions{0}), InvalidArgument);
  EXPECT_THROW(assign_rounds(ring, step, RwaOptions{0}), InvalidArgument);
  EXPECT_THROW(assign_rounds_batch(ring, {step}, RwaOptions{0}, 1),
               InvalidArgument);

  OpticalConfig dark;
  dark.wavelengths = 0;
  EXPECT_THROW(RingNetwork(8, dark), InvalidArgument);
  EXPECT_THROW(TorusNetwork(topo::Torus(3, 3), dark), InvalidArgument);
}

// The per-wavelength first-fit / random-fit probe the word-per-segment
// occupancy map replaced, kept as the reference its assignments must equal
// exactly: one byte per segment for each (direction, wavelength),
// wavelengths probed one at a time.
namespace reference {

class OccupancyMap {
 public:
  OccupancyMap(std::uint32_t n, const RwaOptions& opt)
      : n_(n), wavelengths_(opt.wavelengths), bitmaps_(2 * opt.wavelengths) {}

  [[nodiscard]] bool fits(Direction dir, std::uint32_t lambda,
                          const SegmentSpan& span) const {
    const auto& bitmap = bitmaps_[index(dir, lambda)];
    if (bitmap.empty()) return true;
    for (std::uint32_t h = 0; h < span.hops; ++h) {
      if (bitmap[(span.first + h) % n_]) return false;
    }
    return true;
  }

  void place(Direction dir, std::uint32_t lambda, const SegmentSpan& span) {
    auto& bitmap = bitmaps_[index(dir, lambda)];
    if (bitmap.empty()) bitmap.assign(n_, 0);
    for (std::uint32_t h = 0; h < span.hops; ++h) {
      bitmap[(span.first + h) % n_] = 1;
    }
  }

 private:
  [[nodiscard]] std::size_t index(Direction dir, std::uint32_t lambda) const {
    const std::size_t d = dir == Direction::kClockwise ? 0 : 1;
    return d * wavelengths_ + lambda;
  }

  std::uint32_t n_;
  std::uint32_t wavelengths_;
  std::vector<std::vector<std::uint8_t>> bitmaps_;
};

std::vector<std::size_t> order_by_hops(const Ring& ring,
                                       std::span<const Transfer> transfers) {
  std::vector<std::size_t> order(transfers.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ring.distance(transfers[a].src, transfers[a].dst) >
                            ring.distance(transfers[b].src, transfers[b].dst);
                   });
  return order;
}

bool try_assign(const Ring& ring, const Transfer& tr, const RwaOptions& opt,
                OccupancyMap& occupancy, Rng* rng, Lightpath& out) {
  const Direction dir =
      tr.direction ? *tr.direction : ring.shortest_direction(tr.src, tr.dst);
  const SegmentSpan span = segment_span(ring, tr.src, tr.dst, dir);
  std::vector<std::uint32_t> lambda_order(opt.wavelengths - opt.wavelength_lo);
  std::iota(lambda_order.begin(), lambda_order.end(), opt.wavelength_lo);
  if (opt.policy == RwaPolicy::kRandomFit) {
    for (auto i = static_cast<std::uint32_t>(lambda_order.size()); i > 1;
         --i) {
      const auto j = static_cast<std::uint32_t>(rng->uniform_int(0, i - 1));
      std::swap(lambda_order[i - 1], lambda_order[j]);
    }
  }
  for (const std::uint32_t lambda : lambda_order) {
    if (occupancy.fits(dir, lambda, span)) {
      occupancy.place(dir, lambda, span);
      out = Lightpath{tr.src, tr.dst, dir, lambda, span.first, span.hops};
      return true;
    }
  }
  return false;
}

/// A one-round assignment: `paths` parallel to the input, valid when ok.
struct OneRound {
  bool ok = false;
  std::vector<Lightpath> paths;
  std::uint32_t wavelengths_used = 0;
};

/// Places every transfer in one round, and stops at the first that does
/// not fit (ok = false).
OneRound reference_one_round(const Ring& ring,
                             std::span<const Transfer> transfers,
                             const RwaOptions& options, Rng* rng) {
  OneRound result;
  result.paths.resize(transfers.size());
  OccupancyMap occupancy(ring.size(), options);
  for (const std::size_t idx : order_by_hops(ring, transfers)) {
    Lightpath path;
    if (!try_assign(ring, transfers[idx], options, occupancy, rng, path)) {
      return OneRound{};
    }
    result.paths[idx] = path;
    result.wavelengths_used =
        std::max(result.wavelengths_used, path.wavelength + 1);
  }
  result.ok = true;
  return result;
}

RoundsResult reference_assign_rounds(const Ring& ring,
                                     std::span<const Transfer> transfers,
                                     const RwaOptions& options, Rng* rng) {
  RoundsResult result;
  std::vector<std::size_t> remaining = order_by_hops(ring, transfers);
  while (!remaining.empty()) {
    OccupancyMap occupancy(ring.size(), options);
    std::vector<std::size_t> round;
    std::vector<Lightpath> paths;
    std::vector<std::size_t> deferred;
    for (const std::size_t idx : remaining) {
      Lightpath path;
      if (try_assign(ring, transfers[idx], options, occupancy, rng, path)) {
        round.push_back(idx);
        paths.push_back(path);
        result.wavelengths_used =
            std::max(result.wavelengths_used, path.wavelength + 1);
      } else {
        deferred.push_back(idx);
      }
    }
    EXPECT_FALSE(round.empty());
    if (round.empty()) break;
    result.rounds.push_back(std::move(round));
    result.paths.push_back(std::move(paths));
    remaining = std::move(deferred);
  }
  return result;
}

}  // namespace reference

void expect_same_paths(const std::vector<Lightpath>& got,
                       const std::vector<Lightpath>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Lightpath& g = got[i];
    const Lightpath& w = want[i];
    ASSERT_TRUE(g.src == w.src && g.dst == w.dst &&
                g.direction == w.direction && g.wavelength == w.wavelength &&
                g.first_segment == w.first_segment && g.hops == w.hops)
        << where << ": path " << i << " is " << g.src << "->" << g.dst
        << " dir " << static_cast<int>(g.direction) << " lambda "
        << g.wavelength << " [" << g.first_segment << " +" << g.hops
        << "), reference lambda " << w.wavelength << " dir "
        << static_cast<int>(w.direction);
  }
}

/// Random transfers with random or absent direction hints: long spans in
/// both directions that wrap past node N-1, which no collective places on
/// every segment.
std::vector<Transfer> random_step(Rng& rng, std::uint32_t n,
                                  std::size_t count) {
  std::vector<Transfer> step;
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<topo::NodeId>(rng.uniform_int(0, n - 1));
    const auto dst = static_cast<topo::NodeId>(
        (src + 1 + rng.uniform_int(0, n - 2)) % n);
    std::optional<Direction> dir;
    if (const auto pick = rng.uniform_int(0, 2); pick < 2) {
      dir = pick == 0 ? Direction::kClockwise : Direction::kCounterClockwise;
    }
    step.push_back(t(src, dst, dir));
  }
  return step;
}

struct ReferenceStep {
  std::string name;
  std::uint32_t n;
  std::vector<Transfer> transfers;
};

/// Compares assign_rounds with both references, bit for bit and in Rng
/// consumption, on the w / lo / policy grid. `compared` counts the grid
/// points and seeds each step's Rngs.
void expect_reference_grid(const ReferenceStep& step, std::size_t& compared) {
  const Ring ring(step.n);
  const std::uint64_t seed = 17 * compared + 1;
  for (const std::uint32_t w :
       {1u, 2u, 3u, 4u, 16u, 63u, 64u, 65u, 128u, 200u, 256u}) {
    for (const std::uint32_t lo : {0u, 1u, 3u}) {
      if (lo >= w) continue;
      for (const RwaPolicy policy :
           {RwaPolicy::kFirstFit, RwaPolicy::kRandomFit}) {
        RwaOptions opt{w, policy, lo};
        const std::string where =
            step.name + " w=" + std::to_string(w) + " lo=" +
            std::to_string(lo) +
            (policy == RwaPolicy::kFirstFit ? " first-fit" : " random-fit");
        {
          // One round exactly when the one-round reference fits, and then
          // that round is the reference's assignment.
          Rng rng(seed), ref_rng(seed);
          const RoundsResult got =
              assign_rounds(ring, step.transfers, opt, &rng);
          const reference::OneRound want = reference::reference_one_round(
              ring, step.transfers, opt, &ref_rng);
          ASSERT_EQ(got.rounds.size() == 1, want.ok) << where;
          if (want.ok) {
            ASSERT_EQ(got.wavelengths_used, want.wavelengths_used) << where;
            std::vector<Lightpath> by_input(got.paths[0].size());
            for (std::size_t j = 0; j < by_input.size(); ++j) {
              by_input[got.rounds[0][j]] = got.paths[0][j];
            }
            expect_same_paths(by_input, want.paths, where);
            ASSERT_EQ(rng.uniform_int(0, 1u << 30),
                      ref_rng.uniform_int(0, 1u << 30))
                << where << ": Rng consumption differs";
          }
        }
        {
          Rng rng(seed), ref_rng(seed);
          const RoundsResult got =
              assign_rounds(ring, step.transfers, opt, &rng);
          const RoundsResult want = reference::reference_assign_rounds(
              ring, step.transfers, opt, &ref_rng);
          ASSERT_EQ(got.wavelengths_used, want.wavelengths_used) << where;
          ASSERT_EQ(got.rounds, want.rounds) << where;
          ASSERT_EQ(got.paths.size(), want.paths.size()) << where;
          for (std::size_t r = 0; r < got.paths.size(); ++r) {
            expect_same_paths(got.paths[r], want.paths[r],
                              where + " round " + std::to_string(r));
          }
          ASSERT_EQ(rng.uniform_int(0, 1u << 30),
                    ref_rng.uniform_int(0, 1u << 30))
              << where << ": Rng consumption differs";
        }
        ++compared;
      }
    }
  }
}

TEST(RwaReference, AssignmentsEqualThePerWavelengthProbe) {
  struct Problem {
    std::string name;
    coll::Schedule schedule;
  };
  std::vector<Problem> problems;
  problems.push_back({"ring 5", coll::ring_allreduce(5, 10)});
  problems.push_back({"ring 33", coll::ring_allreduce(33, 66)});
  problems.push_back({"hring 24/4", coll::hring_allreduce(24, 48, 4)});
  problems.push_back({"hring 100/5", coll::hring_allreduce(100, 200, 5)});
  problems.push_back({"btree 9", coll::btree_allreduce(9, 9)});
  problems.push_back({"btree 64", coll::btree_allreduce(64, 64)});
  problems.push_back(
      {"wrht 30/7", core::wrht_allreduce(30, 30, core::WrhtOptions{7, 3})});
  // Two full level-0 groups of the paper's m = 2w + 1 = 129, whose nested
  // paths fill all 64 wavelengths, and 17 groups of 17 under w = 8.
  problems.push_back(
      {"wrht 258/129",
       core::wrht_allreduce(258, 258, core::WrhtOptions{129, 64})});
  problems.push_back(
      {"wrht 289/17",
       core::wrht_allreduce(289, 289, core::WrhtOptions{17, 8})});
  problems.push_back(
      {"recursive doubling 20", coll::recursive_doubling_allreduce(20, 20)});
  problems.push_back(
      {"halving doubling 16", coll::halving_doubling_allreduce(16, 16)});
  problems.push_back({"all-to-all 7", plan::flat_alltoall_allreduce(7, 7)});
  problems.push_back({"all-to-all 16", plan::flat_alltoall_allreduce(16, 16)});

  std::vector<ReferenceStep> steps;
  for (const Problem& p : problems) {
    const auto& all = p.schedule.steps();
    // First and middle step: a collective's distinct shapes without
    // repeating its rotations or its broadcast mirror.
    std::vector<std::size_t> picks{0};
    if (all.size() > 1) picks.push_back(all.size() / 2);
    for (const std::size_t s : picks) {
      const auto& transfers = all[s].transfers;
      steps.push_back({p.name + " step " + std::to_string(s),
                       p.schedule.num_nodes(),
                       std::vector<Transfer>(transfers.begin(),
                                             transfers.end())});
    }
  }
  Rng draw(2023);
  for (const auto& [n, count] : {std::pair{5u, 8u}, std::pair{64u, 96u},
                                 std::pair{1024u, 192u}}) {
    steps.push_back(
        {"random " + std::to_string(n), n, random_step(draw, n, count)});
  }

  std::size_t compared = 0;
  for (const ReferenceStep& step : steps) {
    expect_reference_grid(step, compared);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(compared, 1000u);
}


/// `arc` (transfers on nodes 0, 1, ...) moved to start at node `start` of
/// an n-node ring, hints kept.
std::vector<Transfer> rotated(const std::vector<Transfer>& arc,
                              std::uint32_t start, std::uint32_t n) {
  std::vector<Transfer> out = arc;
  for (Transfer& tr : out) {
    tr.src = (tr.src + start) % n;
    tr.dst = (tr.dst + start) % n;
  }
  return out;
}

std::vector<Transfer> joined(
    std::initializer_list<std::vector<Transfer>> parts) {
  std::vector<Transfer> out;
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// Steps built by hand to hit each rule of the arc-by-arc first-fit: where
/// the ring is cut, which arcs are copies, and how rounds are emitted.
TEST(RwaReference, HandBuiltArcStepsEqualThePerWavelengthProbe) {
  std::vector<ReferenceStep> steps;
  {
    // Arcs that only touch: N one-hop arcs, both ways round.
    std::vector<Transfer> cw, ccw;
    for (topo::NodeId i = 0; i < 12; ++i) {
      cw.push_back(t(i, (i + 1) % 12, Direction::kClockwise));
      ccw.push_back(t((i + 1) % 12, i));
    }
    steps.push_back({"ring neighbours cw", 12, cw});
    steps.push_back({"ring neighbours ccw", 12, ccw});
  }
  {
    // Every boundary crossed: the whole ring is one arc, and it wraps.
    std::vector<Transfer> all;
    for (topo::NodeId i = 0; i < 10; ++i) all.push_back(t(i, (i + 3) % 10));
    steps.push_back({"one wrapping arc", 10, all});
  }
  {
    // The only uncrossed boundary is at segment 0, then at segment N - 1:
    // one arc as long as the ring.
    const std::vector<Transfer> at0 = {t(0, 4, Direction::kClockwise),
                                       t(3, 7, Direction::kClockwise),
                                       t(6, 0, Direction::kClockwise),
                                       t(1, 3)};
    steps.push_back({"only boundary 0 uncut", 10, at0});
    steps.push_back({"only boundary N-1 uncut", 10, rotated(at0, 9, 10)});
  }
  {
    // Copies of one arc, the first wrapping past N - 1.
    const std::vector<Transfer> arc = {t(0, 3, Direction::kClockwise),
                                       t(1, 3), t(5, 3), t(4, 3)};
    steps.push_back({"wrapping copies", 24,
                     joined({rotated(arc, 22, 24), rotated(arc, 6, 24),
                             rotated(arc, 14, 24)})});
  }
  {
    // Arcs needing 5, 2 and 1 rounds at one wavelength.
    std::vector<Transfer> step;
    for (topo::NodeId i = 0; i < 5; ++i) step.push_back(t(i, 5));
    step.push_back(t(20, 23));
    step.push_back(t(21, 23));
    step.push_back(t(30, 31));
    steps.push_back({"different round counts", 40, step});
  }
  {
    // Duplicate transfers, in copies.
    const std::vector<Transfer> arc = {t(3, 7), t(3, 7), t(4, 6), t(3, 7),
                                       t(4, 6)};
    steps.push_back({"duplicates", 30,
                     joined({arc, rotated(arc, 10, 30), rotated(arc, 20, 30)})});
  }
  {
    // Mixed directions inside one arc, and a copy with one flipped.
    const std::vector<Transfer> arc = {
        t(2, 6, Direction::kClockwise), t(8, 4, Direction::kCounterClockwise),
        t(5, 9), t(7, 3), t(3, 8, Direction::kClockwise)};
    std::vector<Transfer> flipped = rotated(arc, 20, 40);
    flipped[4] = t(28, 23, Direction::kCounterClockwise);
    steps.push_back({"mixed directions", 40,
                     joined({arc, rotated(arc, 10, 40), flipped})});
  }
  {
    // The paper's m = 2w + 1 = 129 at N = 1000: the short last group (97
    // nodes) is not a translated copy of the others.
    const coll::Schedule wrht =
        core::wrht_allreduce(1000, 1000, core::WrhtOptions{129, 64});
    for (const std::size_t s : {std::size_t{0}, wrht.num_steps() / 2}) {
      const auto& transfers = wrht.steps()[s].transfers;
      steps.push_back({"wrht 1000/129 step " + std::to_string(s), 1000,
                       std::vector<Transfer>(transfers.begin(),
                                             transfers.end())});
    }
  }

  std::size_t compared = 0;
  for (const ReferenceStep& step : steps) {
    expect_reference_grid(step, compared);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(compared, 500u);
}

/// One random arc copied to random rotations, some gapped and some
/// touching, copies interleaved in the input. Then one copy is perturbed:
/// one endpoint moved, one direction flipped (same segments), or two
/// equal-length transfers swapped in hop order (the same multiset of
/// transfers in another order).
ReferenceStep perturbed_copies(Rng& rng, int index) {
  const auto n = static_cast<std::uint32_t>(40 + rng.uniform_int(0, 120));
  const auto length = static_cast<std::uint32_t>(2 + rng.uniform_int(0, 8));
  const auto size = static_cast<std::uint32_t>(1 + rng.uniform_int(0, 5));
  std::vector<Transfer> arc;
  for (std::uint32_t j = 0; j < size; ++j) {
    const auto a = static_cast<topo::NodeId>(rng.uniform_int(0, length - 1));
    const auto b = static_cast<topo::NodeId>(rng.uniform_int(a + 1, length));
    const bool ccw = rng.uniform_int(0, 1) == 1;
    const bool hinted = rng.uniform_int(0, 1) == 1;
    std::optional<Direction> dir;
    if (hinted) dir = ccw ? Direction::kCounterClockwise : Direction::kClockwise;
    arc.push_back(ccw ? t(b, a, dir) : t(a, b, dir));
  }
  std::vector<std::uint32_t> starts;
  const auto first = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
  for (std::uint32_t used = 0; used + length <= n;) {
    starts.push_back((first + used) % n);
    const auto gap = rng.uniform_int(0, 1) == 0
                         ? 0u
                         : static_cast<std::uint32_t>(rng.uniform_int(1, 3));
    used += length + gap;
  }
  // Transfer j of every copy, then transfer j + 1 of every copy, ...
  std::vector<Transfer> step;
  for (std::uint32_t j = 0; j < size; ++j) {
    for (const std::uint32_t start : starts) {
      step.push_back(rotated({arc[j]}, start, n)[0]);
    }
  }
  const auto copies = static_cast<std::uint32_t>(starts.size());
  const auto copy = static_cast<std::uint32_t>(rng.uniform_int(0, copies - 1));
  const Ring ring(n);
  std::string how;
  auto kind = rng.uniform_int(0, 2);
  if (kind == 2) {
    // Two transfers of one length swap places in the input.
    std::optional<std::pair<std::uint32_t, std::uint32_t>> pair;
    for (std::uint32_t x = 0; x < size && !pair; ++x) {
      for (std::uint32_t y = x + 1; y < size && !pair; ++y) {
        if (ring.distance(arc[x].src, arc[x].dst) ==
                ring.distance(arc[y].src, arc[y].dst) &&
            (arc[x].src != arc[y].src || arc[x].dst != arc[y].dst ||
             arc[x].direction != arc[y].direction)) {
          pair = {x, y};
        }
      }
    }
    if (pair) {
      std::swap(step[pair->first * copies + copy],
                step[pair->second * copies + copy]);
      how = "swapped";
    } else {
      kind = 1;
    }
  }
  Transfer& victim = step[static_cast<std::uint32_t>(
                              rng.uniform_int(0, size - 1)) *
                              copies +
                          copy];
  if (kind == 1) {
    // The same segments the other way round.
    std::swap(victim.src, victim.dst);
    if (victim.direction) victim.direction = topo::opposite(*victim.direction);
    how = "flipped";
  } else if (kind == 0) {
    const topo::NodeId moved =
        rng.uniform_int(0, 1) == 0 ? (victim.dst + 1) % n
                                   : (victim.dst + n - 1) % n;
    if (moved != victim.src) victim.dst = moved;
    how = "moved";
  }
  return {"copies " + std::to_string(index) + " (n=" + std::to_string(n) +
              ", " + std::to_string(copies) + " copies, " + how + ")",
          n, step};
}

TEST(RwaReference, PerturbedArcCopiesEqualThePerWavelengthProbe) {
  Rng draw(31);
  std::size_t compared = 0;
  for (int index = 0; index < 60; ++index) {
    expect_reference_grid(perturbed_copies(draw, index), compared);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(compared, 2500u);
}

}  // namespace
}  // namespace wrht::optics
