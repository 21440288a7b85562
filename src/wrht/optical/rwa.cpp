#include "wrht/optical/rwa.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <exception>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "wrht/common/env.hpp"
#include "wrht/common/error.hpp"
#include "wrht/net/pattern_key.hpp"
#include "wrht/prof/prof.hpp"

namespace wrht::optics {

namespace {

void require_valid(const RwaOptions& options) {
  require(options.wavelengths >= 1, "RWA: need at least one wavelength");
  if (options.wavelength_lo >= options.wavelengths) {
    throw InvalidArgument("RWA: leased slice [" +
                          std::to_string(options.wavelength_lo) + ", " +
                          std::to_string(options.wavelengths) + ") is empty");
  }
}

/// "No wavelength fits": above every index a uint32 budget can hold.
constexpr std::uint32_t kNoWavelength = UINT32_MAX;

constexpr std::uint64_t bit(std::uint32_t lambda) {
  return std::uint64_t{1} << (lambda % 64);
}

/// Where one transfer is placed: its round and its wavelength.
struct Placement {
  std::uint32_t round = 0;
  std::uint32_t wavelength = kNoWavelength;
};

/// Occupancy bookkeeping: for each direction, one run of ceil(w/64) words
/// per fiber segment, where bit lambda of a segment's words means
/// "wavelength lambda is lit on this segment". A span is read once for
/// every wavelength: OR-ing its segments' words gives the wavelengths lit
/// anywhere on it, so a conflict check costs O(hops) whatever the budget.
class OccupancyMap {
 public:
  explicit OccupancyMap(const RwaOptions& opt)
      : words_(opt.wavelengths / 64 + (opt.wavelengths % 64 != 0 ? 1 : 0)),
        lo_word_(opt.wavelength_lo / 64),
        hi_word_((opt.wavelengths - 1) / 64),
        slice_(words_, 0),
        lit_on_span_(words_, 0) {
    for (std::uint32_t lambda = opt.wavelength_lo; lambda < opt.wavelengths;
         ++lambda) {
      slice_[lambda / 64] |= bit(lambda);
    }
  }

  /// Sizes the map for a ring of `n` segments, every wavelength dark.
  void reset(std::uint32_t n) {
    n_ = n;
    lit_.assign(std::size_t{2} * n_ * words_, 0);
  }

  /// Lowest slice wavelength dark on every segment of `span`, or
  /// kNoWavelength.
  [[nodiscard]] std::uint32_t first_fit(topo::Direction dir,
                                        const SegmentSpan& span) {
    if (!gather(dir, span)) return kNoWavelength;
    for (std::uint32_t k = lo_word_; k <= hi_word_; ++k) {
      const std::uint64_t dark = slice_[k] & ~lit_on_span_[k];
      if (dark != 0) return k * 64 + std::countr_zero(dark);
    }
    return kNoWavelength;
  }

  /// First wavelength of `order` dark on every segment of `span`, or
  /// kNoWavelength.
  [[nodiscard]] std::uint32_t first_in(topo::Direction dir,
                                       const SegmentSpan& span,
                                       std::span<const std::uint32_t> order) {
    if (!gather(dir, span)) return kNoWavelength;
    for (const std::uint32_t lambda : order) {
      if ((lit_on_span_[lambda / 64] & bit(lambda)) == 0) return lambda;
    }
    return kNoWavelength;
  }

  void place(topo::Direction dir, const SegmentSpan& span,
             const Placement& at) {
    const std::uint64_t lambda = bit(at.wavelength);
    for_each_segment(dir, span, at,
                     [&](std::uint64_t& segment) { segment |= lambda; });
  }

  /// Darkens the words a placement lit. Between rounds every lit word
  /// belongs to a placement of the round just ended, so clearing those
  /// resets the map without touching the rest of it.
  void clear(topo::Direction dir, const SegmentSpan& span,
             const Placement& at) {
    for_each_segment(dir, span, at,
                     [](std::uint64_t& segment) { segment = 0; });
  }

 private:
  /// A span as at most two runs of segments that do not wrap past N - 1,
  /// so no hop needs a modulo.
  struct Run {
    std::uint32_t first;
    std::uint32_t count;
  };
  [[nodiscard]] std::array<Run, 2> split(const SegmentSpan& span) const {
    const std::uint32_t head = std::min(span.hops, n_ - span.first);
    return {Run{span.first, head}, Run{0, span.hops - head}};
  }

  [[nodiscard]] std::size_t row(topo::Direction dir) const {
    return dir == topo::Direction::kClockwise ? 0 : std::size_t{n_} * words_;
  }

  template <typename F>
  void for_each_segment(topo::Direction dir, const SegmentSpan& span,
                        const Placement& at, F&& f) {
    std::uint64_t* words = &lit_[row(dir) + at.wavelength / 64];
    for (const Run& run : split(span)) {
      std::uint64_t* word = words + std::size_t{run.first} * words_;
      for (std::uint32_t h = 0; h < run.count; ++h, word += words_) f(*word);
    }
  }

  /// ORs the words of every segment on `span` into lit_on_span_. Returns
  /// false, and stops reading, as soon as every slice wavelength is lit
  /// somewhere on the span: nothing can fit then.
  [[nodiscard]] bool gather(topo::Direction dir, const SegmentSpan& span) {
    const std::uint64_t* words = &lit_[row(dir)];
    if (lo_word_ == hi_word_) {
      // The whole slice sits in one word: keep the union in a register.
      const std::uint64_t slice = slice_[lo_word_];
      std::uint64_t lit = 0;
      for (const Run& run : split(span)) {
        const std::uint64_t* word =
            words + std::size_t{run.first} * words_ + lo_word_;
        for (std::uint32_t h = 0; h < run.count; ++h, word += words_) {
          lit |= *word;
          if ((lit & slice) == slice) return false;
        }
      }
      lit_on_span_[lo_word_] = lit;
      return true;
    }
    std::fill(lit_on_span_.begin(), lit_on_span_.end(), 0);
    for (const Run& run : split(span)) {
      const std::uint64_t* segment = words + std::size_t{run.first} * words_;
      for (std::uint32_t h = 0; h < run.count; ++h, segment += words_) {
        bool full = true;
        for (std::uint32_t k = lo_word_; k <= hi_word_; ++k) {
          lit_on_span_[k] |= segment[k];
          full = full && (lit_on_span_[k] & slice_[k]) == slice_[k];
        }
        if (full) return false;
      }
    }
    return true;
  }

  std::uint32_t n_ = 0;
  std::uint32_t words_;
  std::uint32_t lo_word_;
  std::uint32_t hi_word_;
  std::vector<std::uint64_t> slice_;        ///< bits of [lo, w_hi)
  std::vector<std::uint64_t> lit_on_span_;  ///< gather()'s union
  std::vector<std::uint64_t> lit_;          ///< row(dir) + seg * words_
};

/// Longest lightpaths first (by ring.distance, ties in input order):
/// first-fit packs nested WRHT group paths and all-to-all exchanges
/// tightly when the most constrained path goes first. A counting sort: its
/// buckets cost at most N/2, less than the boundary pass over N.
std::vector<std::uint32_t> order_by_hops(
    std::span<const std::uint32_t> distance) {
  const auto count = static_cast<std::uint32_t>(distance.size());
  std::vector<std::uint32_t> order(count);
  const std::uint32_t longest =
      count == 0 ? 0 : *std::max_element(distance.begin(), distance.end());
  // next[d]: where the next transfer at distance d goes, longest first.
  std::vector<std::uint32_t> next(std::size_t{longest} + 1, 0);
  for (const std::uint32_t d : distance) ++next[d];
  std::uint32_t at = 0;
  for (std::uint32_t d = longest + 1; d-- > 0;) {
    const std::uint32_t here = next[d];
    next[d] = at;
    at += here;
  }
  for (std::uint32_t i = 0; i < count; ++i) order[next[distance[i]]++] = i;
  return order;
}

/// A step as both policies read it, each array parallel to the input:
/// every transfer's direction (its hint, else the shortest) and segment
/// span, and the hop order it is placed in. A transfer from a node to
/// itself keeps an empty span and sorts last; it is rejected where the
/// walk reaches it.
struct StepSpans {
  std::vector<std::uint32_t> order;
  std::vector<SegmentSpan> span;
  std::vector<topo::Direction> dir;
  std::uint32_t loops = 0;  ///< transfers from a node to itself
};

StepSpans read_step(const topo::Ring& ring,
                    std::span<const coll::Transfer> transfers) {
  require(transfers.size() < UINT32_MAX,
          "RWA: a step holds fewer than 2^32 - 1 transfers");
  const auto count = static_cast<std::uint32_t>(transfers.size());
  StepSpans step;
  {
    // Every distance before any span, so a node id out of range is
    // reported before a transfer from a node to itself.
    std::vector<std::uint32_t> distance(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      distance[i] = ring.distance(transfers[i].src, transfers[i].dst);
      if (distance[i] == 0) ++step.loops;
    }
    step.order = order_by_hops(distance);
  }
  step.span.resize(count);
  step.dir.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const coll::Transfer& t = transfers[i];
    if (t.src == t.dst) continue;
    step.dir[i] =
        t.direction ? *t.direction : ring.shortest_direction(t.src, t.dst);
    step.span[i] = segment_span(ring, t.src, t.dst, step.dir[i]);
  }
  return step;
}

/// Throws what segment_span() throws for a transfer from a node to itself.
void reject_loop(const topo::Ring& ring, const coll::Transfer& t) {
  (void)segment_span(ring, t.src, t.dst, topo::Direction::kClockwise);
}

/// The greedy round loop of one RWA problem. Walks `remaining` (positions
/// into `span`, `dir` and `out`, in hop order), places each transfer `fit`
/// finds a wavelength for, and defers the rest, in order, to the next
/// round on a cleared map.
template <typename Fit>
void place_rounds(std::vector<std::uint32_t> remaining,
                  const RwaOptions& options, OccupancyMap& map,
                  std::span<const SegmentSpan> span,
                  std::span<const topo::Direction> dir, Fit&& fit,
                  std::span<Placement> out) {
  std::vector<std::uint32_t> deferred;
  std::vector<std::uint32_t> placed;
  for (std::uint32_t round = 0; !remaining.empty(); ++round) {
    for (const std::uint32_t p : remaining) {
      const std::uint32_t lambda = fit(p);
      if (lambda == kNoWavelength) {
        deferred.push_back(p);
        continue;
      }
      out[p] = Placement{round, lambda};
      map.place(dir[p], span[p], out[p]);
      placed.push_back(p);
    }
    if (placed.empty()) {
      throw InfeasibleSchedule(
          "RWA: a transfer cannot be routed even in an empty round "
          "(wavelength budget " +
          std::to_string(options.wavelengths - options.wavelength_lo) + ")");
    }
    if (!deferred.empty()) {
      for (const std::uint32_t p : placed) map.clear(dir[p], span[p], out[p]);
    }
    placed.clear();
    remaining.swap(deferred);
    deferred.clear();
  }
}

/// Random-fit: one walk over the whole ring in hop order. Each visit
/// shuffles a wavelength permutation through `rng` exactly as the paper's
/// Random-Fit does (one Fisher-Yates pass per transfer, drawn before any
/// probe, retries included) and takes the first dark one in that order.
void random_fit(const topo::Ring& ring,
                std::span<const coll::Transfer> transfers,
                const StepSpans& step, const RwaOptions& options, Rng* rng,
                std::span<Placement> placed) {
  OccupancyMap map(options);
  map.reset(ring.size());
  // The permutation covers the leased slice only, and the Fisher-Yates
  // draw sequence depends on the slice WIDTH alone — a leased random-fit
  // run consumes the Rng exactly like a full run on a narrower fiber, so
  // the slice-equivalence invariant holds for random-fit too.
  const std::uint32_t slice = options.wavelengths - options.wavelength_lo;
  std::vector<std::uint32_t> lambda_order(slice);
  const auto fit = [&](std::uint32_t i) {
    if (step.span[i].hops == 0) reject_loop(ring, transfers[i]);
    require(rng != nullptr, "RWA: random-fit needs an Rng");
    std::iota(lambda_order.begin(), lambda_order.end(), options.wavelength_lo);
    for (std::uint32_t k = slice; k > 1; --k) {
      const auto j = static_cast<std::uint32_t>(rng->uniform_int(0, k - 1));
      std::swap(lambda_order[k - 1], lambda_order[j]);
    }
    return map.first_in(step.dir[i], step.span[i], lambda_order);
  };
  place_rounds(step.order, options, map, step.span, step.dir, fit, placed);
}

/// First-fit, solved arc by arc (DESIGN.md "Arc-by-arc first-fit"). The
/// ring is cut at every boundary no span crosses, whatever its direction.
/// Spans on different arcs share no segment, so first-fit's choice for a
/// transfer depends only on the transfers before it on its own arc, in the
/// same relative order. Each distinct arc is solved once, on the segments
/// between its distinct endpoints, and its placements are copied to every
/// translated copy.
void first_fit(std::uint32_t n, const StepSpans& step,
               const RwaOptions& options, std::span<Placement> placed) {
  const std::span<const std::uint32_t> order(step.order.data(),
                                             step.order.size() - step.loops);
  if (order.empty()) return;
  const std::vector<SegmentSpan>& spans = step.span;

  // at[b] first counts the spans crossing boundary b (between segments
  // b - 1 and b), through a difference array.
  std::vector<std::uint32_t> at(std::size_t{n} + 1, 0);
  for (const std::uint32_t i : order) {
    const SegmentSpan span = spans[i];
    if (span.hops < 2) continue;
    const std::uint32_t from = (span.first + 1) % n;
    const std::uint64_t to = std::uint64_t{from} + span.hops - 1;
    ++at[from];
    if (to <= n) {
      --at[to];
    } else {
      --at[n];
      ++at[0];
      --at[to - n];
    }
  }
  std::uint32_t crossing = 0;
  for (std::uint32_t b = 0; b < n; ++b) {
    crossing += at[b];
    at[b] = crossing;
  }
  // An arc starts at every uncrossed boundary a span starts at; then at[s]
  // becomes the arc segment s lies on. Segments before the first start lie
  // on the last arc, which wraps. With no start every boundary is crossed,
  // and the whole ring is one arc starting at segment 0.
  constexpr std::uint32_t kStart = UINT32_MAX;
  std::uint32_t arcs = 0;
  for (const std::uint32_t i : order) {
    std::uint32_t& boundary = at[spans[i].first];
    if (boundary == 0) {
      boundary = kStart;
      ++arcs;
    }
  }
  std::vector<std::uint32_t> arc_start;
  if (arcs == 0) {
    arcs = 1;
    arc_start.push_back(0);
    std::fill(at.begin(), at.end(), 0);
  } else {
    arc_start.resize(arcs);
    std::uint32_t arc = arcs - 1;
    std::uint32_t next = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      if (at[s] == kStart) {
        arc = next++;
        arc_start[arc] = s;
      }
      at[s] = arc;
    }
  }

  // Each arc's transfers, in hop order: members[arc_begin[a], arc_begin[a+1]).
  std::vector<std::uint32_t> arc_begin(std::size_t{arcs} + 1, 0);
  for (const std::uint32_t i : order) ++arc_begin[at[spans[i].first] + 1];
  std::partial_sum(arc_begin.begin(), arc_begin.end(), arc_begin.begin());
  std::vector<std::uint32_t> members(order.size());
  {
    std::vector<std::uint32_t> fill(arc_begin.begin(), arc_begin.end() - 1);
    for (const std::uint32_t i : order) {
      members[fill[at[spans[i].first]]++] = i;
    }
  }
  at = {};
  const auto arc_members = [&](std::uint32_t a) {
    return std::span<const std::uint32_t>(members.data() + arc_begin[a],
                                          arc_begin[a + 1] - arc_begin[a]);
  };
  const auto offset = [&](std::uint32_t i, std::uint32_t a) {
    const std::uint32_t first = spans[i].first;
    return first >= arc_start[a] ? first - arc_start[a]
                                 : first + (n - arc_start[a]);
  };

  // An arc's key: its transfers in hop order, each as (offset from the
  // arc's start, hops, direction). The hash only picks candidates: it is
  // the pattern keys' order-blind sum, so arcs that differ only in hop
  // order share it, and a match is confirmed element by element.
  const auto same_key = [&](std::uint32_t a, std::uint32_t b) {
    const auto x = arc_members(a);
    const auto y = arc_members(b);
    if (x.size() != y.size()) return false;
    for (std::size_t p = 0; p < x.size(); ++p) {
      if (offset(x[p], a) != offset(y[p], b) ||
          spans[x[p]].hops != spans[y[p]].hops ||
          step.dir[x[p]] != step.dir[y[p]]) {
        return false;
      }
    }
    return true;
  };
  std::vector<std::uint32_t> solution_of(arcs);
  std::vector<std::uint32_t> distinct;  // one arc per distinct key
  // Distinct key d's placements: solution[solution_begin[d], ...[d + 1]).
  std::vector<std::uint32_t> solution_begin{0};
  std::unordered_multimap<std::uint64_t, std::uint32_t> by_hash;
  for (std::uint32_t a = 0; a < arcs; ++a) {
    std::uint64_t hash = 0;
    for (const std::uint32_t i : arc_members(a)) {
      const std::uint64_t ccw = step.dir[i] == topo::Direction::kClockwise
                                    ? 0
                                    : std::uint64_t{1} << 63;
      hash += net::fmix64(ccw ^
                          (std::uint64_t{offset(i, a)} << 32 | spans[i].hops));
    }
    const auto [lo, hi] = by_hash.equal_range(hash);
    const auto match = std::find_if(lo, hi, [&](const auto& candidate) {
      return same_key(distinct[candidate.second], a);
    });
    if (match != hi) {
      solution_of[a] = match->second;
      continue;
    }
    solution_of[a] = static_cast<std::uint32_t>(distinct.size());
    by_hash.emplace(hash, solution_of[a]);
    distinct.push_back(a);
    solution_begin.push_back(solution_begin.back() + arc_begin[a + 1] -
                             arc_begin[a]);
  }

  // Solve each distinct arc on its elementary segments, the runs between
  // consecutive distinct endpoints: compressing them keeps every overlap.
  std::vector<Placement> solution(solution_begin.back());
  OccupancyMap map(options);
  std::vector<std::uint32_t> points;
  std::vector<SegmentSpan> local_span;
  std::vector<topo::Direction> local_dir;
  const auto fit = [&](std::uint32_t p) {
    return map.first_fit(local_dir[p], local_span[p]);
  };
  for (std::size_t d = 0; d < distinct.size(); ++d) {
    const std::uint32_t a = distinct[d];
    const auto arc = arc_members(a);
    const auto end_of = [&](std::uint32_t i) {
      return static_cast<std::uint32_t>(
          (std::uint64_t{offset(i, a)} + spans[i].hops) % n);
    };
    points.clear();
    for (const std::uint32_t i : arc) {
      points.push_back(offset(i, a));
      points.push_back(end_of(i));
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    const auto segments = static_cast<std::uint32_t>(points.size());
    const auto index = [&](std::uint32_t point) {
      return static_cast<std::uint32_t>(
          std::lower_bound(points.begin(), points.end(), point) -
          points.begin());
    };
    local_span.resize(arc.size());
    local_dir.resize(arc.size());
    for (std::size_t p = 0; p < arc.size(); ++p) {
      const std::uint32_t first = index(offset(arc[p], a));
      const std::uint32_t last = index(end_of(arc[p]));
      local_span[p] = {first, (last + segments - first) % segments};
      local_dir[p] = step.dir[arc[p]];
    }
    map.reset(segments);
    std::vector<std::uint32_t> walk(arc.size());
    std::iota(walk.begin(), walk.end(), 0u);
    place_rounds(std::move(walk), options, map, local_span, local_dir, fit,
                 std::span<Placement>(solution).subspan(solution_begin[d],
                                                        arc.size()));
  }

  for (std::uint32_t a = 0; a < arcs; ++a) {
    const Placement* from = solution.data() + solution_begin[solution_of[a]];
    for (const std::uint32_t i : arc_members(a)) placed[i] = *from++;
  }
}

}  // namespace

RoundsResult assign_rounds(const topo::Ring& ring,
                           std::span<const coll::Transfer> transfers,
                           const RwaOptions& options, Rng* rng) {
  require_valid(options);
  const StepSpans step = read_step(ring, transfers);
  std::vector<Placement> placed(transfers.size());
  if (options.policy == RwaPolicy::kRandomFit) {
    random_fit(ring, transfers, step, options, rng, placed);
  } else {
    first_fit(ring.size(), step, options, placed);
    // A transfer from a node to itself sorts last: the walk reaches it once
    // every other transfer has been tried in the first round.
    if (step.loops > 0) {
      reject_loop(ring, transfers[step.order[step.order.size() - step.loops]]);
    }
  }

  // Round r lists its transfers in hop order.
  std::vector<std::uint32_t> sizes;
  for (const Placement& at : placed) {
    if (at.round >= sizes.size()) sizes.resize(std::size_t{at.round} + 1, 0);
    ++sizes[at.round];
  }
  RoundsResult result;
  result.rounds.resize(sizes.size());
  result.paths.resize(sizes.size());
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    result.rounds[r].reserve(sizes[r]);
    result.paths[r].reserve(sizes[r]);
  }
  for (const std::uint32_t i : step.order) {
    const Placement& at = placed[i];
    result.rounds[at.round].push_back(i);
    result.paths[at.round].push_back(
        Lightpath{transfers[i].src, transfers[i].dst, step.dir[i],
                  at.wavelength, step.span[i].first, step.span[i].hops});
    result.wavelengths_used =
        std::max(result.wavelengths_used, at.wavelength + 1);
  }
  return result;
}

unsigned resolve_rwa_threads(unsigned threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return thread_count_from_env("WRHT_RWA_THREADS", hw);
}

std::vector<RoundsResult> assign_rounds_batch(const std::vector<RwaStep>& steps,
                                              const RwaOptions& options,
                                              unsigned threads) {
  const prof::ScopedTimer timer("optical.rwa.batch");
  require(options.policy == RwaPolicy::kFirstFit,
          "RWA: assign_rounds_batch is first-fit only — random-fit draws "
          "from a sequential Rng and cannot be partitioned");
  for (const RwaStep& step : steps) {
    require(step.ring != nullptr, "RWA: batch step needs a ring");
  }

  std::vector<RoundsResult> results(steps.size());
  std::vector<std::exception_ptr> errors(steps.size());
  const auto solve = [&](std::size_t s) {
    try {
      results[s] =
          assign_rounds(*steps[s].ring, steps[s].transfers, options, nullptr);
    } catch (...) {
      errors[s] = std::current_exception();
    }
  };

  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      resolve_rwa_threads(threads), std::max<std::size_t>(steps.size(), 1)));
  if (workers <= 1) {
    for (std::size_t s = 0; s < steps.size(); ++s) solve(s);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
             s < steps.size();
             s = next.fetch_add(1, std::memory_order_relaxed)) {
          solve(s);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // Rethrow the lowest-indexed failure: the same exception a sequential
  // in-order loop would have surfaced first.
  for (std::size_t s = 0; s < steps.size(); ++s) {
    if (errors[s]) std::rethrow_exception(errors[s]);
  }
  return results;
}

std::vector<RoundsResult> assign_rounds_batch(
    const topo::Ring& ring,
    const std::vector<std::span<const coll::Transfer>>& steps,
    const RwaOptions& options, unsigned threads) {
  std::vector<RwaStep> problems;
  problems.reserve(steps.size());
  for (const auto& transfers : steps) {
    problems.push_back(RwaStep{&ring, transfers});
  }
  return assign_rounds_batch(problems, options, threads);
}

}  // namespace wrht::optics
