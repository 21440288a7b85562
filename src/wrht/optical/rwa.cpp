#include "wrht/optical/rwa.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <exception>
#include <numeric>
#include <thread>

#include "wrht/common/env.hpp"
#include "wrht/common/error.hpp"
#include "wrht/prof/prof.hpp"

namespace wrht::optics {

namespace {

void require_valid(const RwaOptions& options) {
  require(options.wavelengths >= 1 && options.fibers_per_direction >= 1,
          "RWA: need at least one wavelength and fiber");
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

/// Occupancy bookkeeping: for each (direction, fiber), one run of
/// ceil(w/64) words per fiber segment, where bit lambda of a segment's words
/// means "wavelength lambda is lit on this segment". A span is read once for
/// every wavelength: OR-ing its segments' words gives the wavelengths lit
/// anywhere on it, so a conflict check costs O(hops) whatever the budget.
class OccupancyMap {
 public:
  OccupancyMap(std::uint32_t n, const RwaOptions& opt)
      : n_(n),
        words_(opt.wavelengths / 64 + (opt.wavelengths % 64 != 0 ? 1 : 0)),
        fibers_(opt.fibers_per_direction),
        lo_word_(opt.wavelength_lo / 64),
        hi_word_((opt.wavelengths - 1) / 64),
        slice_(words_, 0),
        lit_on_span_(words_, 0),
        lit_(std::size_t{2} * fibers_ * n_ * words_, 0) {
    for (std::uint32_t lambda = opt.wavelength_lo; lambda < opt.wavelengths;
         ++lambda) {
      slice_[lambda / 64] |= bit(lambda);
    }
  }

  /// Lowest slice wavelength dark on every segment of `span`, or
  /// kNoWavelength.
  [[nodiscard]] std::uint32_t first_fit(topo::Direction dir,
                                        std::uint32_t fiber,
                                        const SegmentSpan& span) {
    if (!gather(dir, fiber, span)) return kNoWavelength;
    for (std::uint32_t k = lo_word_; k <= hi_word_; ++k) {
      const std::uint64_t dark = slice_[k] & ~lit_on_span_[k];
      if (dark != 0) return k * 64 + std::countr_zero(dark);
    }
    return kNoWavelength;
  }

  /// First wavelength of `order` dark on every segment of `span`, or
  /// kNoWavelength.
  [[nodiscard]] std::uint32_t first_in(topo::Direction dir,
                                       std::uint32_t fiber,
                                       const SegmentSpan& span,
                                       std::span<const std::uint32_t> order) {
    if (!gather(dir, fiber, span)) return kNoWavelength;
    for (const std::uint32_t lambda : order) {
      if ((lit_on_span_[lambda / 64] & bit(lambda)) == 0) return lambda;
    }
    return kNoWavelength;
  }

  void place(const Lightpath& path) {
    const std::uint64_t lambda = bit(path.wavelength);
    for_each_segment(path, [&](std::uint64_t& segment) { segment |= lambda; });
  }

  /// Darkens the words `path` lit. Between rounds every lit word belongs to
  /// a placement of the round just ended, so clearing those resets the map
  /// without touching the rest of it.
  void clear(const Lightpath& path) {
    for_each_segment(path, [](std::uint64_t& segment) { segment = 0; });
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

  [[nodiscard]] std::size_t row(topo::Direction dir,
                                std::uint32_t fiber) const {
    const std::size_t d = dir == topo::Direction::kClockwise ? 0 : 1;
    return (d * fibers_ + fiber) * n_ * words_;
  }

  template <typename F>
  void for_each_segment(const Lightpath& path, F&& f) {
    std::uint64_t* words =
        &lit_[row(path.direction, path.fiber) + path.wavelength / 64];
    for (const Run& run : split({path.first_segment, path.hops})) {
      std::uint64_t* word = words + std::size_t{run.first} * words_;
      for (std::uint32_t h = 0; h < run.count; ++h, word += words_) f(*word);
    }
  }

  /// ORs the words of every segment on `span` into lit_on_span_. Returns
  /// false, and stops reading, as soon as every slice wavelength is lit
  /// somewhere on the span: nothing can fit then.
  [[nodiscard]] bool gather(topo::Direction dir, std::uint32_t fiber,
                            const SegmentSpan& span) {
    const std::uint64_t* words = &lit_[row(dir, fiber)];
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

  std::uint32_t n_;
  std::uint32_t words_;
  std::uint32_t fibers_;
  std::uint32_t lo_word_;
  std::uint32_t hi_word_;
  std::vector<std::uint64_t> slice_;        ///< bits of [lo, w_hi)
  std::vector<std::uint64_t> lit_on_span_;  ///< gather()'s union
  std::vector<std::uint64_t> lit_;          ///< row(dir, fiber) + seg * words_
};

/// Longest lightpaths first: first-fit packs nested WRHT group paths and
/// all-to-all exchanges tightly when the most constrained path goes first.
std::vector<std::size_t> order_by_hops(
    const topo::Ring& ring, std::span<const coll::Transfer> transfers) {
  std::vector<std::uint32_t> distance(transfers.size());
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    distance[i] = ring.distance(transfers[i].src, transfers[i].dst);
  }
  std::vector<std::size_t> order(transfers.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return distance[a] > distance[b];
                   });
  return order;
}

topo::Direction pick_direction(const topo::Ring& ring,
                               const coll::Transfer& t) {
  return t.direction ? *t.direction : ring.shortest_direction(t.src, t.dst);
}

/// Tries to place one transfer; returns true and fills `out` on success.
/// First-fit takes the lowest slice wavelength dark on the whole span;
/// random-fit shuffles a wavelength permutation through `rng` exactly as
/// the paper's Random-Fit does (one Fisher-Yates pass per transfer, drawn
/// before any probe) and takes the first dark one in that order.
bool try_assign(const topo::Ring& ring, const coll::Transfer& t,
                const RwaOptions& opt, OccupancyMap& occupancy, Rng* rng,
                Lightpath& out) {
  const topo::Direction dir = pick_direction(ring, t);
  const SegmentSpan span = segment_span(ring, t.src, t.dst, dir);

  std::vector<std::uint32_t> lambda_order;
  if (opt.policy == RwaPolicy::kRandomFit) {
    require(rng != nullptr, "RWA: random-fit needs an Rng");
    // The permutation covers the leased slice only, and the Fisher-Yates
    // draw sequence depends on the slice WIDTH alone — a leased random-fit
    // run consumes the Rng exactly like a full run on a narrower fiber, so
    // the slice-equivalence invariant holds for random-fit too.
    const std::uint32_t slice = opt.wavelengths - opt.wavelength_lo;
    lambda_order.resize(slice);
    std::iota(lambda_order.begin(), lambda_order.end(), opt.wavelength_lo);
    for (std::uint32_t i = slice; i > 1; --i) {
      const auto j = static_cast<std::uint32_t>(rng->uniform_int(0, i - 1));
      std::swap(lambda_order[i - 1], lambda_order[j]);
    }
  }
  for (std::uint32_t fiber = 0; fiber < opt.fibers_per_direction; ++fiber) {
    const std::uint32_t lambda =
        opt.policy == RwaPolicy::kFirstFit
            ? occupancy.first_fit(dir, fiber, span)
            : occupancy.first_in(dir, fiber, span, lambda_order);
    if (lambda != kNoWavelength) {
      out = Lightpath{t.src, t.dst, dir, fiber, lambda, span.first, span.hops};
      occupancy.place(out);
      return true;
    }
  }
  return false;
}

}  // namespace

RwaResult assign_wavelengths(const topo::Ring& ring,
                             std::span<const coll::Transfer> transfers,
                             const RwaOptions& options, Rng* rng) {
  const prof::ScopedTimer timer("optical.rwa.assign");
  require_valid(options);
  RwaResult result;
  result.paths.resize(transfers.size());
  OccupancyMap occupancy(ring.size(), options);

  for (const std::size_t idx : order_by_hops(ring, transfers)) {
    Lightpath path;
    if (!try_assign(ring, transfers[idx], options, occupancy, rng, path)) {
      return RwaResult{};  // ok = false
    }
    result.paths[idx] = path;
    result.wavelengths_used =
        std::max(result.wavelengths_used, path.wavelength + 1);
  }
  result.ok = true;
  return result;
}

RoundsResult assign_rounds(const topo::Ring& ring,
                           std::span<const coll::Transfer> transfers,
                           const RwaOptions& options, Rng* rng) {
  require_valid(options);
  RoundsResult result;
  std::vector<std::size_t> remaining = order_by_hops(ring, transfers);
  OccupancyMap occupancy(ring.size(), options);

  while (!remaining.empty()) {
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

    if (round.empty()) {
      throw InfeasibleSchedule(
          "RWA: a transfer cannot be routed even in an empty round "
          "(wavelength budget " +
          std::to_string(options.wavelengths - options.wavelength_lo) + ")");
    }
    if (!deferred.empty()) {
      for (const Lightpath& path : paths) occupancy.clear(path);
    }
    result.rounds.push_back(std::move(round));
    result.paths.push_back(std::move(paths));
    remaining = std::move(deferred);
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
