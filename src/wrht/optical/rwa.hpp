// Routing and Wavelength Assignment (RWA) for one communication step.
//
// Given the concurrent transfers of a step, assign each a direction (honour
// the schedule's hint, else shortest path) and a wavelength such that no
// two lightpaths of one direction share a wavelength on an overlapping
// segment. Supports the paper's First-Fit and Random-Fit policies and, when
// a step needs more wavelengths than the fiber carries, a greedy split of
// the step into sequential conflict-free rounds: assign_rounds() is the one
// entry point, and a step that fits returns a single round.
//
// The result is the decision alone, in input order: each transfer's round
// and wavelength (8 B), plus the round count, the wavelength high-water
// mark and the longest span, which is all Eq. (6) pricing reads. Both
// policies place transfers in hop order (ring.distance longest first, ties
// in input order); hop_ordered() derives that order's per-round lists of
// indices and lightpaths from a result, for the callers that can observe
// it (routed round descriptions, the invariant checks, the tests).
//
// Occupancy is one run of ceil(w/64) words per fiber segment for each
// direction, bit lambda meaning "lit", so a transfer reads its span once
// for every wavelength instead of probing wavelengths one at a time.
//
// First-fit reads the step in input order and cuts the ring at every
// boundary no span crosses. Spans on different arcs share no segment, so
// each distinct arc (its transfers in input order as offset, hops and
// direction) is put into hop order and solved once, on the segments
// between its distinct endpoints, and copied to every translated copy: a
// WRHT level's groups cost one group's RWA plus a linear pass, bit for bit
// the walk over the whole ring. Random-fit walks the whole ring in hop
// order, drawing from its Rng per visit. See DESIGN.md "Arc-by-arc
// first-fit".
//
// Steps are independent RWA problems (occupancy never carries across
// steps), so assign_rounds_batch() solves many steps in parallel. The
// parallel path is first-fit only — first-fit is a pure function of the
// transfer list, so partitioning cannot change any result — and merges
// per-step results back in input order; see DESIGN.md "Determinism
// contract". Random-fit consumes a caller Rng sequentially and must stay
// on the single-threaded entry points.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/optical/lightpath.hpp"
#include "wrht/topo/ring.hpp"

namespace wrht::optics {

enum class RwaPolicy {
  kFirstFit,  ///< lowest-index free wavelength (Ozdaglar & Bertsekas)
  kRandomFit  ///< random free wavelength (Wason & Kaler)
};

struct RwaOptions {
  std::uint32_t wavelengths = 64;
  RwaPolicy policy = RwaPolicy::kFirstFit;
  /// First wavelength index the assignment may use: both policies scan
  /// [wavelength_lo, wavelengths) only, so a tenant holding a
  /// net::ResourceLease on that slice never collides with its neighbours.
  /// The default 0 (with `wavelengths` = fiber width) is the historical
  /// exclusive-fabric behaviour. Assigned Lightpath::wavelength indices
  /// stay absolute (fiber-relative, not slice-relative).
  std::uint32_t wavelength_lo = 0;
};

/// Where assign_rounds placed one transfer.
struct Placement {
  std::uint32_t round = 0;
  std::uint32_t wavelength = 0;

  friend bool operator==(const Placement&, const Placement&) = default;
};

struct RoundsResult {
  /// placements[i] places input transfer i.
  std::vector<Placement> placements;
  /// Number of rounds (0 when no transfers).
  std::uint32_t rounds = 0;
  /// Highest wavelength index used + 1 (0 when no transfers).
  std::uint32_t wavelengths_used = 0;
  /// Hop count of the longest lightpath (0 when no transfers).
  std::uint32_t longest_hops = 0;
};

/// Greedily packs the transfers into as few sequential rounds as possible,
/// each conflict-free within the wavelength budget: one round when the
/// budget suffices. Throws InvalidArgument for zero wavelengths or an empty
/// leased slice, and InfeasibleSchedule if some transfer cannot be routed
/// even alone.
[[nodiscard]] RoundsResult assign_rounds(
    const topo::Ring& ring, std::span<const coll::Transfer> transfers,
    const RwaOptions& options, Rng* rng = nullptr);

/// The lightpath assign_rounds routes `t` on at `wavelength`: the
/// transfer's hint, else its shortest direction, and that direction's
/// segment span.
[[nodiscard]] Lightpath lightpath_of(const topo::Ring& ring,
                                     const coll::Transfer& t,
                                     std::uint32_t wavelength);

/// A result as per-round lists in the order assign_rounds placed them:
/// rounds[r] holds round r's input indices in hop order (ring.distance
/// longest first, ties in input order), paths[r] their lightpaths.
struct HopOrderedRounds {
  std::vector<std::vector<std::size_t>> rounds;
  std::vector<std::vector<Lightpath>> paths;
};

/// Derives the hop-ordered lists of `result`, an assign_rounds result for
/// `transfers` on `ring`. Throws InvalidArgument unless the result holds
/// one placement per transfer, each in one of its rounds.
[[nodiscard]] HopOrderedRounds hop_ordered(
    const topo::Ring& ring, std::span<const coll::Transfer> transfers,
    const RoundsResult& result);

/// Worker count for assign_rounds_batch: `threads` if >= 1, else
/// WRHT_RWA_THREADS when set to a valid positive integer (bad values warn
/// and fall through), else std::thread::hardware_concurrency().
[[nodiscard]] unsigned resolve_rwa_threads(unsigned threads = 0);

/// One independent RWA problem in a batch: a step's (or embedded ring
/// share's) transfers on the ring that carries them. The ring pointer must
/// outlive the batch call.
struct RwaStep {
  const topo::Ring* ring = nullptr;
  std::span<const coll::Transfer> transfers;
};

/// Solves one assign_rounds problem per entry of `steps`, partitioned
/// across up to `threads` workers (0 = resolve_rwa_threads()).
///
/// Determinism contract: first-fit only (throws on random-fit). Results
/// are returned in input order and each step is solved with its own
/// occupancy state, so the output is byte-identical for every thread
/// count, including 1. If several steps throw, the exception of the
/// lowest-indexed failing step is rethrown — exactly what a sequential
/// loop would have surfaced.
[[nodiscard]] std::vector<RoundsResult> assign_rounds_batch(
    const std::vector<RwaStep>& steps, const RwaOptions& options,
    unsigned threads = 0);

/// Single-ring convenience overload of the batch above.
[[nodiscard]] std::vector<RoundsResult> assign_rounds_batch(
    const topo::Ring& ring,
    const std::vector<std::span<const coll::Transfer>>& steps,
    const RwaOptions& options, unsigned threads = 0);

}  // namespace wrht::optics
