// Routing and Wavelength Assignment (RWA) for one communication step.
//
// Given the concurrent transfers of a step, assign each a direction (honour
// the schedule's hint, else shortest path) and a (fiber, wavelength) pair
// such that no two lightpaths share a wavelength on an overlapping segment
// of the same fiber. Supports the paper's First-Fit and Random-Fit policies
// and, when a step needs more wavelengths than the fiber carries, a greedy
// split of the step into sequential conflict-free rounds.
//
// Occupancy is one run of ceil(w/64) words per fiber segment for each
// (direction, fiber), bit lambda meaning "lit", so a transfer reads its span
// once for every wavelength instead of probing wavelengths one at a time.
//
// First-fit cuts the ring at every boundary no span crosses. Spans on
// different arcs share no segment, so each distinct arc (its transfers in
// hop order as offset, hops and direction) is solved once, on the
// segments between its distinct endpoints, and copied to every translated
// copy: a WRHT level's groups cost one group's RWA plus a linear pass,
// bit for bit the walk over the whole ring. Random-fit walks the whole
// ring in hop order, drawing from its Rng per visit. See DESIGN.md
// "Arc-by-arc first-fit".
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
  std::uint32_t fibers_per_direction = 1;
  RwaPolicy policy = RwaPolicy::kFirstFit;
  /// First wavelength index the assignment may use: both policies scan
  /// [wavelength_lo, wavelengths) only, so a tenant holding a
  /// net::ResourceLease on that slice never collides with its neighbours.
  /// The default 0 (with `wavelengths` = fiber width) is the historical
  /// exclusive-fabric behaviour. Assigned Lightpath::wavelength indices
  /// stay absolute (fiber-relative, not slice-relative).
  std::uint32_t wavelength_lo = 0;
};

struct RwaResult {
  bool ok = false;
  /// Parallel to the input transfers; valid only when ok.
  std::vector<Lightpath> paths;
  /// Highest wavelength index used + 1 (0 when no transfers).
  std::uint32_t wavelengths_used = 0;
};

/// Assigns all transfers in one round. When the wavelength budget does not
/// suffice, returns ok=false (paths empty).
[[nodiscard]] RwaResult assign_wavelengths(
    const topo::Ring& ring, std::span<const coll::Transfer> transfers,
    const RwaOptions& options, Rng* rng = nullptr);

struct RoundsResult {
  /// rounds[r] lists indices into the input transfer vector.
  std::vector<std::vector<std::size_t>> rounds;
  /// Per-round assignments, parallel to `rounds`.
  std::vector<std::vector<Lightpath>> paths;
  std::uint32_t wavelengths_used = 0;
};

/// Greedily packs the transfers into as few sequential rounds as possible,
/// each conflict-free within the wavelength budget. Throws InvalidArgument
/// for zero wavelengths or fibers or an empty leased slice, and
/// InfeasibleSchedule if some transfer cannot be routed even alone.
[[nodiscard]] RoundsResult assign_rounds(
    const topo::Ring& ring, std::span<const coll::Transfer> transfers,
    const RwaOptions& options, Rng* rng = nullptr);

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
