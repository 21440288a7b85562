// Tenant lease on a slice of a shared fabric.
//
// Every engine used to price one all-reduce that owned the entire fabric;
// a real optical interconnect multiplexes many concurrent training jobs
// over sliced wavelength budgets (ROADMAP item 1; Zhou et al., "To
// Reconfigure or Not to Reconfigure"). A ResourceLease names the slice a
// job may touch: the wavelength sub-range [w_lo, w_hi) of every fiber, and
// the tenant the slice is charged to.
//
// The default-constructed lease is the FULL fabric — w_lo == w_hi == 0 is
// the sentinel — so every existing single-job call site prices exactly as
// before (the conformance suite and test_scale_equivalence pin this
// byte-identically). Engines consume the lease as follows:
//
//   * optical (ring/torus): RWA first-fit and random-fit scan wavelengths
//     in [w_lo, w_hi) only. A leased run is equivalent to a full-fabric
//     run on a (w_hi - w_lo)-wavelength fiber with every assigned
//     wavelength index shifted up by w_lo — the fuzzer's slice-equivalence
//     invariant.
//   * electrical: the fabric has no wavelength notion, so the lease grants
//     the job width/fabric of every link's bandwidth (the max-min fair
//     share a wavelength-proportional slicer would converge to).
#pragma once

#include <cstdint>
#include <string>

#include "wrht/common/error.hpp"

namespace wrht::net {

struct ResourceLease {
  /// Leased wavelength sub-range [w_lo, w_hi); w_lo == w_hi == 0 means the
  /// full fabric, whatever its width.
  std::uint32_t w_lo = 0;
  std::uint32_t w_hi = 0;
  /// Tenant the slice is charged to (reporting/fairness only; pricing is
  /// tenant-blind).
  std::uint32_t tenant = 0;

  [[nodiscard]] bool full() const { return w_lo == 0 && w_hi == 0; }

  /// First wavelength index past the leased slice on a `fabric`-wavelength
  /// fiber (the full width when the lease is full).
  [[nodiscard]] std::uint32_t clamp_hi(std::uint32_t fabric) const {
    return full() ? fabric : w_hi;
  }

  /// Number of wavelengths the lease grants on a `fabric`-wavelength fiber.
  [[nodiscard]] std::uint32_t width(std::uint32_t fabric) const {
    return full() ? fabric : w_hi - w_lo;
  }

  /// Fraction of the fabric the lease grants, in (0, 1]. A full lease (or
  /// an unknown fabric width of 0) is 1.0.
  [[nodiscard]] double share(std::uint32_t fabric) const {
    if (full() || fabric == 0) return 1.0;
    return static_cast<double>(width(fabric)) / static_cast<double>(fabric);
  }

  /// Throws InvalidArgument unless the lease is full or a non-empty slice
  /// inside a `fabric`-wavelength fiber.
  void validate(std::uint32_t fabric) const {
    if (full()) return;
    if (w_lo >= w_hi) {
      throw InvalidArgument("ResourceLease: empty slice [" +
                            std::to_string(w_lo) + ", " +
                            std::to_string(w_hi) + ")");
    }
    if (w_hi > fabric) {
      throw InvalidArgument("ResourceLease: slice [" + std::to_string(w_lo) +
                            ", " + std::to_string(w_hi) +
                            ") exceeds the fabric's " +
                            std::to_string(fabric) + " wavelengths");
    }
  }

  /// "full" or "[lo, hi)@tenant" for logs and error messages.
  [[nodiscard]] std::string to_string() const {
    if (full()) return "full";
    // Appended rather than `"[" + std::to_string(...)`: GCC 12 flags that
    // operator+ with a false -Wrestrict once it is inlined.
    std::string out = "[";
    out.append(std::to_string(w_lo)).append(", ").append(std::to_string(w_hi))
        .append(")@t").append(std::to_string(tenant));
    return out;
  }

  friend bool operator==(const ResourceLease&, const ResourceLease&) = default;
};

/// Builds the slice [w_lo, w_lo + width); a zero-width request throws.
[[nodiscard]] inline ResourceLease slice_lease(std::uint32_t w_lo,
                                               std::uint32_t width,
                                               std::uint32_t tenant = 0) {
  require(width >= 1, "slice_lease: zero-width slice");
  return ResourceLease{w_lo, w_lo + width, tenant};
}

}  // namespace wrht::net
