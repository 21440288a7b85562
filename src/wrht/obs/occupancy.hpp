// Resource-level occupancy sampling underneath the trace spans.
//
// Spans say *that* a step is slow; occupancy says *which resource sat idle
// and why*. Every timing-producing run records, per named resource — a
// (direction, fiber, wavelength) channel on the optical rings, a directed
// link on the electrical fat tree — the intervals during which that
// resource was reconfiguring (MRR retune), converting (O/E/O), processing
// (router store-and-forward), transmitting payload, or waiting on a
// straggler. Optical channels are written by net::RoundRecorder from each
// engine's priced step; electrical links by the fat-tree engines through
// elec::LinkOccupancy. Anything not recorded is idle by definition; the
// analysis layer (obs/analysis.hpp) derives it against the run's wall
// clock, so recorded categories + idle always account for 100% of each
// resource's time.
//
// The sampler is attached through obs::Probe::occupancy and is null by
// default, so unobserved runs pay nothing. It is NOT thread-safe — each
// run carries its own sampler, mirroring the one-backend-per-worker rule
// of exp::SweepRunner.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "wrht/common/units.hpp"

namespace wrht::obs {

/// What a resource spent an interval of wall-clock time on. Idle time is
/// not recorded — it is derived by the analysis layer as the complement.
enum class OccCategory : std::uint8_t {
  kTransmission = 0,   ///< payload serializing on the resource
  kReconfiguration,    ///< MRR retune before a round
  kConversion,         ///< O/E/O conversion
  kProcessing,         ///< router store-and-forward processing
  kStragglerWait,      ///< done, waiting for the slowest peer of the step
};
inline constexpr std::size_t kOccCategoryCount = 5;

/// Stable display name ("transmission", "reconfiguration", ...).
[[nodiscard]] const char* to_string(OccCategory category);

/// One occupancy interval on one resource's timeline.
struct OccInterval {
  Seconds start{0.0};
  Seconds duration{0.0};
  OccCategory category = OccCategory::kTransmission;
  /// Index of the schedule step this interval belongs to.
  std::uint32_t step = 0;
  /// Spatial multiplicity: lightpaths reusing the wavelength on disjoint
  /// ring segments, or flows sharing a link, during this interval.
  std::uint32_t concurrency = 1;
};

class OccupancySampler {
 public:
  /// Dense handle engines cache across steps to avoid per-step lookups.
  using ResourceRef = std::uint32_t;

  /// Finds or registers the resource named `name`.
  [[nodiscard]] ResourceRef resource(const std::string& name);

  /// Appends an interval to `ref`'s timeline. Zero/negative durations are
  /// dropped; an interval that starts exactly where the previous one of the
  /// same step/category/concurrency ended is coalesced into it (the packet
  /// model emits per-packet slices that are usually back to back).
  void record(ResourceRef ref, std::uint32_t step, Seconds start,
              Seconds duration, OccCategory category,
              std::uint32_t concurrency = 1);

  [[nodiscard]] std::size_t num_resources() const { return names_.size(); }
  [[nodiscard]] const std::string& name(ResourceRef ref) const;
  [[nodiscard]] const std::vector<OccInterval>& intervals(
      ResourceRef ref) const;

  /// Sum of `ref`'s recorded time in `category`.
  [[nodiscard]] Seconds recorded(ResourceRef ref, OccCategory category) const;
  /// Sum of `ref`'s recorded time across every category.
  [[nodiscard]] Seconds recorded(ResourceRef ref) const;

  void clear();

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<OccInterval>> intervals_;
  std::unordered_map<std::string, ResourceRef> index_;
};

}  // namespace wrht::obs
