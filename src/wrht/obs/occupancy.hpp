// Resource-level occupancy sampling underneath the trace spans.
//
// Spans say *that* a step is slow; occupancy says *which resource sat idle
// and why*. Every timing-producing run records, per named resource — a
// (direction, fiber, wavelength) channel on the optical rings, a directed
// link on the electrical fat tree — the intervals during which that
// resource was reconfiguring (MRR retune), converting (O/E/O), processing
// (router store-and-forward), transmitting payload, or waiting on a
// straggler. Optical channels are written by net::RoundRecorder from each
// engine's priced step, the packet engine's links through
// elec::LinkOccupancy, and the flow engine's links as step patterns.
// Anything not recorded is idle by definition; the analysis layer
// (obs/analysis.hpp) derives it against the run's wall clock, so recorded
// categories + idle always account for 100% of each resource's time.
//
// The sampler is attached through obs::Probe::occupancy and is null by
// default, so unobserved runs pay nothing. It is NOT thread-safe — each
// run carries its own sampler, mirroring the one-backend-per-worker rule
// of exp::SweepRunner.
//
// An observed run can hold millions of intervals (12.8 M on an N=1024
// ring over the flow engine), so what it costs is the bytes. The sampler
// keeps two kinds of record, in one record order:
//   * an explicit record (record()) is one interval, appended to a store
//     of fixed-size blocks that never move: growth neither copies records
//     nor faults their pages twice;
//   * a step pattern (add_pattern()) is a list of slices stored once; each
//     use of it (record_pattern()) stores only its step and start, and
//     expands on read to one interval per slice. An engine whose steps
//     repeat a priced pattern writes one small record per step instead of
//     one interval per resource.
// Records arrive step by step (both kinds reject a step lower than the
// last one), which lets obs::analyze_utilization read the run in one pass
// through for_each().
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
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
  /// The resource it was recorded on (an OccupancySampler::ResourceRef).
  /// It fills what would be tail padding, so a record stays 32 bytes.
  std::uint32_t resource = 0;
};

/// One slice of a step pattern: `duration` of `category` on `resource`,
/// starting `offset` after the start of the step that uses the pattern.
struct OccSlice {
  std::uint32_t resource = 0;  ///< an OccupancySampler::ResourceRef
  Seconds offset{0.0};
  Seconds duration{0.0};
  OccCategory category = OccCategory::kTransmission;
  std::uint32_t concurrency = 1;
};

class OccupancySampler {
 public:
  /// Dense handle engines cache across steps to avoid per-step lookups.
  using ResourceRef = std::uint32_t;
  /// Handle of a step pattern, valid until clear().
  using PatternId = std::uint32_t;
  /// Records per store block (2 MB).
  static constexpr std::size_t kBlockRecords = std::size_t{1} << 16;

  /// One resource's intervals in record order. size() sums the resource's
  /// explicit records and its slices times their patterns' use counts, so
  /// it expands nothing. Iterating walks the whole run and skips the other
  /// resources' intervals, so it suits tests and small runs; whole-run
  /// readers go through for_each(). An iterator holds the interval it is
  /// at, so a reference from it lasts until it moves.
  class Intervals {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = OccInterval;
      using difference_type = std::ptrdiff_t;
      using pointer = const OccInterval*;
      using reference = const OccInterval&;

      iterator() = default;
      reference operator*() const { return current_; }
      pointer operator->() const { return &current_; }
      iterator& operator++();
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.record_ == b.record_ && a.use_ == b.use_ &&
               a.slice_ == b.slice_;
      }

     private:
      friend class Intervals;
      iterator(const OccupancySampler* sampler, ResourceRef ref,
               std::size_t record, std::size_t use)
          : sampler_(sampler), ref_(ref), record_(record), use_(use) {}
      /// Moves to the first interval of `ref_` at or after the position.
      void seek();

      const OccupancySampler* sampler_ = nullptr;
      ResourceRef ref_ = 0;
      // Position in record order: before explicit record `record_`, at
      // slice `slice_` of pattern use `use_` when that use comes first.
      std::size_t record_ = 0;
      std::size_t use_ = 0;
      std::size_t slice_ = 0;
      OccInterval current_{};
    };

    [[nodiscard]] iterator begin() const;
    [[nodiscard]] iterator end() const;
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] OccInterval front() const { return *begin(); }

   private:
    friend class OccupancySampler;
    Intervals(const OccupancySampler* sampler, ResourceRef ref)
        : sampler_(sampler), ref_(ref) {}

    const OccupancySampler* sampler_;
    ResourceRef ref_;
  };

  /// Finds or registers the resource named `name`.
  [[nodiscard]] ResourceRef resource(const std::string& name);

  /// Appends an interval to `ref`'s timeline. Throws InvalidArgument if
  /// `step` is lower than the step of an earlier record of either kind.
  /// Zero/negative durations are dropped; an interval that starts exactly
  /// where the resource's previous one of the same step/category/
  /// concurrency ended is coalesced into it (the packet model emits
  /// per-packet slices that are usually back to back). It never coalesces
  /// into a slice a pattern use wrote.
  void record(ResourceRef ref, std::uint32_t step, Seconds start,
              Seconds duration, OccCategory category,
              std::uint32_t concurrency = 1);

  /// Stores a step pattern once: its slices, in order, minus those of
  /// zero or negative duration. Throws InvalidArgument for an unknown
  /// resource.
  [[nodiscard]] PatternId add_pattern(std::span<const OccSlice> slices);
  /// Appends one use of pattern `id` by `step`, starting at `start`: each
  /// slice reads as OccInterval{start + offset, duration, category, step,
  /// concurrency, resource}. The step order check is record()'s.
  void record_pattern(PatternId id, std::uint32_t step, Seconds start);

  [[nodiscard]] std::size_t num_resources() const { return names_.size(); }
  [[nodiscard]] const std::string& name(ResourceRef ref) const;
  [[nodiscard]] Intervals intervals(ResourceRef ref) const;

  /// Whether no resource is registered (so no interval is recorded).
  [[nodiscard]] bool empty() const { return names_.empty(); }
  /// Intervals of every resource, pattern uses expanded.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Calls `fn(const OccInterval&)` on every interval of every resource in
  /// record order, hence in non-decreasing step order, expanding each
  /// pattern use in place.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::size_t next = 0;  // the next explicit record
    const auto records_before = [&](std::size_t end) {
      for (; next < end; ++next) fn(at(next));
    };
    for (const Use& use : uses_) {
      records_before(use.record);
      const Pattern& pattern = patterns_[use.pattern];
      for (std::size_t k = pattern.first; k < pattern.first + pattern.count;
           ++k) {
        fn(expand(use, slices_[k]));
      }
    }
    records_before(records_);
  }

  /// Sum of `ref`'s recorded time in `category`.
  [[nodiscard]] Seconds recorded(ResourceRef ref, OccCategory category) const;
  /// Sum of `ref`'s recorded time across every category.
  [[nodiscard]] Seconds recorded(ResourceRef ref) const;

  /// Forgets every resource, pattern and interval, for another run.
  void clear();

 private:
  /// One resource's explicit records and pattern slices.
  struct Timeline {
    std::size_t last = 0;   ///< store index of the last explicit record
    std::size_t count = 0;  ///< explicit records
    /// (pattern, its slices on this resource) for every pattern that has
    /// some, in PatternId order.
    std::vector<std::pair<PatternId, std::size_t>> patterns;
  };
  struct Pattern {
    std::size_t first = 0;  ///< index of the first slice in slices_
    std::size_t count = 0;  ///< slices kept
    std::size_t uses = 0;
    /// The `record` of its latest use (see Use); 0 before its first.
    std::size_t last_use_record = 0;
  };
  /// One use of a pattern. It comes after the explicit records before
  /// store index `record` and before the one at it.
  struct Use {
    std::size_t record = 0;
    double start = 0.0;
    PatternId pattern = 0;
    std::uint32_t step = 0;
  };

  /// Throws unless `step` keeps the record order, and makes it the last.
  void advance_to(std::uint32_t step);

  [[nodiscard]] static OccInterval expand(const Use& use,
                                          const OccSlice& slice) {
    return OccInterval{Seconds(use.start + slice.offset.count()),
                       slice.duration, slice.category, use.step,
                       slice.concurrency, slice.resource};
  }

  [[nodiscard]] const OccInterval& at(std::size_t index) const {
    return blocks_[index / kBlockRecords][index % kBlockRecords];
  }
  [[nodiscard]] OccInterval& at(std::size_t index) {
    return blocks_[index / kBlockRecords][index % kBlockRecords];
  }

  std::vector<std::string> names_;
  std::vector<Timeline> timelines_;
  std::unordered_map<std::string, ResourceRef> index_;
  std::vector<std::vector<OccInterval>> blocks_;
  std::size_t records_ = 0;  ///< explicit records in the store
  std::vector<OccSlice> slices_;
  std::vector<Pattern> patterns_;
  std::vector<Use> uses_;
  std::size_t size_ = 0;
  std::uint32_t last_step_ = 0;
};

}  // namespace wrht::obs
