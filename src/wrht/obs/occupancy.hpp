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
//
// An observed run writes millions of intervals (12.8 M on an N=1024 ring
// over the flow engine), so what it costs is the bytes. Every interval is
// appended to one store of fixed-size blocks that never move: growth
// neither copies records nor faults their pages twice. Records arrive
// step by step (record() rejects a step lower than the last one), which
// lets obs::analyze_utilization read the store in one pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
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
  /// The resource it was recorded on (an OccupancySampler::ResourceRef).
  /// It fills what would be tail padding, so a record stays 32 bytes.
  std::uint32_t resource = 0;
};

class OccupancySampler {
 public:
  /// Dense handle engines cache across steps to avoid per-step lookups.
  using ResourceRef = std::uint32_t;
  /// Records per store block (2 MB).
  static constexpr std::size_t kBlockRecords = std::size_t{1} << 16;

  /// One resource's intervals in record order, viewed in place. size() is
  /// O(1). Iterating walks the store from the resource's first record to
  /// its last and skips the other resources' records, so it suits tests
  /// and small runs; whole-run readers go through blocks().
  class Intervals {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = OccInterval;
      using difference_type = std::ptrdiff_t;
      using pointer = const OccInterval*;
      using reference = const OccInterval&;

      iterator() = default;
      reference operator*() const { return sampler_->at(index_); }
      pointer operator->() const { return &sampler_->at(index_); }
      iterator& operator++();
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      friend bool operator==(const iterator&, const iterator&) = default;

     private:
      friend class Intervals;
      iterator(const OccupancySampler* sampler, ResourceRef ref,
               std::size_t index)
          : sampler_(sampler), ref_(ref), index_(index) {}

      const OccupancySampler* sampler_ = nullptr;
      ResourceRef ref_ = 0;
      std::size_t index_ = 0;  ///< store index
    };

    [[nodiscard]] iterator begin() const;
    [[nodiscard]] iterator end() const;
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] const OccInterval& front() const { return *begin(); }

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
  /// `step` is lower than the step of an earlier call. Zero/negative
  /// durations are dropped; an interval that starts exactly where the
  /// previous one of the same step/category/concurrency ended is coalesced
  /// into it (the packet model emits per-packet slices that are usually
  /// back to back).
  void record(ResourceRef ref, std::uint32_t step, Seconds start,
              Seconds duration, OccCategory category,
              std::uint32_t concurrency = 1);

  [[nodiscard]] std::size_t num_resources() const { return names_.size(); }
  [[nodiscard]] const std::string& name(ResourceRef ref) const;
  [[nodiscard]] Intervals intervals(ResourceRef ref) const;

  /// Whether no resource is registered (so no interval is recorded).
  [[nodiscard]] bool empty() const { return names_.empty(); }
  /// Every interval of every resource in record order, hence in
  /// non-decreasing step order: all blocks but the last hold exactly
  /// kBlockRecords.
  [[nodiscard]] const std::vector<std::vector<OccInterval>>& blocks() const {
    return blocks_;
  }

  /// Sum of `ref`'s recorded time in `category`.
  [[nodiscard]] Seconds recorded(ResourceRef ref, OccCategory category) const;
  /// Sum of `ref`'s recorded time across every category.
  [[nodiscard]] Seconds recorded(ResourceRef ref) const;

  /// Forgets every resource and interval, for another run.
  void clear();

 private:
  /// Where one resource's records sit in the store.
  struct Timeline {
    std::size_t first = 0;  ///< store index of the first record
    std::size_t last = 0;   ///< store index of the last record
    std::size_t count = 0;
  };

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
  std::size_t records_ = 0;
  std::uint32_t last_step_ = 0;
};

}  // namespace wrht::obs
