#include "wrht/obs/occupancy.hpp"

#include <algorithm>

#include "wrht/common/error.hpp"

namespace wrht::obs {

const char* to_string(OccCategory category) {
  switch (category) {
    case OccCategory::kTransmission: return "transmission";
    case OccCategory::kReconfiguration: return "reconfiguration";
    case OccCategory::kConversion: return "conversion";
    case OccCategory::kProcessing: return "processing";
    case OccCategory::kStragglerWait: return "straggler-wait";
  }
  return "unknown";
}

void OccupancySampler::Intervals::iterator::seek() {
  const std::vector<Use>& uses = sampler_->uses_;
  while (true) {
    if (use_ < uses.size() && uses[use_].record == record_) {
      const Use& use = uses[use_];
      const Pattern& pattern = sampler_->patterns_[use.pattern];
      if (slice_ == pattern.count) {
        ++use_;
        slice_ = 0;
        continue;
      }
      const OccSlice& slice = sampler_->slices_[pattern.first + slice_];
      if (slice.resource == ref_) {
        current_ = expand(use, slice);
        return;
      }
      ++slice_;
    } else if (record_ < sampler_->records_) {
      if (sampler_->at(record_).resource == ref_) {
        current_ = sampler_->at(record_);
        return;
      }
      ++record_;
    } else {
      return;  // end()
    }
  }
}

OccupancySampler::Intervals::iterator&
OccupancySampler::Intervals::iterator::operator++() {
  const std::vector<Use>& uses = sampler_->uses_;
  if (use_ < uses.size() && uses[use_].record == record_) {
    ++slice_;
  } else {
    ++record_;
  }
  seek();
  return *this;
}

OccupancySampler::Intervals::iterator OccupancySampler::Intervals::begin()
    const {
  iterator it(sampler_, ref_, 0, 0);
  it.seek();
  return it;
}

OccupancySampler::Intervals::iterator OccupancySampler::Intervals::end()
    const {
  return iterator(sampler_, ref_, sampler_->records_, sampler_->uses_.size());
}

std::size_t OccupancySampler::Intervals::size() const {
  const Timeline& timeline = sampler_->timelines_[ref_];
  std::size_t size = timeline.count;
  for (const auto& [id, slices] : timeline.patterns) {
    size += slices * sampler_->patterns_[id].uses;
  }
  return size;
}

OccupancySampler::ResourceRef OccupancySampler::resource(
    const std::string& name) {
  if (const auto it = index_.find(name); it != index_.end()) {
    return it->second;
  }
  const ResourceRef ref = static_cast<ResourceRef>(names_.size());
  names_.push_back(name);
  timelines_.emplace_back();
  index_.emplace(name, ref);
  return ref;
}

void OccupancySampler::advance_to(std::uint32_t step) {
  require(step >= last_step_,
          "OccupancySampler: a step was recorded after a later one");
  last_step_ = step;
}

void OccupancySampler::record(ResourceRef ref, std::uint32_t step,
                              Seconds start, Seconds duration,
                              OccCategory category,
                              std::uint32_t concurrency) {
  require(ref < timelines_.size(), "OccupancySampler: unknown resource ref");
  advance_to(step);
  if (duration.count() <= 0.0) return;
  Timeline& timeline = timelines_[ref];
  // The resource's last interval is its last explicit record unless a use
  // of one of its patterns came after that record.
  const bool last_is_explicit =
      timeline.count > 0 &&
      std::none_of(timeline.patterns.begin(), timeline.patterns.end(),
                   [&](const auto& member) {
                     return patterns_[member.first].last_use_record >
                            timeline.last;
                   });
  if (last_is_explicit) {
    OccInterval& last = at(timeline.last);
    const double last_end = last.start.count() + last.duration.count();
    // Coalesce back-to-back slices of the same kind (tolerance scaled to
    // the magnitude so femtosecond-scale runs still merge).
    const double eps = 1e-12 * (1.0 + last_end);
    if (last.step == step && last.category == category &&
        last.concurrency == concurrency &&
        start.count() >= last_end - eps && start.count() <= last_end + eps) {
      last.duration += duration;
      return;
    }
  }
  if (records_ % kBlockRecords == 0) {
    blocks_.emplace_back().reserve(kBlockRecords);
  }
  blocks_.back().push_back(
      OccInterval{start, duration, category, step, concurrency, ref});
  timeline.last = records_;
  ++timeline.count;
  ++records_;
  ++size_;
}

OccupancySampler::PatternId OccupancySampler::add_pattern(
    std::span<const OccSlice> slices) {
  for (const OccSlice& slice : slices) {
    require(slice.resource < timelines_.size(),
            "OccupancySampler: unknown resource ref");
  }
  const auto id = static_cast<PatternId>(patterns_.size());
  Pattern& pattern = patterns_.emplace_back();
  pattern.first = slices_.size();
  for (const OccSlice& slice : slices) {
    if (slice.duration.count() <= 0.0) continue;
    slices_.push_back(slice);
    auto& members = timelines_[slice.resource].patterns;
    if (members.empty() || members.back().first != id) {
      members.emplace_back(id, 0);
    }
    ++members.back().second;
  }
  pattern.count = slices_.size() - pattern.first;
  return id;
}

void OccupancySampler::record_pattern(PatternId id, std::uint32_t step,
                                      Seconds start) {
  require(id < patterns_.size(), "OccupancySampler: unknown pattern id");
  advance_to(step);
  Pattern& pattern = patterns_[id];
  ++pattern.uses;
  pattern.last_use_record = records_;
  uses_.push_back(Use{records_, start.count(), id, step});
  size_ += pattern.count;
}

const std::string& OccupancySampler::name(ResourceRef ref) const {
  require(ref < names_.size(), "OccupancySampler: unknown resource ref");
  return names_[ref];
}

OccupancySampler::Intervals OccupancySampler::intervals(
    ResourceRef ref) const {
  require(ref < timelines_.size(), "OccupancySampler: unknown resource ref");
  return Intervals(this, ref);
}

Seconds OccupancySampler::recorded(ResourceRef ref,
                                   OccCategory category) const {
  Seconds total(0.0);
  for (const OccInterval& i : intervals(ref)) {
    if (i.category == category) total += i.duration;
  }
  return total;
}

Seconds OccupancySampler::recorded(ResourceRef ref) const {
  Seconds total(0.0);
  for (const OccInterval& i : intervals(ref)) total += i.duration;
  return total;
}

void OccupancySampler::clear() {
  names_.clear();
  timelines_.clear();
  index_.clear();
  blocks_.clear();
  records_ = 0;
  slices_.clear();
  patterns_.clear();
  uses_.clear();
  size_ = 0;
  last_step_ = 0;
}

}  // namespace wrht::obs
