#include "wrht/obs/occupancy.hpp"

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

OccupancySampler::Intervals::iterator&
OccupancySampler::Intervals::iterator::operator++() {
  const std::size_t last = sampler_->timelines_[ref_].last;
  do {
    ++index_;
  } while (index_ <= last && sampler_->at(index_).resource != ref_);
  return *this;
}

OccupancySampler::Intervals::iterator OccupancySampler::Intervals::begin()
    const {
  const Timeline& t = sampler_->timelines_[ref_];
  return t.count == 0 ? end() : iterator(sampler_, ref_, t.first);
}

OccupancySampler::Intervals::iterator OccupancySampler::Intervals::end()
    const {
  const Timeline& t = sampler_->timelines_[ref_];
  return iterator(sampler_, ref_, t.count == 0 ? 0 : t.last + 1);
}

std::size_t OccupancySampler::Intervals::size() const {
  return sampler_->timelines_[ref_].count;
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

void OccupancySampler::record(ResourceRef ref, std::uint32_t step,
                              Seconds start, Seconds duration,
                              OccCategory category,
                              std::uint32_t concurrency) {
  require(ref < timelines_.size(), "OccupancySampler: unknown resource ref");
  require(step >= last_step_,
          "OccupancySampler: a step was recorded after a later one");
  last_step_ = step;
  if (duration.count() <= 0.0) return;
  Timeline& timeline = timelines_[ref];
  if (timeline.count > 0) {
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
  if (timeline.count == 0) timeline.first = records_;
  timeline.last = records_;
  ++timeline.count;
  ++records_;
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
  last_step_ = 0;
}

}  // namespace wrht::obs
