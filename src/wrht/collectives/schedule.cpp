#include "wrht/collectives/schedule.hpp"

#include <algorithm>
#include <iterator>

#include "wrht/common/error.hpp"

namespace wrht::coll {

Schedule::Schedule(std::string algorithm, std::uint32_t num_nodes,
                   std::size_t elements)
    : algorithm_(std::move(algorithm)),
      num_nodes_(num_nodes),
      elements_(elements) {
  require(num_nodes >= 1, "Schedule: need at least one node");
  require(elements >= 1, "Schedule: need at least one element");
}

Step& Schedule::add_step(std::string label) {
  steps_.push_back(Step{TransferList{}, std::move(label)});
  return steps_.back();
}

bool Schedule::full_vector() const {
  for (const Step& step : steps_) {
    for (const Transfer& t : step.transfers) {
      if (t.offset != 0 || t.count != elements_) return false;
    }
  }
  return true;
}

void Schedule::rescale_elements(std::size_t new_elements) {
  require(new_elements >= 1, "rescale_elements: need at least one element");
  if (!full_vector()) {
    throw InvalidArgument(
        "rescale_elements: schedule '" + algorithm_ +
        "' has chunked transfers; only full-vector schedules rescale");
  }
  for (Step& step : steps_) {
    for (Transfer& t : step.transfers) t.count = new_elements;
  }
  elements_ = new_elements;
}

std::uint64_t Schedule::total_traffic_elements() const {
  std::uint64_t total = 0;
  for (const auto& step : steps_) {
    for (const auto& t : step.transfers) total += t.count;
  }
  return total;
}

std::size_t Schedule::max_transfer_elements(std::size_t step) const {
  require(step < steps_.size(), "Schedule: step index out of range");
  std::size_t max_count = 0;
  for (const auto& t : steps_[step].transfers) {
    max_count = std::max(max_count, t.count);
  }
  return max_count;
}

void Schedule::validate() const {
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    for (const Transfer& t : steps_[s].transfers) check_transfer(t, s);
  }
}

void Schedule::reject_transfer(const char* what, std::size_t step) {
  throw InvalidArgument(what + std::to_string(step));
}

Circuit circuit_of(const Transfer& transfer) {
  return Circuit{transfer.src, transfer.dst, transfer.direction.bits()};
}

namespace {

/// Sorted, deduplicated circuit set of one step, reusing `scratch`'s
/// capacity across steps.
void step_circuits(const Step& step, std::vector<Circuit>& scratch) {
  scratch.clear();
  scratch.reserve(step.transfers.size());
  for (const Transfer& t : step.transfers) scratch.push_back(circuit_of(t));
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
}

}  // namespace

std::vector<ReconfigDelta> reconfig_deltas(const Schedule& schedule) {
  std::vector<ReconfigDelta> deltas;
  deltas.reserve(schedule.num_steps());
  std::vector<Circuit> previous;  // sorted, deduplicated
  std::vector<Circuit> current;
  for (const Step& step : schedule.steps()) {
    step_circuits(step, current);

    ReconfigDelta delta;
    std::set_difference(current.begin(), current.end(), previous.begin(),
                        previous.end(), std::back_inserter(delta.added));
    std::set_difference(previous.begin(), previous.end(), current.begin(),
                        current.end(), std::back_inserter(delta.removed));
    delta.kept = current.size() - delta.added.size();
    deltas.push_back(std::move(delta));
    std::swap(previous, current);
  }
  return deltas;
}

bool is_reconfig_free(const Schedule& schedule) {
  std::vector<Circuit> previous;
  std::vector<Circuit> current;
  bool first = true;
  for (const Step& step : schedule.steps()) {
    step_circuits(step, current);
    if (!first && current != previous) return false;
    first = false;
    std::swap(previous, current);
  }
  return true;
}

ChunkRange chunk_range(std::size_t elements, std::size_t chunks,
                       std::size_t index) {
  require(chunks >= 1 && index < chunks, "chunk_range: bad chunk index");
  const std::size_t base = elements / chunks;
  const std::size_t extra = elements % chunks;
  const std::size_t count = base + (index < extra ? 1 : 0);
  const std::size_t offset =
      index * base + std::min<std::size_t>(index, extra);
  return ChunkRange{offset, count};
}

std::vector<ChunkRange> chunk_ranges(std::size_t elements,
                                     std::size_t chunks) {
  std::vector<ChunkRange> table;
  table.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    table.push_back(chunk_range(elements, chunks, c));
  }
  return table;
}

}  // namespace wrht::coll
