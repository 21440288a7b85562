#include "wrht/svc/policy.hpp"

#include <algorithm>
#include <utility>

#include "wrht/common/error.hpp"

namespace wrht::svc {

AdmissionPolicy::~AdmissionPolicy() = default;

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
      return "fifo";
    case PolicyKind::kPriority:
      return "priority";
    case PolicyKind::kBackfill:
      return "backfill";
    case PolicyKind::kWeightedFair:
      return "weighted-fair";
  }
  throw InvalidArgument("unknown PolicyKind");
}

PolicyKind policy_from_string(const std::string& name) {
  for (const PolicyKind kind : all_policies()) {
    if (to_string(kind) == name) return kind;
  }
  throw InvalidArgument("unknown admission policy '" + name +
                        "' (expected fifo, priority, backfill or "
                        "weighted-fair)");
}

std::vector<PolicyKind> all_policies() {
  return {PolicyKind::kFifo, PolicyKind::kPriority, PolicyKind::kBackfill,
          PolicyKind::kWeightedFair};
}

void AdmissionQueue::push(Job job) {
  const auto same_class = [&job](const Class& c) {
    return c.priority == job.priority && c.tenant == job.tenant &&
           c.width == job.width;
  };
  auto it = std::find_if(classes_.begin(), classes_.end(), same_class);
  if (it == classes_.end()) {
    // The newest job heads its new class, so appending keeps the classes
    // in head-arrival order.
    it = classes_.insert(
        classes_.end(), Class{job.priority, job.tenant, job.width,
                              std::make_unique<std::deque<Waiting>>()});
  }
  it->jobs->push_back(Waiting{next_seq_++, std::move(job)});
  ++size_;
}

Job AdmissionQueue::pop(std::size_t i) {
  require(i < classes_.size(), "AdmissionQueue: pop of a missing class");
  const auto pos = classes_.begin() + static_cast<std::ptrdiff_t>(i);
  Job job = std::move(pos->jobs->front().job);
  pos->jobs->pop_front();
  --size_;
  if (pos->jobs->empty()) {
    classes_.erase(pos);
    return job;
  }
  // The class's next job arrived after its old head: move the class back
  // past the classes whose heads arrived earlier.
  const std::uint64_t seq = pos->jobs->front().seq;
  const auto to = std::partition_point(
      pos + 1, classes_.end(),
      [seq](const Class& c) { return c.jobs->front().seq < seq; });
  std::rotate(pos, pos + 1, to);
  return job;
}

namespace {

class FifoPolicy final : public AdmissionPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kFifo; }
  [[nodiscard]] std::size_t select(
      const AdmissionQueue& queue,
      const AdmissionContext& ctx) const override {
    if (queue.empty() || !ctx.fits(queue.head(0).width)) return kNone;
    return 0;
  }
};

class PriorityPolicy final : public AdmissionPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kPriority;
  }
  [[nodiscard]] std::size_t select(
      const AdmissionQueue& queue,
      const AdmissionContext& ctx) const override {
    if (queue.empty()) return kNone;
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue.num_classes(); ++i) {
      // Strictly greater keeps FIFO order among equal priorities.
      if (queue.head(i).priority > queue.head(best).priority) best = i;
    }
    // Strict like FIFO: the chosen job blocks until it fits.
    return ctx.fits(queue.head(best).width) ? best : kNone;
  }
};

class BackfillPolicy final : public AdmissionPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kBackfill;
  }
  [[nodiscard]] std::size_t select(
      const AdmissionQueue& queue,
      const AdmissionContext& ctx) const override {
    for (std::size_t i = 0; i < queue.num_classes(); ++i) {
      if (ctx.fits(queue.head(i).width)) return i;
    }
    return kNone;
  }
};

class WeightedFairPolicy final : public AdmissionPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kWeightedFair;
  }
  [[nodiscard]] std::size_t select(
      const AdmissionQueue& queue,
      const AdmissionContext& ctx) const override {
    std::size_t best = kNone;
    double best_consumed = 0.0;
    for (std::size_t i = 0; i < queue.num_classes(); ++i) {
      const Job& job = queue.head(i);
      if (!ctx.fits(job.width)) continue;
      const double consumed = ctx.weighted_consumption(job.tenant);
      // Strictly less keeps FIFO order within a tenant and among tenants
      // at equal consumption.
      if (best == kNone || consumed < best_consumed) {
        best = i;
        best_consumed = consumed;
      }
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<AdmissionPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
      return std::make_unique<FifoPolicy>();
    case PolicyKind::kPriority:
      return std::make_unique<PriorityPolicy>();
    case PolicyKind::kBackfill:
      return std::make_unique<BackfillPolicy>();
    case PolicyKind::kWeightedFair:
      return std::make_unique<WeightedFairPolicy>();
  }
  throw InvalidArgument("unknown PolicyKind");
}

}  // namespace wrht::svc
