// Pluggable admission policies for the shared-fabric service.
//
// Whenever a wavelength slice frees up (or a job arrives), the service
// asks its policy which queued job to admit next. The policy sees the head
// of every job class in the AdmissionQueue, earliest arrival first, plus
// the widest free slice and how much weighted fabric time each tenant has
// consumed. Returning kNone blocks admission until the next event.
//
//   * fifo          — strict arrival order; a head job too wide to place
//                     blocks everyone behind it.
//   * priority      — highest Job::priority first (FIFO among equals);
//                     still head-of-line blocking within that order.
//   * backfill      — first job in arrival order that fits; narrow jobs
//                     slip past a blocked wide head.
//   * weighted-fair — among fitting jobs, the one whose tenant has the
//                     least wavelength-seconds per unit weight.
//
// Every policy ranks a job by a key that depends on the job only through
// its class (priority, tenant, width) and breaks ties by arrival. The job
// it would pick from the whole queue is therefore the earliest of its
// class, which is that class's head, so choosing among heads is exact and
// an admission round costs O(queued classes) rather than O(queued jobs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "wrht/svc/job.hpp"

namespace wrht::svc {

enum class PolicyKind { kFifo, kPriority, kBackfill, kWeightedFair };

/// Stable lower-case names ("fifo", "priority", "backfill",
/// "weighted-fair") for CSV columns and CLI flags.
[[nodiscard]] std::string to_string(PolicyKind kind);
/// Inverse of to_string(); throws InvalidArgument for unknown names.
[[nodiscard]] PolicyKind policy_from_string(const std::string& name);
/// Every policy, in enum order (the bake-off bench sweeps this).
[[nodiscard]] std::vector<PolicyKind> all_policies();

/// The jobs waiting for admission, in FIFO classes keyed by (priority,
/// tenant, width), the only job fields a policy reads. Each job is stamped
/// with its arrival sequence number; the classes are kept ordered by the
/// arrival of their heads, and a class is dropped as soon as it empties,
/// so there are never more classes than waiting jobs.
class AdmissionQueue {
 public:
  /// Appends `job` behind the earlier arrivals of its class.
  void push(Job job);
  /// Removes and returns the head of class `i` (head-arrival order).
  [[nodiscard]] Job pop(std::size_t i);
  /// Waiting jobs across all classes.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Non-empty classes; head(i) is the earliest waiting job of class i,
  /// and heads arrived in increasing i.
  [[nodiscard]] std::size_t num_classes() const { return classes_.size(); }
  [[nodiscard]] const Job& head(std::size_t i) const {
    return classes_[i].jobs->front().job;
  }

 private:
  struct Waiting {
    std::uint64_t seq;
    Job job;
  };
  struct Class {
    std::uint32_t priority;
    std::uint32_t tenant;
    std::uint32_t width;
    /// Arrival order. Held by pointer so that reordering classes moves a
    /// pointer, not a deque: libstdc++ allocates a fresh map and node for
    /// the moved-from side of every std::deque move construction.
    std::unique_ptr<std::deque<Waiting>> jobs;
  };
  std::vector<Class> classes_;  // ordered by jobs->front().seq
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
};

/// What a policy may ask the service while selecting.
struct AdmissionContext {
  /// Widest contiguous free slice (WavelengthAllocator::largest_free()).
  std::uint32_t largest_free = 0;
  /// Wavelength-seconds granted to `tenant` so far, divided by the
  /// tenant's weight. Monotone within a run.
  std::function<double(std::uint32_t tenant)> weighted_consumption;

  /// Can a contiguous slice of `width` >= 1 wavelengths be allocated now?
  [[nodiscard]] bool fits(std::uint32_t width) const {
    return width <= largest_free;
  }
};

class AdmissionPolicy {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  virtual ~AdmissionPolicy();

  [[nodiscard]] virtual PolicyKind kind() const = 0;
  [[nodiscard]] std::string name() const { return to_string(kind()); }

  /// Class (AdmissionQueue::head index) whose head to admit next, or
  /// kNone to block until the next arrival/completion event.
  [[nodiscard]] virtual std::size_t select(
      const AdmissionQueue& queue, const AdmissionContext& ctx) const = 0;
};

[[nodiscard]] std::unique_ptr<AdmissionPolicy> make_policy(PolicyKind kind);

}  // namespace wrht::svc
