// The trivial backend: counts steps without pricing time.
//
// Step-count tables (Table 1) and schedule-shape sweeps need the Schedule
// IR walked under the same Backend/RunReport contract as the real engines,
// but with no network model at all. ScheduleOnlyBackend reports zero
// durations, one round per non-empty step, and the shared net.* traffic
// counters — and doubles as the minimal example of how to write a backend.
#pragma once

#include <cstdint>

#include "wrht/net/backend.hpp"

namespace wrht::net {

class ScheduleOnlyBackend final : public Backend {
 public:
  explicit ScheduleOnlyBackend(std::uint32_t num_nodes)
      : num_nodes_(num_nodes) {}

  /// The one line describe() and the backend registry both give.
  static constexpr const char* kDescription =
      "walks the schedule and reports step structure; prices no time";

  [[nodiscard]] std::string name() const override { return "schedule-only"; }
  [[nodiscard]] std::string describe() const override { return kDescription; }
  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.prices_time = false;
    return caps;
  }

  using Backend::execute;
  [[nodiscard]] RunReport execute(const coll::Schedule& schedule,
                                  const obs::Probe& probe) const override;

 private:
  std::uint32_t num_nodes_;
};

}  // namespace wrht::net
