// The benchmark's four workloads. Each replays traffic users of this
// repository already run — the paper's figure sweeps, a bursty
// multi-tenant service trace, a million-node schedule build, and a fully
// observed analysis session — and checks every output it produces.
// README.md records why each one was chosen and which layers it loads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace wrht::e2e {

struct PassOptions {
  std::uint64_t seed = 1;
  /// Tiny sizes: the same calls and checks in well under a second.
  bool smoke = false;
  /// Sweep through the "traced:<name>" registry twins.
  bool traced = false;
  /// Threads of the one pool a pass may run at a time (sweep workers or
  /// parallel RWA, never both).
  unsigned threads = 1;
};

/// What one pass reports besides its timings: checks attempted and
/// failed, a digest of every output, and the per-layer values the
/// workload measures itself.
class PassRecord {
 public:
  void check(bool ok, std::string_view what);
  void digest(const void* data, std::size_t bytes);
  void digest(double value) { digest(&value, sizeof value); }
  void digest(std::uint64_t value) { digest(&value, sizeof value); }
  /// Adds `value` to the named per-layer metric.
  void layer(const std::string& name, double value) { layers_[name] += value; }

  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::string& first_failure() const {
    return first_failure_;
  }
  [[nodiscard]] std::uint64_t digest_value() const { return digest_; }
  [[nodiscard]] const std::map<std::string, double>& layers() const {
    return layers_;
  }

 private:
  std::uint64_t checks_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
  std::uint64_t digest_ = 14695981039346656037ULL;
  std::map<std::string, double> layers_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the pass inputs from the options (timed as set-up).
  virtual void setup() = 0;
  /// The timed work: calls into the library and checks every output.
  virtual void run(PassRecord& pass) = 0;
  /// Traced passes only, after the timed region: unobserved reference
  /// runs that overhead ratios are taken against.
  virtual void reference(PassRecord& pass) { (void)pass; }
};

struct WorkloadInfo {
  std::string name;
  /// False when the inputs are fixed and --seed is ignored.
  bool seeded = true;
  std::unique_ptr<Workload> (*make)(const PassOptions&) = nullptr;
};

/// The four workloads, in the order the all-workload mode runs them.
[[nodiscard]] const std::vector<WorkloadInfo>& all_workloads();
/// Null for unknown names.
[[nodiscard]] const WorkloadInfo* find_workload(const std::string& name);

}  // namespace wrht::e2e
