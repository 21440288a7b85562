// Transfer-level timeline sink for causal blame attribution (wrht::diag).
//
// Where OccupancySampler answers "how busy was each resource", TransferLog
// keeps the *causal structure* of a run: every step, every serialization
// round inside it, and every transfer inside each round, with the exact
// cost decomposition the engine charged (reconfiguration / O-E-O
// conversion / serialization) and a retune flag replicating kOnRetune
// accounting regardless of the policy the run actually used. wrht::diag
// rebuilds the dependency DAG from these records, extracts the critical
// path, and proves the blame accounting identity against the simulated
// makespan.
//
// net::RoundRecorder is the only writer: each engine describes a priced
// step once and the recorder stamps the context and appends the step, its
// rounds and their transfers. Like every Probe member the sink is null by
// default, so unobserved runs cost nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wrht/common/units.hpp"

namespace wrht::obs {

/// One schedule step on the run timeline.
struct StepTrace {
  std::uint32_t step = 0;
  std::string label;
  Seconds start{0.0};
  Seconds duration{0.0};
};

/// One serialization round on one lane. A lane is an independently
/// progressing resource chain within a step: the double ring has one lane
/// ("ring"), the torus one per participating ring ("row3", "col0"), the
/// electrical engines a single "fabric" lane. A step's duration is the max
/// over its lanes of the lane's round-duration sum — the blame DAG's only
/// join rule.
struct RoundTrace {
  std::uint32_t step = 0;
  std::string lane;
  std::uint32_t round = 0;
  Seconds start{0.0};
  /// Reconfiguration delay actually charged to this round under the run's
  /// policy (the kOverlapped residual, zero for free kOnRetune rounds).
  Seconds reconfig{0.0};
  /// Full (unhidden) reconfiguration delay, for what-if re-pricing.
  Seconds full_reconfig{0.0};
  Seconds conversion{0.0};     ///< O/E/O conversion time
  Seconds serialization{0.0};  ///< slowest transfer's payload time
  /// Router store-and-forward processing on the bounding flow (electrical
  /// engines; zero on the optical ones).
  Seconds processing{0.0};
  /// reconfig + conversion + serialization + processing
  Seconds duration{0.0};
  /// Whether kOnRetune accounting would charge this round (some micro-ring
  /// changes state relative to the previous round on this lane's walk).
  /// Engines that cannot keep circuits up across rounds report true.
  bool retune = true;
};

/// One transfer inside a round, with its routing assignment.
struct TransferTrace {
  std::uint32_t step = 0;
  std::string lane;
  std::uint32_t round = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t elements = 0;
  std::uint32_t wavelength = 0;
  std::uint8_t direction = 0;  ///< engine-specific (ring: 0 cw, 1 ccw)
  Seconds start{0.0};
  Seconds duration{0.0};
};

/// Collects the transfer-level timeline of one engine execution. Plain
/// struct-of-vectors: engines append in time order per lane, wrht::diag
/// consumes by value.
class TransferLog {
 public:
  /// Run provenance, stamped when an engine's execute() starts so blame
  /// reports are self-describing.
  struct Context {
    std::string backend;          ///< "optical-ring", "electrical-flow", ...
    std::string reconfig_policy;  ///< net::to_string(policy)
    Seconds mrr_reconfig_delay{0.0};
    Seconds oeo_delay{0.0};
  };

  void set_context(Context context) { context_ = std::move(context); }
  [[nodiscard]] const Context& context() const { return context_; }

  void step(StepTrace s) { steps_.push_back(std::move(s)); }
  void round(RoundTrace r) { rounds_.push_back(std::move(r)); }
  void transfer(TransferTrace t) { transfers_.push_back(std::move(t)); }

  [[nodiscard]] const std::vector<StepTrace>& steps() const { return steps_; }
  [[nodiscard]] const std::vector<RoundTrace>& rounds() const {
    return rounds_;
  }
  [[nodiscard]] const std::vector<TransferTrace>& transfers() const {
    return transfers_;
  }

  [[nodiscard]] bool empty() const {
    return steps_.empty() && rounds_.empty() && transfers_.empty();
  }

  void clear() {
    steps_.clear();
    rounds_.clear();
    transfers_.clear();
  }

 private:
  Context context_;
  std::vector<StepTrace> steps_;
  std::vector<RoundTrace> rounds_;
  std::vector<TransferTrace> transfers_;
};

}  // namespace wrht::obs
