// Data-level schedule oracle: the one interpreter of schedule semantics.
//
// Executes any coll::Schedule against concrete per-node payloads with
// snapshot-per-step concurrent sends and proves what the nodes end up
// holding: the global sum everywhere (All-reduce), at a root (Reduce) or
// on each node's own chunk (Reduce-scatter), or one node's values
// everywhere (Broadcast) or each chunk's owner's values everywhere
// (All-gather). Every builder test, example and the fuzz driver prove
// their schedules here. What keeps this interpreter honest is
// test_verify_oracle's independent per-node reference interpreter, which
// must produce every report field bit for bit.
//
// Two proofs run side by side:
//   * numeric  — random real inputs; the final buffers must equal the
//     reference values within a tolerance. Catches any wrong linear
//     combination with overwhelming probability.
//   * provenance — each node starts owning exactly one unit of its own
//     contribution; transfers move exact integer contribution counts. The
//     final state must hold exactly the contributions the collective
//     promises at every checked element of every checked node (for an
//     All-reduce: one from every node). This is an exact proof — no
//     tolerance involved.
//     Tracked only while num_nodes^2 * elements stays under a memory cap
//     (the numeric check still runs above it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "wrht/collectives/schedule.hpp"
#include "wrht/verify/report.hpp"

namespace wrht::verify {

struct OracleOptions {
  double tolerance = 1e-9;
  std::uint64_t seed = 0x0c0ffee5eed;
  /// Provenance tracking is skipped when num_nodes^2 * elements exceeds
  /// this cap (counts grow quadratically in N).
  std::uint64_t provenance_cell_limit = 1u << 22;
};

struct OracleReport {
  CheckResult result;
  /// Largest |final - expected| over all nodes and elements.
  double max_abs_error = 0.0;
  /// Where the numeric error peaked (valid when max_abs_error > 0).
  std::uint32_t worst_node = 0;
  std::size_t worst_element = 0;
  /// True when the exact provenance proof ran (and is reflected in
  /// `result`); false when the configuration exceeded the cell cap.
  bool provenance_checked = false;

  [[nodiscard]] bool ok() const { return result.ok(); }
};

/// Proves `schedule` implements All-reduce. Throws only on structurally
/// invalid schedules (wrht::InvalidArgument via Schedule::validate()).
[[nodiscard]] OracleReport check_allreduce(const coll::Schedule& schedule,
                                           const OracleOptions& options = {});

/// Same interpreter, Reduce semantics: only node `root` must end with the
/// global sum.
[[nodiscard]] OracleReport check_reduce(const coll::Schedule& schedule,
                                        std::uint32_t root,
                                        const OracleOptions& options = {});

/// Same interpreter, Broadcast semantics: every node must end with node
/// `root`'s initial vector.
[[nodiscard]] OracleReport check_broadcast(const coll::Schedule& schedule,
                                           std::uint32_t root,
                                           const OracleOptions& options = {});

/// Same interpreter, Reduce-scatter semantics over `chunks` balanced
/// chunks (coll::chunk_range): for every chunk i < min(chunks, num_nodes),
/// node i must end with the global sum on chunk i. Its other elements and
/// every other node are unconstrained. Throws InvalidArgument when
/// `chunks` is 0.
[[nodiscard]] OracleReport check_reduce_scatter(
    const coll::Schedule& schedule, std::size_t chunks,
    const OracleOptions& options = {});

/// Same interpreter, All-gather semantics over `chunks` balanced chunks:
/// chunk i < min(chunks, num_nodes) starts valid only on node i, and every
/// node must end with node i's initial values on chunk i, for every such
/// i. Elements of chunks past the last node start valid nowhere and are
/// not checked. Throws InvalidArgument when `chunks` is 0.
[[nodiscard]] OracleReport check_allgather(const coll::Schedule& schedule,
                                           std::size_t chunks,
                                           const OracleOptions& options = {});

}  // namespace wrht::verify
