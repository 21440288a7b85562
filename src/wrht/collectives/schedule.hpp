// Communication-schedule intermediate representation.
//
// Every All-reduce algorithm in this library (Ring, H-Ring, Binary Tree,
// Recursive Doubling, WRHT) is expressed as a Schedule: an ordered list of
// Steps, each containing the Transfers that happen concurrently in that
// step. The same IR is executed by three engines:
//   * coll::Executor      - moves real data, verifies All-reduce semantics,
//   * optics::RingNetwork - assigns wavelengths and computes optical time,
//   * elec::FatTreeNetwork- routes flows and computes electrical time.
//
// Storage: per-step Transfer vectors live on a per-schedule common::Arena
// by default (ScheduleStorage::kArena), so building an N=10^5-step schedule
// costs a handful of system allocations and the transfers of consecutive
// steps sit contiguously in memory for the RWA/DES loops that stream over
// them. ScheduleStorage::kHeap (via ScheduleStorageScope) restores plain
// operator-new storage; it exists as the reference path for differential
// tests. Both modes produce value-identical schedules.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "wrht/common/arena.hpp"
#include "wrht/common/units.hpp"
#include "wrht/topo/ring.hpp"

namespace wrht::coll {

using NodeId = topo::NodeId;

/// What the receiver does with the payload.
enum class TransferKind : std::uint8_t {
  kReduce,  ///< receiver accumulates (element-wise sum) into its buffer
  kCopy,    ///< receiver overwrites its buffer range
};

/// One point-to-point message within a step. `offset`/`count` select the
/// element range [offset, offset+count) of the logical All-reduce vector.
struct Transfer {
  NodeId src = 0;
  NodeId dst = 0;
  std::size_t offset = 0;
  std::size_t count = 0;
  TransferKind kind = TransferKind::kReduce;
  /// Optical routing hint. WRHT pins each transfer to the ring direction
  /// that stays inside its group's arc so neighbouring groups can reuse
  /// wavelengths; when absent the RWA engine picks the shortest direction.
  topo::DirectionHint direction;
};
// kind and direction share the last word: a ring at N=4096 holds 33.5 M
// transfers, so every byte here is 33.5 MB of schedule.
static_assert(sizeof(Transfer) == 32, "Transfer must stay 32 bytes");
static_assert(std::is_trivially_copyable_v<Transfer>,
              "builders and copies move Transfers as plain bytes");

/// Per-step transfer storage. Default-constructed (null-arena) lists behave
/// exactly like std::vector<Transfer>; lists handed out by Schedule point at
/// the schedule's arena. The allocator does not propagate on copy/move
/// assignment or swap, so `a.transfers = b.transfers` always copies elements
/// into the destination's own storage and never re-homes a list onto a
/// foreign arena.
using TransferList =
    std::vector<Transfer, common::ArenaAllocator<Transfer>>;

/// Transfers that are in flight concurrently. Senders are read with
/// beginning-of-step (snapshot) semantics.
struct Step {
  TransferList transfers;
  std::string label;
};

/// Where a Schedule keeps its Transfer storage. Selected per-thread at
/// Schedule construction time; see ScheduleStorageScope.
enum class ScheduleStorage {
  kArena,  ///< per-schedule monotonic arena (default)
  kHeap,   ///< operator new per vector — the pre-arena reference path
};

/// Storage mode new Schedules on this thread are built with.
[[nodiscard]] ScheduleStorage default_schedule_storage();

/// RAII override of the thread-local storage mode. Lets tests and the
/// differential harness force the heap reference path (or pin the arena
/// path) for everything a call tree builds — including Registry::build and
/// the algorithm builders — without threading a parameter through them.
class ScheduleStorageScope {
 public:
  explicit ScheduleStorageScope(ScheduleStorage storage);
  ~ScheduleStorageScope();
  ScheduleStorageScope(const ScheduleStorageScope&) = delete;
  ScheduleStorageScope& operator=(const ScheduleStorageScope&) = delete;

 private:
  ScheduleStorage saved_;
};

class Schedule {
 public:
  Schedule(std::string algorithm, std::uint32_t num_nodes,
           std::size_t elements);

  /// Copies rebuild the step/transfer data on the copy's own fresh storage
  /// (per the current thread-local mode), in one arena chunk sized to the
  /// source's transfers; the source arena is untouched.
  Schedule(const Schedule& other);
  Schedule& operator=(const Schedule& other);
  Schedule(Schedule&&) noexcept = default;
  Schedule& operator=(Schedule&&) noexcept = default;

  [[nodiscard]] const std::string& algorithm() const { return algorithm_; }
  [[nodiscard]] std::uint32_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t elements() const { return elements_; }

  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }
  [[nodiscard]] std::size_t num_steps() const { return steps_.size(); }

  /// Appends a step whose transfer list is bound to this schedule's
  /// storage. Reserve contract: a builder that knows its step count calls
  /// reserve_steps() first, and one that knows a step's transfer count
  /// calls `transfers.reserve()` before the first push_back. Growth inside
  /// a monotonic arena abandons the outgrown block until the schedule
  /// dies, so an unreserved build holds about twice its transfers. The
  /// ring, H-Ring and WRHT builders reserve exactly: their arenas hold
  /// Σ transfers × sizeof(Transfer) bytes.
  Step& add_step(std::string label = {});

  void reserve_steps(std::size_t n) { steps_.reserve(n); }

  /// Storage this schedule was built with.
  [[nodiscard]] ScheduleStorage storage() const {
    return arena_ ? ScheduleStorage::kArena : ScheduleStorage::kHeap;
  }
  /// The backing arena (null in kHeap mode) — for memory accounting.
  [[nodiscard]] const common::Arena* arena() const { return arena_.get(); }

  /// True when every transfer spans the whole vector ([0, elements)) —
  /// the precondition for rescale_elements(). Holds for WRHT/tree-style
  /// full-vector schedules; false for chunked ring/halving-doubling ones.
  [[nodiscard]] bool full_vector() const;

  /// Re-targets a full-vector schedule at a new vector length in place:
  /// every transfer's count becomes `new_elements`. The step/circuit
  /// structure of such schedules depends only on (N, m, w), so this is the
  /// patch operation the incremental sweep cache uses to reuse one build
  /// across an elements axis. Throws without modifying anything if the
  /// schedule is not full-vector.
  void rescale_elements(std::size_t new_elements);

  /// Sum of element counts over all transfers (total traffic in elements).
  [[nodiscard]] std::uint64_t total_traffic_elements() const;

  /// Largest single-transfer element count of a step (the optical per-step
  /// serialization is governed by the largest concurrent transfer).
  [[nodiscard]] std::size_t max_transfer_elements(std::size_t step) const;

  /// Structural validation: node ids in range, element ranges within the
  /// vector, no node both sending and receiving conflicting ranges is NOT
  /// checked here (snapshot semantics make it legal); throws on violation.
  void validate() const;

  /// validate()'s checks on one transfer of step `step`: node ids in
  /// range, no self-transfer, a non-empty element range inside the vector.
  /// Throws InvalidArgument naming the step. Inline so net::scan_schedule
  /// applies the same checks in its own single pass over the transfers.
  void check_transfer(const Transfer& t, std::size_t step) const {
    if (t.src >= num_nodes_ || t.dst >= num_nodes_) [[unlikely]] {
      reject_transfer("Schedule: node id out of range in step ", step);
    }
    if (t.src == t.dst) [[unlikely]] {
      reject_transfer("Schedule: self-transfer in step ", step);
    }
    // offset + count can wrap; compare against what is left instead.
    if (t.count < 1 || t.offset > elements_ ||
        t.count > elements_ - t.offset) [[unlikely]] {
      reject_transfer("Schedule: element range out of bounds in step ",
                      step);
    }
  }

 private:
  /// Throws InvalidArgument(`what` + step), out of line.
  [[noreturn]] static void reject_transfer(const char* what,
                                           std::size_t step);

  /// `first_chunk_bytes` sizes the arena's first chunk (common::Arena).
  Schedule(std::string algorithm, std::uint32_t num_nodes,
           std::size_t elements, std::size_t first_chunk_bytes);

  [[nodiscard]] common::ArenaAllocator<Transfer> transfer_allocator() const {
    return common::ArenaAllocator<Transfer>(arena_.get());
  }

  std::string algorithm_;
  std::uint32_t num_nodes_;
  std::size_t elements_;
  // arena_ is declared before steps_ so steps_ (whose transfer lists live
  // inside the arena) is destroyed first.
  std::shared_ptr<common::Arena> arena_;
  std::vector<Step> steps_;
};

/// One circuit a step asks the optical control plane to keep lit: the
/// (src, dst, direction-hint) triple that determines which micro-rings are
/// tuned. Two steps whose circuit sets coincide need no retuning between
/// them (Ring All-reduce's 2(N-1) steps are the canonical example); WRHT
/// changes circuits on almost every step by construction.
struct Circuit {
  NodeId src = 0;
  NodeId dst = 0;
  /// Packed direction hint: 0 = none, 1 = clockwise, 2 = counter-clockwise.
  std::uint8_t direction = 0;
  auto operator<=>(const Circuit&) const = default;
};
[[nodiscard]] Circuit circuit_of(const Transfer& transfer);

/// Circuit storage mirroring TransferList: null-arena by default, bindable
/// to an arena by callers that batch-derive deltas for huge schedules.
using CircuitList = std::vector<Circuit, common::ArenaAllocator<Circuit>>;

/// Which circuits change entering a step relative to the previous step —
/// the per-step reconfiguration metadata the ReconfigPolicy engines and the
/// wrht::plan cost models reason about. Deltas are derived from the
/// schedule, not stored in it, so the IR stays a pure data-movement
/// description.
struct ReconfigDelta {
  /// Circuits lit entering this step that the previous step did not use
  /// (every circuit of step 0 — cold start).
  CircuitList added;
  /// Circuits the previous step used that this step tears down.
  CircuitList removed;
  /// Circuits carried over unchanged from the previous step.
  std::size_t kept = 0;
  /// No retuning needed entering this step (nothing added or removed).
  [[nodiscard]] bool reconfig_free() const {
    return added.empty() && removed.empty();
  }
};

/// One delta per step. Deltas deduplicate repeated (src, dst, direction)
/// transfers within a step: a circuit lit once serves them all.
[[nodiscard]] std::vector<ReconfigDelta> reconfig_deltas(
    const Schedule& schedule);

/// True when every step after the first reuses the previous step's exact
/// circuit set, i.e. the whole schedule retunes at most once (step 0).
/// Streams over steps without materializing the delta list, so it stays
/// cheap on 10^5-step schedules.
[[nodiscard]] bool is_reconfig_free(const Schedule& schedule);

/// Element range [offset, count) of chunk `index` out of `chunks` for a
/// vector of `elements`; remainders spread over the leading chunks, so every
/// chunk differs from any other by at most one element.
struct ChunkRange {
  std::size_t offset;
  std::size_t count;
};
[[nodiscard]] ChunkRange chunk_range(std::size_t elements, std::size_t chunks,
                                     std::size_t index);

/// chunk_range(elements, chunks, c) for every c in [0, chunks): the table
/// the ring-family builders read instead of dividing per transfer.
[[nodiscard]] std::vector<ChunkRange> chunk_ranges(std::size_t elements,
                                                   std::size_t chunks);

}  // namespace wrht::coll
