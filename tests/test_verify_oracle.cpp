#include "wrht/verify/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "wrht/collectives/registry.hpp"
#include "wrht/collectives/ring_primitives.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/core/wrht_schedule.hpp"

namespace wrht {
namespace {

using verify::OracleOptions;
using verify::OracleReport;

coll::AllreduceParams params_for(const std::string& algorithm,
                                 std::uint32_t n, std::size_t elements) {
  coll::AllreduceParams p;
  p.num_nodes = n;
  p.elements = elements;
  p.group_size = 4;
  p.wavelengths = 64;
  if (algorithm == "ring" || algorithm == "hring" ||
      algorithm == "halving_doubling") {
    p.elements = std::max<std::size_t>(p.elements, n);
  }
  return p;
}

// --------------------------------------- every registered builder passes

TEST(VerifyOracle, ProvesEveryRegisteredAlgorithm) {
  core::register_wrht_algorithm();
  auto& registry = coll::Registry::instance();
  for (const std::string& name : registry.names()) {
    for (const std::uint32_t n : {2u, 8u, 13u, 32u}) {
      const coll::Schedule sched =
          registry.build(name, params_for(name, n, 96));
      const OracleReport report = verify::check_allreduce(sched);
      EXPECT_TRUE(report.ok())
          << name << " N=" << n << ":\n" << report.result.summary();
      EXPECT_TRUE(report.provenance_checked) << name << " N=" << n;
    }
  }
}

// ------------------------------------------------- corruption detection

/// Copies `src` with a hook that may edit each step's transfer list.
template <typename EditFn>
coll::Schedule mutate(const coll::Schedule& src, EditFn edit) {
  coll::Schedule out(src.algorithm(), src.num_nodes(), src.elements());
  for (std::size_t s = 0; s < src.num_steps(); ++s) {
    coll::Step& step = out.add_step(src.steps()[s].label);
    step.transfers = src.steps()[s].transfers;
    edit(s, step.transfers);
  }
  return out;
}

TEST(VerifyOracle, CatchesDroppedTransfer) {
  const coll::Schedule good = coll::ring_allreduce(8, 64);
  const coll::Schedule bad =
      mutate(good, [](std::size_t s, coll::TransferList& ts) {
        if (s == 2) ts.pop_back();
      });
  const OracleReport report = verify::check_allreduce(bad);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.max_abs_error, 1e-9);
}

TEST(VerifyOracle, CatchesDuplicatedReduce) {
  const coll::Schedule good = coll::ring_allreduce(8, 64);
  const coll::Schedule bad =
      mutate(good, [](std::size_t s, coll::TransferList& ts) {
        // Re-delivering a reduce double-counts its contributions; with
        // snapshot semantics the duplicate lands in the same step.
        if (s == 0) ts.push_back(ts.front());
      });
  const OracleReport report = verify::check_allreduce(bad);
  EXPECT_FALSE(report.ok());
  // The exact provenance proof names the over-counted contribution.
  bool provenance_finding = false;
  for (const verify::Finding& f : report.result.findings()) {
    provenance_finding |= f.check == "oracle.allreduce.provenance";
  }
  EXPECT_TRUE(provenance_finding) << report.result.summary();
}

TEST(VerifyOracle, CatchesReduceTurnedIntoCopy) {
  const coll::Schedule good = coll::ring_allreduce(8, 64);
  const coll::Schedule bad =
      mutate(good, [](std::size_t s, coll::TransferList& ts) {
        if (s == 0) ts.front().kind = coll::TransferKind::kCopy;
      });
  EXPECT_FALSE(verify::check_allreduce(bad).ok());
}

// ------------------------------------- reduce / broadcast discrimination

TEST(VerifyOracle, ReduceScheduleIsNotAnAllreduce) {
  const core::WrhtRootedSchedule reduce =
      core::wrht_reduce(16, 64, core::WrhtOptions{4, 64});
  EXPECT_FALSE(verify::check_allreduce(reduce.schedule).ok());
  EXPECT_TRUE(
      verify::check_reduce(reduce.schedule, reduce.root).ok());
  // Only the hierarchy root holds the sum.
  for (std::uint32_t node = 0; node < 16; ++node) {
    if (node == reduce.root) continue;
    EXPECT_FALSE(verify::check_reduce(reduce.schedule, node).ok())
        << "node " << node << " should not hold the global sum";
  }
}

TEST(VerifyOracle, BroadcastScheduleProvesBroadcast) {
  const core::WrhtRootedSchedule bcast =
      core::wrht_broadcast(16, 64, core::WrhtOptions{4, 64});
  EXPECT_TRUE(verify::check_broadcast(bcast.schedule, bcast.root).ok());
  EXPECT_FALSE(verify::check_allreduce(bcast.schedule).ok());
}

TEST(VerifyOracle, RootOutOfRangeThrows) {
  const core::WrhtRootedSchedule reduce =
      core::wrht_reduce(8, 16, core::WrhtOptions{2, 64});
  EXPECT_THROW(static_cast<void>(verify::check_reduce(reduce.schedule, 8)),
               InvalidArgument);
}

// -------------------------------------------------- provenance gating

TEST(VerifyOracle, CellLimitDisablesProvenanceButKeepsNumeric) {
  const coll::Schedule sched = coll::ring_allreduce(8, 64);
  OracleOptions options;
  options.provenance_cell_limit = 8;  // 8 * 8 * 64 cells blow way past this
  const OracleReport report = verify::check_allreduce(sched, options);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.provenance_checked);
}

TEST(VerifyOracle, DeterministicInSeed) {
  const coll::Schedule good = coll::ring_allreduce(8, 64);
  const coll::Schedule bad =
      mutate(good, [](std::size_t s, coll::TransferList& ts) {
        if (s == 1) ts.pop_back();
      });
  const OracleReport a = verify::check_allreduce(bad);
  const OracleReport b = verify::check_allreduce(bad);
  EXPECT_EQ(a.max_abs_error, b.max_abs_error);
  EXPECT_EQ(a.worst_node, b.worst_node);
  EXPECT_EQ(a.worst_element, b.worst_element);
}

// ------------------------------------------ interpreter semantics, by verdict

using coll::Transfer;
using coll::TransferKind;

using Findings = std::vector<std::string>;

/// Each finding as "<check>: <detail>", a numeric detail cut before its
/// input-dependent " off by <error>".
Findings findings_of(const OracleReport& report) {
  Findings out;
  for (const verify::Finding& f : report.result.findings()) {
    const std::size_t cut = f.detail.find(" off by");
    out.push_back(f.check + ": " + f.detail.substr(0, cut));
  }
  return out;
}

// A reduce adds the sender's values into the receiver's; the sender keeps
// its own.
TEST(VerifyOracle, ReduceAccumulates) {
  coll::Schedule s("manual", 2, 3);
  s.add_step().transfers = {Transfer{0, 1, 0, 3, TransferKind::kReduce, {}}};
  EXPECT_TRUE(verify::check_reduce(s, 1).ok());
  // As a broadcast from node 0, only node 1 (x0 + x1) is off.
  EXPECT_EQ(findings_of(verify::check_broadcast(s, 0)),
            (Findings{"oracle.broadcast.numeric: node 1 element 0",
                      "oracle.broadcast.provenance: node 1 element 0 holds 1 "
                      "contribution(s) of node 1, want 0"}));
}

// A copy replaces the receiver's values: node 1 ends with x0 and none of x1.
TEST(VerifyOracle, CopyOverwrites) {
  coll::Schedule s("manual", 2, 2);
  s.add_step().transfers = {Transfer{0, 1, 0, 2, TransferKind::kCopy, {}}};
  const OracleReport report = verify::check_broadcast(s, 0);
  EXPECT_TRUE(report.ok()) << report.result.summary();
  EXPECT_TRUE(report.provenance_checked);
}

// A ranged transfer writes [offset, offset + count) and nothing else.
TEST(VerifyOracle, RangedTransferTouchesOnlyRange) {
  coll::Schedule s("manual", 2, 4);
  s.add_step().transfers = {Transfer{0, 1, 1, 2, TransferKind::kCopy, {}}};
  EXPECT_EQ(findings_of(verify::check_broadcast(s, 0)),
            (Findings{"oracle.broadcast.numeric: node 1 element 0",
                      "oracle.broadcast.provenance: node 1 element 0 holds 0 "
                      "contribution(s) of node 0, want 1"}));
  // Filling element 0 leaves element 3 as the first one still node 1's.
  s.add_step().transfers = {Transfer{0, 1, 0, 1, TransferKind::kCopy, {}}};
  EXPECT_EQ(findings_of(verify::check_broadcast(s, 0)),
            (Findings{"oracle.broadcast.numeric: node 1 element 3",
                      "oracle.broadcast.provenance: node 1 element 3 holds 0 "
                      "contribution(s) of node 0, want 1"}));
  s.add_step().transfers = {Transfer{0, 1, 3, 1, TransferKind::kCopy, {}}};
  EXPECT_TRUE(verify::check_broadcast(s, 0).ok());
}

// 0 -> 1 and 1 -> 0 in one step: each node adds the other's value from
// before the step, so both end with x0 + x1 (recursive doubling relies on
// this). Applied one after the other, node 1 would hold x1 twice.
TEST(VerifyOracle, SnapshotSemanticsForConcurrentExchange) {
  coll::Schedule s("manual", 2, 1);
  s.add_step().transfers = {Transfer{0, 1, 0, 1, TransferKind::kReduce, {}},
                            Transfer{1, 0, 0, 1, TransferKind::kReduce, {}}};
  const OracleReport report = verify::check_allreduce(s);
  EXPECT_TRUE(report.ok()) << report.result.summary();
  EXPECT_TRUE(report.provenance_checked);
}

// A step reads what the step before it wrote: node 2 ends with 0 + 1 + 2.
TEST(VerifyOracle, SnapshotAcrossStepsIsSequential) {
  coll::Schedule s("manual", 3, 1);
  s.add_step().transfers = {Transfer{0, 1, 0, 1, TransferKind::kReduce, {}}};
  s.add_step().transfers = {Transfer{1, 2, 0, 1, TransferKind::kReduce, {}}};
  const OracleReport report = verify::check_reduce(s, 2);
  EXPECT_TRUE(report.ok()) << report.result.summary();
}

// 0 -> 1 and 1 -> 2 in one step: node 2 gets node 1's value from before
// the step, so node 0's contribution does not reach it.
TEST(VerifyOracle, ChainInOneStepUsesSnapshots) {
  coll::Schedule s("manual", 3, 1);
  s.add_step().transfers = {Transfer{0, 1, 0, 1, TransferKind::kReduce, {}},
                            Transfer{1, 2, 0, 1, TransferKind::kReduce, {}}};
  EXPECT_EQ(findings_of(verify::check_reduce(s, 2)),
            (Findings{"oracle.reduce.numeric: node 2 element 0",
                      "oracle.reduce.provenance: node 2 element 0 holds 0 "
                      "contribution(s) of node 0, want 1"}));
}

TEST(VerifyOracle, EmptyScheduleIsNotAnAllreduce) {
  const coll::Schedule s("broken", 3, 4);
  const OracleReport report = verify::check_allreduce(s);
  EXPECT_FALSE(report.ok());
  // A numeric and a provenance finding for each of the three nodes.
  EXPECT_EQ(report.result.findings().size(), 6u);
}

// Gathering into node 1 is a reduce to node 1, not an all-reduce.
TEST(VerifyOracle, DetectsPartialAllreduce) {
  coll::Schedule s("partial", 3, 2);
  s.add_step().transfers = {Transfer{0, 1, 0, 2, TransferKind::kReduce, {}},
                            Transfer{2, 1, 0, 2, TransferKind::kReduce, {}}};
  EXPECT_EQ(findings_of(verify::check_allreduce(s)),
            (Findings{"oracle.allreduce.numeric: node 0 element 0",
                      "oracle.allreduce.provenance: node 0 element 0 holds 0 "
                      "contribution(s) of node 1, want 1",
                      "oracle.allreduce.numeric: node 2 element 0",
                      "oracle.allreduce.provenance: node 2 element 0 holds 0 "
                      "contribution(s) of node 0, want 1"}));
  EXPECT_TRUE(verify::check_reduce(s, 1).ok());
}

TEST(VerifyOracle, ReduceAcceptsGatherAndRejectsWrongRoot) {
  coll::Schedule s("gather", 3, 4);
  s.add_step().transfers = {Transfer{1, 0, 0, 4, TransferKind::kReduce, {}},
                            Transfer{2, 0, 0, 4, TransferKind::kReduce, {}}};
  EXPECT_TRUE(verify::check_reduce(s, 0).ok());
  EXPECT_FALSE(verify::check_reduce(s, 1).ok());
  EXPECT_THROW(static_cast<void>(verify::check_reduce(s, 5)),
               InvalidArgument);
}

TEST(VerifyOracle, BroadcastAcceptsFanOutAndRejectsPartial) {
  coll::Schedule s("fanout", 3, 4);
  s.add_step().transfers = {Transfer{0, 1, 0, 4, TransferKind::kCopy, {}},
                            Transfer{0, 2, 0, 4, TransferKind::kCopy, {}}};
  EXPECT_TRUE(verify::check_broadcast(s, 0).ok());

  coll::Schedule partial("partial", 3, 4);
  partial.add_step().transfers = {
      Transfer{0, 1, 0, 4, TransferKind::kCopy, {}}};
  EXPECT_EQ(findings_of(verify::check_broadcast(partial, 0)),
            (Findings{"oracle.broadcast.numeric: node 2 element 0",
                      "oracle.broadcast.provenance: node 2 element 0 holds 0 "
                      "contribution(s) of node 0, want 1"}));
}

// Two nodes, four elements, two chunks: node 0 must end with the sum on
// elements 0-1 and node 1 on elements 2-3.
TEST(VerifyOracle, ReduceScatterRejectsWrongChunkOwner) {
  coll::Schedule good("good-rs", 2, 4);
  good.add_step().transfers = {
      Transfer{1, 0, 0, 2, TransferKind::kReduce, {}},
      Transfer{0, 1, 2, 2, TransferKind::kReduce, {}}};
  const OracleReport report = verify::check_reduce_scatter(good, 2);
  EXPECT_TRUE(report.ok()) << report.result.summary();
  EXPECT_TRUE(report.provenance_checked);

  // Each node gets the other's chunk summed instead of its own.
  coll::Schedule bad("bad-rs", 2, 4);
  bad.add_step().transfers = {Transfer{1, 0, 2, 2, TransferKind::kReduce, {}},
                              Transfer{0, 1, 0, 2, TransferKind::kReduce, {}}};
  EXPECT_EQ(findings_of(verify::check_reduce_scatter(bad, 2)),
            (Findings{"oracle.reduce_scatter.numeric: node 0 element 0",
                      "oracle.reduce_scatter.provenance: node 0 element 0 "
                      "holds 0 contribution(s) of node 1, want 1",
                      "oracle.reduce_scatter.numeric: node 1 element 2",
                      "oracle.reduce_scatter.provenance: node 1 element 2 "
                      "holds 0 contribution(s) of node 0, want 1"}));
  EXPECT_THROW(static_cast<void>(verify::check_reduce_scatter(good, 0)),
               InvalidArgument);
}

// Chunk 0 (elements 0-1) starts valid on node 0 and chunk 1 (elements 2-3)
// on node 1; both must end on both nodes.
TEST(VerifyOracle, AllgatherRejectsMissingChunk) {
  coll::Schedule good("good-ag", 2, 4);
  good.add_step().transfers = {Transfer{0, 1, 0, 2, TransferKind::kCopy, {}},
                               Transfer{1, 0, 2, 2, TransferKind::kCopy, {}}};
  const OracleReport report = verify::check_allgather(good, 2);
  EXPECT_TRUE(report.ok()) << report.result.summary();
  EXPECT_TRUE(report.provenance_checked);

  // Node 0 never receives node 1's chunk.
  coll::Schedule bad("bad-ag", 2, 4);
  bad.add_step().transfers = {Transfer{0, 1, 0, 2, TransferKind::kCopy, {}}};
  EXPECT_EQ(findings_of(verify::check_allgather(bad, 2)),
            (Findings{"oracle.allgather.numeric: node 0 element 2",
                      "oracle.allgather.provenance: node 0 element 2 holds 1 "
                      "contribution(s) of node 0, want 0"}));
  EXPECT_THROW(static_cast<void>(verify::check_allgather(good, 0)),
               InvalidArgument);
}

// Gather into node 0, then broadcast from it: a two-step all-reduce.
TEST(VerifyOracle, AcceptsHandWrittenAllreduce) {
  coll::Schedule s("manual", 3, 5);
  s.add_step().transfers = {Transfer{1, 0, 0, 5, TransferKind::kReduce, {}},
                            Transfer{2, 0, 0, 5, TransferKind::kReduce, {}}};
  s.add_step().transfers = {Transfer{0, 1, 0, 5, TransferKind::kCopy, {}},
                            Transfer{0, 2, 0, 5, TransferKind::kCopy, {}}};
  const OracleReport report = verify::check_allreduce(s);
  EXPECT_TRUE(report.ok()) << report.result.summary();
  EXPECT_TRUE(report.provenance_checked);
}

// --------------------------------------------- the reference interpreter
//
// The oracle interprets on flat row-major buffers and snapshots only the
// senders a step also writes. This is the interpreter it replaced: one
// vector per node and a per-step map of copied sender vectors. Every
// OracleReport must come out the same, bit for bit.

namespace reference {

struct Machine {
  std::uint32_t n = 0;
  std::size_t elements = 0;
  bool provenance = false;
  std::vector<std::vector<double>> values;
  std::vector<std::vector<std::uint32_t>> counts;
};

Machine boot(const coll::Schedule& schedule, const OracleOptions& options) {
  Machine m;
  m.n = schedule.num_nodes();
  m.elements = schedule.elements();
  const std::uint64_t cells = static_cast<std::uint64_t>(m.n) * m.n *
                              static_cast<std::uint64_t>(m.elements);
  m.provenance = cells <= options.provenance_cell_limit;
  Rng rng(options.seed);
  m.values.resize(m.n);
  if (m.provenance) m.counts.resize(m.n);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    m.values[i] = rng.uniform_vector(m.elements, -1.0, 1.0);
    if (m.provenance) {
      m.counts[i].assign(m.elements * m.n, 0);
      for (std::size_t e = 0; e < m.elements; ++e) m.counts[i][e * m.n + i] = 1;
    }
  }
  return m;
}

void interpret(const coll::Schedule& schedule, Machine& m) {
  for (const auto& step : schedule.steps()) {
    std::unordered_map<std::uint32_t, std::vector<double>> value_snap;
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> count_snap;
    for (const coll::Transfer& t : step.transfers) {
      value_snap.try_emplace(t.src, m.values[t.src]);
      if (m.provenance) count_snap.try_emplace(t.src, m.counts[t.src]);
    }
    for (const coll::Transfer& t : step.transfers) {
      const auto& src_v = value_snap.at(t.src);
      auto& dst_v = m.values[t.dst];
      if (t.kind == coll::TransferKind::kReduce) {
        for (std::size_t e = t.offset; e < t.offset + t.count; ++e) {
          dst_v[e] += src_v[e];
        }
      } else {
        for (std::size_t e = t.offset; e < t.offset + t.count; ++e) {
          dst_v[e] = src_v[e];
        }
      }
      if (m.provenance) {
        const auto& src_c = count_snap.at(t.src);
        auto& dst_c = m.counts[t.dst];
        const std::size_t lo = t.offset * m.n;
        const std::size_t hi = (t.offset + t.count) * m.n;
        if (t.kind == coll::TransferKind::kReduce) {
          for (std::size_t c = lo; c < hi; ++c) dst_c[c] += src_c[c];
        } else {
          std::memcpy(dst_c.data() + lo, src_c.data() + lo,
                      (hi - lo) * sizeof(std::uint32_t));
        }
      }
    }
  }
}

void compare_numeric(const Machine& m, std::uint32_t i,
                     const std::vector<double>& expected, double tolerance,
                     const char* what, OracleReport& report) {
  for (std::size_t e = 0; e < m.elements; ++e) {
    const double err = std::abs(m.values[i][e] - expected[e]);
    if (err > report.max_abs_error) {
      report.max_abs_error = err;
      report.worst_node = i;
      report.worst_element = e;
    }
    if (err > tolerance) {
      report.result.add(
          std::string("oracle.") + what + ".numeric",
          "node " + std::to_string(i) + " element " + std::to_string(e) +
              " off by " + std::to_string(err));
      return;
    }
  }
}

void compare_provenance(const Machine& m, std::uint32_t i,
                        const std::vector<std::uint32_t>& want,
                        const char* what, OracleReport& report) {
  for (std::size_t e = 0; e < m.elements; ++e) {
    for (std::uint32_t src = 0; src < m.n; ++src) {
      const std::uint32_t got = m.counts[i][e * m.n + src];
      if (got != want[src]) {
        report.result.add(
            std::string("oracle.") + what + ".provenance",
            "node " + std::to_string(i) + " element " + std::to_string(e) +
                " holds " + std::to_string(got) + " contribution(s) of node " +
                std::to_string(src) + ", want " + std::to_string(want[src]));
        return;
      }
    }
  }
}

std::vector<double> global_sum(const Machine& m) {
  std::vector<double> expected(m.elements, 0.0);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    for (std::size_t e = 0; e < m.elements; ++e) expected[e] += m.values[i][e];
  }
  return expected;
}

}  // namespace reference

OracleReport reference_check_allreduce(const coll::Schedule& schedule,
                                       const OracleOptions& options) {
  schedule.validate();
  reference::Machine m = reference::boot(schedule, options);
  const std::vector<double> expected = reference::global_sum(m);
  reference::interpret(schedule, m);
  OracleReport report;
  report.provenance_checked = m.provenance;
  const std::vector<std::uint32_t> one_of_each(m.n, 1);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    reference::compare_numeric(m, i, expected, options.tolerance, "allreduce",
                               report);
    if (m.provenance) {
      reference::compare_provenance(m, i, one_of_each, "allreduce", report);
    }
  }
  return report;
}

OracleReport reference_check_reduce(const coll::Schedule& schedule,
                                    std::uint32_t root,
                                    const OracleOptions& options) {
  schedule.validate();
  reference::Machine m = reference::boot(schedule, options);
  const std::vector<double> expected = reference::global_sum(m);
  reference::interpret(schedule, m);
  OracleReport report;
  report.provenance_checked = m.provenance;
  reference::compare_numeric(m, root, expected, options.tolerance, "reduce",
                             report);
  if (m.provenance) {
    const std::vector<std::uint32_t> one_of_each(m.n, 1);
    reference::compare_provenance(m, root, one_of_each, "reduce", report);
  }
  return report;
}

OracleReport reference_check_broadcast(const coll::Schedule& schedule,
                                       std::uint32_t root,
                                       const OracleOptions& options) {
  schedule.validate();
  reference::Machine m = reference::boot(schedule, options);
  const std::vector<double> expected = m.values[root];
  reference::interpret(schedule, m);
  OracleReport report;
  report.provenance_checked = m.provenance;
  std::vector<std::uint32_t> roots_only(m.n, 0);
  roots_only[root] = 1;
  for (std::uint32_t i = 0; i < m.n; ++i) {
    reference::compare_numeric(m, i, expected, options.tolerance, "broadcast",
                               report);
    if (m.provenance) {
      reference::compare_provenance(m, i, roots_only, "broadcast", report);
    }
  }
  return report;
}

// The chunked checks, element by element: every element of a node is
// either checked or not, and a checked one has a value and contribution
// counts it must hold.
namespace reference {

/// Owner of every element: chunk c < min(chunks, N) of `chunks` balanced
/// chunks belongs to node c; elements past the last owned chunk have none.
std::vector<std::optional<std::uint32_t>> chunk_owners(const Machine& m,
                                                       std::size_t chunks) {
  std::vector<std::optional<std::uint32_t>> owner(m.elements);
  for (std::uint32_t c = 0; c < chunks && c < m.n; ++c) {
    const coll::ChunkRange r = coll::chunk_range(m.elements, chunks, c);
    for (std::size_t e = r.offset; e < r.offset + r.count; ++e) owner[e] = c;
  }
  return owner;
}

/// Node `i` at the elements `checked(e)` selects: one numeric finding at
/// the first value off `value(e)`, then one provenance finding at the
/// first count off `want(e, src)`.
template <typename Checked, typename Value, typename Want>
void compare_elements(const Machine& m, std::uint32_t i, const char* what,
                      double tolerance, OracleReport& report,
                      Checked checked, Value value, Want want) {
  for (std::size_t e = 0; e < m.elements; ++e) {
    if (!checked(e)) continue;
    const double err = std::abs(m.values[i][e] - value(e));
    if (err > report.max_abs_error) {
      report.max_abs_error = err;
      report.worst_node = i;
      report.worst_element = e;
    }
    if (err > tolerance) {
      report.result.add(std::string("oracle.") + what + ".numeric",
                        "node " + std::to_string(i) + " element " +
                            std::to_string(e) + " off by " +
                            std::to_string(err));
      break;
    }
  }
  if (!m.provenance) return;
  for (std::size_t e = 0; e < m.elements; ++e) {
    if (!checked(e)) continue;
    for (std::uint32_t src = 0; src < m.n; ++src) {
      const std::uint32_t got = m.counts[i][e * m.n + src];
      const std::uint32_t expected = want(e, src);
      if (got != expected) {
        report.result.add(
            std::string("oracle.") + what + ".provenance",
            "node " + std::to_string(i) + " element " + std::to_string(e) +
                " holds " + std::to_string(got) + " contribution(s) of node " +
                std::to_string(src) + ", want " + std::to_string(expected));
        return;
      }
    }
  }
}

}  // namespace reference

OracleReport reference_check_reduce_scatter(const coll::Schedule& schedule,
                                            std::size_t chunks,
                                            const OracleOptions& options) {
  schedule.validate();
  reference::Machine m = reference::boot(schedule, options);
  const std::vector<double> sum = reference::global_sum(m);
  const auto owner = reference::chunk_owners(m, chunks);
  reference::interpret(schedule, m);
  OracleReport report;
  report.provenance_checked = m.provenance;
  for (std::uint32_t i = 0; i < m.n; ++i) {
    reference::compare_elements(
        m, i, "reduce_scatter", options.tolerance, report,
        [&](std::size_t e) { return owner[e] == i; },
        [&](std::size_t e) { return sum[e]; },
        [](std::size_t, std::uint32_t) { return 1u; });
  }
  return report;
}

OracleReport reference_check_allgather(const coll::Schedule& schedule,
                                       std::size_t chunks,
                                       const OracleOptions& options) {
  schedule.validate();
  reference::Machine m = reference::boot(schedule, options);
  const std::vector<std::vector<double>> initial = m.values;
  const auto owner = reference::chunk_owners(m, chunks);
  reference::interpret(schedule, m);
  OracleReport report;
  report.provenance_checked = m.provenance;
  for (std::uint32_t i = 0; i < m.n; ++i) {
    reference::compare_elements(
        m, i, "allgather", options.tolerance, report,
        [&](std::size_t e) { return owner[e].has_value(); },
        [&](std::size_t e) { return initial[*owner[e]][e]; },
        [&](std::size_t e, std::uint32_t src) {
          return src == *owner[e] ? 1u : 0u;
        });
  }
  return report;
}

/// Every OracleReport field, max_abs_error bit for bit.
void expect_same_report(const OracleReport& want, const OracleReport& got,
                        const std::string& where) {
  const auto& a = want.result.findings();
  const auto& b = got.result.findings();
  ASSERT_EQ(a.size(), b.size()) << where << "\nwant:\n"
                                << want.result.summary() << "\ngot:\n"
                                << got.result.summary();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].check, b[i].check) << where << " finding " << i;
    EXPECT_EQ(a[i].detail, b[i].detail) << where << " finding " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.max_abs_error),
            std::bit_cast<std::uint64_t>(got.max_abs_error))
      << where << ": " << want.max_abs_error << " vs " << got.max_abs_error;
  EXPECT_EQ(want.worst_node, got.worst_node) << where;
  EXPECT_EQ(want.worst_element, got.worst_element) << where;
  EXPECT_EQ(want.provenance_checked, got.provenance_checked) << where;
}

/// All three checks on one schedule, with provenance on (the default cap)
/// and forced off. Returns how many of the reports found a violation.
std::size_t expect_same_reports(const coll::Schedule& schedule,
                                std::uint32_t root, const std::string& where) {
  std::size_t failing = 0;
  for (const bool provenance : {true, false}) {
    OracleOptions options;
    if (!provenance) options.provenance_cell_limit = 0;
    const std::string at =
        where + (provenance ? " provenance" : " numeric-only");
    const OracleReport allreduce = verify::check_allreduce(schedule, options);
    expect_same_report(reference_check_allreduce(schedule, options), allreduce,
                       at + " allreduce");
    const OracleReport reduce = verify::check_reduce(schedule, root, options);
    expect_same_report(reference_check_reduce(schedule, root, options), reduce,
                       at + " reduce");
    const OracleReport broadcast =
        verify::check_broadcast(schedule, root, options);
    expect_same_report(reference_check_broadcast(schedule, root, options),
                       broadcast, at + " broadcast");
    failing += !allreduce.ok() + !reduce.ok() + !broadcast.ok();
  }
  return failing;
}

TEST(OracleReference, EveryRegisteredAlgorithmMatches) {
  core::register_wrht_algorithm();
  auto& registry = coll::Registry::instance();
  std::size_t schedules = 0;
  std::size_t failing = 0;
  for (const std::string& name : registry.names()) {
    for (std::uint32_t n = 2; n <= 40; ++n) {
      for (const std::size_t elements :
           {std::size_t{1}, std::size_t{n}, std::size_t{n} + 3}) {
        coll::AllreduceParams params;
        params.num_nodes = n;
        params.elements = elements;
        params.group_size = 4;
        params.wavelengths = 64;
        std::optional<coll::Schedule> schedule;
        try {
          schedule.emplace(registry.build(name, params));
        } catch (const InvalidArgument&) {
          continue;  // e.g. chunked builders need elements >= N
        }
        failing += expect_same_reports(
            *schedule, n / 2,
            name + " N=" + std::to_string(n) +
                " elements=" + std::to_string(elements));
        ++schedules;
      }
    }
  }
  // Six algorithms; ring, hring and halving-doubling skip elements = 1.
  EXPECT_GE(schedules, 6u * 39u * 2u);
  // Broadcast (and reduce for most roots) is wrong for an all-reduce, so
  // the grid compares findings, not just clean reports.
  EXPECT_GT(failing, 0u);
}

/// Copies `src` and applies one seeded corruption to one transfer:
/// drop it, duplicate it, retarget it or flip its kind.
coll::Schedule corrupt(const coll::Schedule& src, Rng& rng, std::string& what) {
  std::vector<std::size_t> nonempty;
  for (std::size_t s = 0; s < src.num_steps(); ++s) {
    if (!src.steps()[s].transfers.empty()) nonempty.push_back(s);
  }
  const std::size_t target_step =
      nonempty[rng.uniform_int(0, nonempty.size() - 1)];
  const std::size_t target = rng.uniform_int(
      0, src.steps()[target_step].transfers.size() - 1);
  const auto kind = rng.uniform_int(0, 3);
  coll::Schedule out(src.algorithm(), src.num_nodes(), src.elements());
  for (std::size_t s = 0; s < src.num_steps(); ++s) {
    coll::Step& step = out.add_step(src.steps()[s].label);
    step.transfers = src.steps()[s].transfers;
    if (s != target_step) continue;
    coll::Transfer& t = step.transfers[target];
    switch (kind) {
      case 0:
        step.transfers.erase(step.transfers.begin() +
                             static_cast<std::ptrdiff_t>(target));
        what = "drop";
        break;
      case 1:
        step.transfers.push_back(t);
        what = "duplicate";
        break;
      case 2: {
        // Any node but the sender and the current receiver.
        auto dst = static_cast<coll::NodeId>(
            rng.uniform_int(0, src.num_nodes() - 1));
        while (dst == t.src || dst == t.dst) {
          dst = (dst + 1) % src.num_nodes();
        }
        t.dst = dst;
        what = "retarget";
        break;
      }
      default:
        t.kind = t.kind == coll::TransferKind::kReduce
                     ? coll::TransferKind::kCopy
                     : coll::TransferKind::kReduce;
        what = "flip kind";
        break;
    }
    what += " step " + std::to_string(s) + " transfer " +
            std::to_string(target);
  }
  return out;
}

TEST(OracleReference, SeededCorruptionsMatch) {
  core::register_wrht_algorithm();
  auto& registry = coll::Registry::instance();
  Rng rng(20231022);
  std::size_t corrupted = 0;
  std::size_t caught = 0;
  for (const std::string& name : registry.names()) {
    for (const std::uint32_t n : {3u, 5u, 8u, 13u, 24u}) {
      coll::AllreduceParams params;
      params.num_nodes = n;
      params.elements = n + 3;
      params.group_size = 4;
      params.wavelengths = 64;
      const coll::Schedule good = registry.build(name, params);
      for (int k = 0; k < 6; ++k) {
        std::string what;
        const coll::Schedule bad = corrupt(good, rng, what);
        const std::string where =
            name + " N=" + std::to_string(n) + " " + what;
        for (const bool provenance : {true, false}) {
          OracleOptions options;
          if (!provenance) options.provenance_cell_limit = 0;
          const OracleReport got = verify::check_allreduce(bad, options);
          expect_same_report(reference_check_allreduce(bad, options), got,
                             where + (provenance ? "" : " numeric-only"));
          caught += !got.ok();
        }
        ++corrupted;
      }
    }
  }
  EXPECT_EQ(corrupted, 6u * 5u * 6u);
  // Nearly every corruption breaks the all-reduce (a duplicated copy can
  // be harmless), and the reports then carry findings to compare.
  EXPECT_GT(caught, corrupted);
}

// Nodes that send and receive in the same step must be read as they were
// when the step began; a sender the step does not write may be read live.
TEST(OracleReference, NodeThatSendsAndReceivesInOneStep) {
  using coll::Transfer;
  using coll::TransferKind;
  // Two nodes swap-reduce in one step. Read at the start of the step, both
  // end with x0 + x1; a live read of node 1 after 0 -> 1 has landed would
  // give node 0 x0 twice.
  coll::Schedule swap("swap", 2, 3);
  swap.add_step("swap").transfers = {
      Transfer{0, 1, 0, 3, TransferKind::kReduce, {}},
      Transfer{1, 0, 0, 3, TransferKind::kReduce, {}}};
  const OracleReport swapped = verify::check_allreduce(swap);
  EXPECT_TRUE(swapped.ok()) << swapped.result.summary();
  EXPECT_TRUE(swapped.provenance_checked);
  expect_same_reports(swap, 0, "swap");

  // 0 -> 1 -> 2 -> 0 is a cycle in which every node both sends and
  // receives, nodes 1 and 3 send twice, and node 3 only sends.
  coll::Schedule mixed("mixed", 4, 6);
  mixed.add_step("cycle").transfers = {
      Transfer{0, 1, 0, 6, TransferKind::kReduce, {}},
      Transfer{1, 2, 0, 3, TransferKind::kReduce, {}},
      Transfer{2, 0, 2, 4, TransferKind::kCopy, {}},
      Transfer{1, 0, 3, 3, TransferKind::kReduce, {}},
      Transfer{3, 2, 3, 3, TransferKind::kCopy, {}},
      Transfer{3, 1, 0, 2, TransferKind::kReduce, {}}};
  mixed.add_step("back").transfers = {
      Transfer{2, 3, 0, 6, TransferKind::kCopy, {}},
      Transfer{3, 2, 0, 6, TransferKind::kReduce, {}}};
  for (std::uint32_t root = 0; root < 4; ++root) {
    expect_same_reports(mixed, root, "mixed root " + std::to_string(root));
  }
}

/// Both chunked checks on one schedule at `chunks`, with provenance on and
/// forced off. Returns how many of the reports found a violation.
std::size_t expect_same_chunked_reports(const coll::Schedule& schedule,
                                        std::size_t chunks,
                                        const std::string& where) {
  std::size_t failing = 0;
  for (const bool provenance : {true, false}) {
    OracleOptions options;
    if (!provenance) options.provenance_cell_limit = 0;
    const std::string at = where + " chunks=" + std::to_string(chunks) +
                           (provenance ? " provenance" : " numeric-only");
    const OracleReport scatter =
        verify::check_reduce_scatter(schedule, chunks, options);
    expect_same_report(
        reference_check_reduce_scatter(schedule, chunks, options), scatter,
        at + " reduce_scatter");
    const OracleReport gather =
        verify::check_allgather(schedule, chunks, options);
    expect_same_report(reference_check_allgather(schedule, chunks, options),
                       gather, at + " allgather");
    failing += !scatter.ok() + !gather.ok();
  }
  return failing;
}

TEST(OracleReference, RingPrimitivesMatchChunkedChecks) {
  std::size_t failing = 0;
  for (std::uint32_t n = 2; n <= 40; ++n) {
    for (const std::size_t elements : {std::size_t{n}, std::size_t{n} + 3}) {
      const std::string shape =
          " N=" + std::to_string(n) + " elements=" + std::to_string(elements);
      const coll::Schedule scatter = coll::ring_reduce_scatter(n, elements);
      const coll::Schedule gather = coll::ring_allgather(n, elements);
      EXPECT_TRUE(verify::check_reduce_scatter(scatter, n).ok()) << shape;
      EXPECT_TRUE(verify::check_allgather(gather, n).ok()) << shape;
      for (const std::size_t chunks : {std::size_t{n} - 1, std::size_t{n},
                                       std::size_t{n} + 2}) {
        failing += expect_same_chunked_reports(scatter, chunks,
                                               "ring_reduce_scatter" + shape);
        failing += expect_same_chunked_reports(gather, chunks,
                                               "ring_allgather" + shape);
      }
    }
  }
  // A reduce-scatter is no all-gather and the other way round, so the grid
  // compares findings, not just clean reports.
  EXPECT_GT(failing, 0u);
}

TEST(OracleReference, ChunkedChecksMatchOnSeededCorruptions) {
  Rng rng(20261018);
  std::size_t corrupted = 0;
  std::size_t caught = 0;
  for (const std::uint32_t n : {3u, 5u, 8u, 13u, 24u}) {
    const coll::Schedule scatter = coll::ring_reduce_scatter(n, n + 3);
    const coll::Schedule gather = coll::ring_allgather(n, n + 3);
    for (int k = 0; k < 6; ++k) {
      std::string what;
      const coll::Schedule bad_scatter = corrupt(scatter, rng, what);
      const std::string scatter_where = "ring_reduce_scatter N=" +
                                        std::to_string(n) + " " + what;
      const coll::Schedule bad_gather = corrupt(gather, rng, what);
      const std::string gather_where =
          "ring_allgather N=" + std::to_string(n) + " " + what;
      expect_same_chunked_reports(bad_scatter, n, scatter_where);
      expect_same_chunked_reports(bad_gather, n, gather_where);
      caught += !verify::check_reduce_scatter(bad_scatter, n).ok();
      caught += !verify::check_allgather(bad_gather, n).ok();
      corrupted += 2;
    }
  }
  EXPECT_EQ(corrupted, 2u * 5u * 6u);
  // Most corruptions break their collective (49 of the 60 here: a
  // duplicated copy can be harmless, and so can a retargeted send whose
  // chunk is overwritten later), and the reports then carry findings to
  // compare.
  EXPECT_GE(caught, 3 * corrupted / 4);
}

}  // namespace
}  // namespace wrht
