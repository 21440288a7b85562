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

}  // namespace
}  // namespace wrht
