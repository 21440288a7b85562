#include "wrht/verify/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/prof/prof.hpp"

namespace wrht::verify {

namespace {

using coll::Schedule;
using coll::Transfer;
using coll::TransferKind;

/// Interpreter state on flat row-major buffers: node i's values are
/// values[i * elements + e], and when provenance is on its counts are a
/// [elements][num_nodes] block, counts[(i * elements + e) * n + src] = how
/// many copies of src's initial element e node i currently holds.
struct Machine {
  std::uint32_t n = 0;
  std::size_t elements = 0;
  bool provenance = false;
  std::vector<double> values;
  std::vector<std::uint32_t> counts;

  [[nodiscard]] std::size_t count_row_size() const { return elements * n; }
  [[nodiscard]] double* value_row(std::uint32_t i) {
    return values.data() + i * elements;
  }
  [[nodiscard]] const double* value_row(std::uint32_t i) const {
    return values.data() + i * elements;
  }
  [[nodiscard]] std::uint32_t* count_row(std::uint32_t i) {
    return counts.data() + i * count_row_size();
  }
  [[nodiscard]] const std::uint32_t* count_row(std::uint32_t i) const {
    return counts.data() + i * count_row_size();
  }
};

Machine boot(const Schedule& schedule, const OracleOptions& options) {
  Machine m;
  m.n = schedule.num_nodes();
  m.elements = schedule.elements();
  const std::uint64_t cells = static_cast<std::uint64_t>(m.n) * m.n *
                              static_cast<std::uint64_t>(m.elements);
  m.provenance = cells <= options.provenance_cell_limit;

  // Node by node, element by element: the draw order of one
  // Rng::uniform_vector per node.
  Rng rng(options.seed);
  m.values.reserve(m.n * m.elements);
  for (std::size_t c = 0; c < m.n * m.elements; ++c) {
    m.values.push_back(rng.uniform_real(-1.0, 1.0));
  }
  if (m.provenance) {
    m.counts.assign(m.n * m.count_row_size(), 0);
    for (std::uint32_t i = 0; i < m.n; ++i) {
      for (std::size_t e = 0; e < m.elements; ++e) {
        m.count_row(i)[e * m.n + i] = 1;
      }
    }
  }
  return m;
}

/// Runs the schedule with snapshot-per-step semantics: every sender is read
/// as it was at the beginning of its step, so the transfer order inside a
/// step cannot matter — exactly the concurrency model the lightpath
/// hardware implements. A sender the step does not write is read live;
/// only the senders the same step also writes are copied first.
void interpret(const Schedule& schedule, Machine& m) {
  /// Per-node step stamps: `written` is the last step that writes the
  /// node, `snapped` the last step that copied it into `slot` of the
  /// snapshot buffers.
  struct Mark {
    std::uint32_t written = 0;
    std::uint32_t snapped = 0;
    std::uint32_t slot = 0;
  };
  std::vector<Mark> marks(m.n);
  std::vector<double> value_snap;
  std::vector<std::uint32_t> count_snap;
  const std::size_t count_row = m.count_row_size();
  std::uint32_t stamp = 0;
  for (const auto& step : schedule.steps()) {
    ++stamp;
    for (const Transfer& t : step.transfers) marks[t.dst].written = stamp;
    value_snap.clear();
    count_snap.clear();
    std::uint32_t slots = 0;
    for (const Transfer& t : step.transfers) {
      Mark& mark = marks[t.src];
      if (mark.written != stamp || mark.snapped == stamp) continue;
      mark.snapped = stamp;
      mark.slot = slots++;
      const double* row = m.value_row(t.src);
      value_snap.insert(value_snap.end(), row, row + m.elements);
      if (m.provenance) {
        const std::uint32_t* counts = m.count_row(t.src);
        count_snap.insert(count_snap.end(), counts, counts + count_row);
      }
    }

    for (const Transfer& t : step.transfers) {
      const Mark& mark = marks[t.src];
      const bool snapped = mark.snapped == stamp;
      const double* src_v = snapped
                                ? value_snap.data() + mark.slot * m.elements
                                : m.value_row(t.src);
      double* dst_v = m.value_row(t.dst);
      const std::size_t end = t.offset + t.count;
      if (t.kind == TransferKind::kReduce) {
        for (std::size_t e = t.offset; e < end; ++e) dst_v[e] += src_v[e];
      } else {
        std::memcpy(dst_v + t.offset, src_v + t.offset,
                    t.count * sizeof(double));
      }
      if (m.provenance) {
        const std::uint32_t* src_c =
            snapped ? count_snap.data() + mark.slot * count_row
                    : m.count_row(t.src);
        std::uint32_t* dst_c = m.count_row(t.dst);
        const std::size_t lo = t.offset * m.n;
        const std::size_t hi = end * m.n;
        if (t.kind == TransferKind::kReduce) {
          for (std::size_t c = lo; c < hi; ++c) dst_c[c] += src_c[c];
        } else {
          std::memcpy(dst_c + lo, src_c + lo,
                      (hi - lo) * sizeof(std::uint32_t));
        }
      }
    }
  }
}

/// Numeric comparison of node `i`'s elements [lo, hi) against `expected`.
void compare_numeric(const Machine& m, std::uint32_t i, std::size_t lo,
                     std::size_t hi, const std::vector<double>& expected,
                     double tolerance, const char* what,
                     OracleReport& report) {
  for (std::size_t e = lo; e < hi; ++e) {
    const double err = std::abs(m.value_row(i)[e] - expected[e]);
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
      return;  // one numeric finding per node is enough
    }
  }
}

/// Exact provenance comparison: node `i` must hold `want[src]` copies of
/// every source's contribution at every element of [lo, hi). Returns
/// whether it added a finding.
bool compare_provenance(const Machine& m, std::uint32_t i, std::size_t lo,
                        std::size_t hi, const std::vector<std::uint32_t>& want,
                        const char* what, OracleReport& report) {
  for (std::size_t e = lo; e < hi; ++e) {
    for (std::uint32_t src = 0; src < m.n; ++src) {
      const std::uint32_t got = m.count_row(i)[e * m.n + src];
      if (got != want[src]) {
        report.result.add(
            std::string("oracle.") + what + ".provenance",
            "node " + std::to_string(i) + " element " + std::to_string(e) +
                " holds " + std::to_string(got) + " contribution(s) of node " +
                std::to_string(src) + ", want " + std::to_string(want[src]));
        return true;  // one provenance finding per node is enough
      }
    }
  }
  return false;
}

/// Element-wise sum of every node's initial values.
std::vector<double> global_sum(const Machine& m) {
  std::vector<double> expected(m.elements, 0.0);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    const double* row = m.value_row(i);
    for (std::size_t e = 0; e < m.elements; ++e) expected[e] += row[e];
  }
  return expected;
}

}  // namespace

OracleReport check_allreduce(const coll::Schedule& schedule,
                             const OracleOptions& options) {
  const prof::ScopedTimer timer("verify.oracle.check");
  schedule.validate();
  Machine m = boot(schedule, options);
  const std::vector<double> expected = global_sum(m);
  interpret(schedule, m);

  OracleReport report;
  report.provenance_checked = m.provenance;
  const std::vector<std::uint32_t> one_of_each(m.n, 1);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    compare_numeric(m, i, 0, m.elements, expected, options.tolerance,
                    "allreduce", report);
    if (m.provenance) {
      compare_provenance(m, i, 0, m.elements, one_of_each, "allreduce",
                         report);
    }
  }
  return report;
}

OracleReport check_reduce(const coll::Schedule& schedule, std::uint32_t root,
                          const OracleOptions& options) {
  schedule.validate();
  require(root < schedule.num_nodes(), "check_reduce: root out of range");
  Machine m = boot(schedule, options);
  const std::vector<double> expected = global_sum(m);
  interpret(schedule, m);

  OracleReport report;
  report.provenance_checked = m.provenance;
  compare_numeric(m, root, 0, m.elements, expected, options.tolerance,
                  "reduce", report);
  if (m.provenance) {
    const std::vector<std::uint32_t> one_of_each(m.n, 1);
    compare_provenance(m, root, 0, m.elements, one_of_each, "reduce", report);
  }
  return report;
}

OracleReport check_broadcast(const coll::Schedule& schedule,
                             std::uint32_t root,
                             const OracleOptions& options) {
  schedule.validate();
  require(root < schedule.num_nodes(), "check_broadcast: root out of range");
  Machine m = boot(schedule, options);
  const std::vector<double> expected(m.value_row(root),
                                     m.value_row(root) + m.elements);
  interpret(schedule, m);

  OracleReport report;
  report.provenance_checked = m.provenance;
  std::vector<std::uint32_t> roots_only(m.n, 0);
  roots_only[root] = 1;
  for (std::uint32_t i = 0; i < m.n; ++i) {
    compare_numeric(m, i, 0, m.elements, expected, options.tolerance,
                    "broadcast", report);
    if (m.provenance) {
      compare_provenance(m, i, 0, m.elements, roots_only, "broadcast",
                         report);
    }
  }
  return report;
}

OracleReport check_reduce_scatter(const coll::Schedule& schedule,
                                  std::size_t chunks,
                                  const OracleOptions& options) {
  schedule.validate();
  require(chunks >= 1, "check_reduce_scatter: chunks must be >= 1");
  Machine m = boot(schedule, options);
  const std::vector<double> expected = global_sum(m);
  interpret(schedule, m);

  OracleReport report;
  report.provenance_checked = m.provenance;
  const std::vector<std::uint32_t> one_of_each(m.n, 1);
  for (std::uint32_t i = 0; i < chunks && i < m.n; ++i) {
    const coll::ChunkRange r = coll::chunk_range(m.elements, chunks, i);
    compare_numeric(m, i, r.offset, r.offset + r.count, expected,
                    options.tolerance, "reduce_scatter", report);
    if (m.provenance) {
      compare_provenance(m, i, r.offset, r.offset + r.count, one_of_each,
                         "reduce_scatter", report);
    }
  }
  return report;
}

OracleReport check_allgather(const coll::Schedule& schedule,
                             std::size_t chunks,
                             const OracleOptions& options) {
  schedule.validate();
  require(chunks >= 1, "check_allgather: chunks must be >= 1");
  Machine m = boot(schedule, options);
  // Chunk c is owned by node c and expected to hold node c's initial
  // values; the owned chunks tile [0, covered).
  const std::uint32_t owners =
      static_cast<std::uint32_t>(std::min<std::size_t>(chunks, m.n));
  std::vector<coll::ChunkRange> owned;
  owned.reserve(owners);
  std::vector<double> expected(m.elements, 0.0);
  for (std::uint32_t c = 0; c < owners; ++c) {
    const coll::ChunkRange r = coll::chunk_range(m.elements, chunks, c);
    std::memcpy(expected.data() + r.offset, m.value_row(c) + r.offset,
                r.count * sizeof(double));
    owned.push_back(r);
  }
  const std::size_t covered = owned.back().offset + owned.back().count;
  interpret(schedule, m);

  OracleReport report;
  report.provenance_checked = m.provenance;
  std::vector<std::uint32_t> owner_only(m.n, 0);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    compare_numeric(m, i, 0, covered, expected, options.tolerance,
                    "allgather", report);
    if (!m.provenance) continue;
    for (std::uint32_t c = 0; c < owners; ++c) {
      owner_only[c] = 1;
      const bool found = compare_provenance(
          m, i, owned[c].offset, owned[c].offset + owned[c].count,
          owner_only, "allgather", report);
      owner_only[c] = 0;
      if (found) break;  // one provenance finding per node is enough
    }
  }
  return report;
}

}  // namespace wrht::verify
