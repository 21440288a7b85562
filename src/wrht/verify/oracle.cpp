#include "wrht/verify/oracle.hpp"

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

/// Numeric comparison of node `i`'s buffer against `expected`.
void compare_numeric(const Machine& m, std::uint32_t i,
                     const std::vector<double>& expected, double tolerance,
                     const char* what, OracleReport& report) {
  for (std::size_t e = 0; e < m.elements; ++e) {
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
/// every source's contribution at every element.
void compare_provenance(const Machine& m, std::uint32_t i,
                        const std::vector<std::uint32_t>& want,
                        const char* what, OracleReport& report) {
  for (std::size_t e = 0; e < m.elements; ++e) {
    for (std::uint32_t src = 0; src < m.n; ++src) {
      const std::uint32_t got = m.count_row(i)[e * m.n + src];
      if (got != want[src]) {
        report.result.add(
            std::string("oracle.") + what + ".provenance",
            "node " + std::to_string(i) + " element " + std::to_string(e) +
                " holds " + std::to_string(got) + " contribution(s) of node " +
                std::to_string(src) + ", want " + std::to_string(want[src]));
        return;  // one provenance finding per node is enough
      }
    }
  }
}

}  // namespace

OracleReport check_allreduce(const coll::Schedule& schedule,
                             const OracleOptions& options) {
  const prof::ScopedTimer timer("verify.oracle.check");
  schedule.validate();
  Machine m = boot(schedule, options);
  std::vector<double> expected(m.elements, 0.0);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    const double* row = m.value_row(i);
    for (std::size_t e = 0; e < m.elements; ++e) expected[e] += row[e];
  }
  interpret(schedule, m);

  OracleReport report;
  report.provenance_checked = m.provenance;
  const std::vector<std::uint32_t> one_of_each(m.n, 1);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    compare_numeric(m, i, expected, options.tolerance, "allreduce", report);
    if (m.provenance) {
      compare_provenance(m, i, one_of_each, "allreduce", report);
    }
  }
  return report;
}

OracleReport check_reduce(const coll::Schedule& schedule, std::uint32_t root,
                          const OracleOptions& options) {
  schedule.validate();
  require(root < schedule.num_nodes(), "check_reduce: root out of range");
  Machine m = boot(schedule, options);
  std::vector<double> expected(m.elements, 0.0);
  for (std::uint32_t i = 0; i < m.n; ++i) {
    const double* row = m.value_row(i);
    for (std::size_t e = 0; e < m.elements; ++e) expected[e] += row[e];
  }
  interpret(schedule, m);

  OracleReport report;
  report.provenance_checked = m.provenance;
  compare_numeric(m, root, expected, options.tolerance, "reduce", report);
  if (m.provenance) {
    const std::vector<std::uint32_t> one_of_each(m.n, 1);
    compare_provenance(m, root, one_of_each, "reduce", report);
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
    compare_numeric(m, i, expected, options.tolerance, "broadcast", report);
    if (m.provenance) {
      compare_provenance(m, i, roots_only, "broadcast", report);
    }
  }
  return report;
}

}  // namespace wrht::verify
