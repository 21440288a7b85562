// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench binary regenerates one table or figure of the WRHT paper
// (ICPP 2023): it declares the paper's parameter grid as an
// exp::SweepSpec, runs it through exp::SweepRunner (parallel across grid
// points, WRHT_SWEEP_THREADS controls the pool), prints the series as an
// ASCII table (normalized exactly as the paper's figures are), writes a
// CSV next to the binary, and reports the headline "average reduction"
// aggregates the paper quotes in its text.
//
// WRHT_BENCH_TINY=1 shrinks every grid (small N, synthetic payload) so CI
// smoke jobs can validate the CSV schemas in seconds; the schema and the
// row structure are identical to the full run.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "wrht/common/csv.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/stats.hpp"
#include "wrht/common/table.hpp"
#include "wrht/dnn/zoo.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/run_report.hpp"

namespace wrht::bench {

/// Process-wide counter registry. Every sweep launched through run_sweep()
/// merges its per-run counters here (rounds, reconfiguration charges,
/// fair-share bottlenecks, events fired, ...); write_metrics_csv() dumps
/// it next to the figure CSV at the end of the bench. Thread-safe, so the
/// parallel sweep workers feed it directly.
inline obs::Counters& metrics() {
  static obs::Counters counters;
  return counters;
}

/// True when WRHT_BENCH_TINY is set: benches swap the paper's grids for
/// seconds-scale ones with the same CSV schema.
inline bool tiny() {
  const char* env = std::getenv("WRHT_BENCH_TINY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Runs `spec` through a SweepRunner with the process-wide metrics()
/// registry attached.
inline std::vector<exp::SweepRow> run_sweep(exp::SweepSpec spec) {
  spec.counters = &metrics();
  return exp::SweepRunner().run(spec);
}

/// The row at (workload, nodes, wavelengths, series); throws when the
/// sweep did not produce it.
inline const exp::SweepRow& find_row(const std::vector<exp::SweepRow>& rows,
                                     const std::string& workload,
                                     std::uint32_t nodes,
                                     std::uint32_t wavelengths,
                                     const std::string& series) {
  for (const exp::SweepRow& row : rows) {
    if (row.point.workload.name == workload && row.point.nodes == nodes &&
        row.point.wavelengths == wavelengths && row.point.series == series) {
      return row;
    }
  }
  throw InvalidArgument("bench: no sweep row for " + workload + "/N=" +
                        std::to_string(nodes) + "/w=" +
                        std::to_string(wavelengths) + "/" + series);
}

/// Communication time (s) of the row at (workload, nodes, wavelengths,
/// series).
inline double row_time(const std::vector<exp::SweepRow>& rows,
                       const std::string& workload, std::uint32_t nodes,
                       std::uint32_t wavelengths, const std::string& series) {
  return find_row(rows, workload, nodes, wavelengths, series)
      .report.total_time.count();
}

/// The paper's four DNN workloads (Table 3), or one synthetic payload in
/// tiny mode.
inline std::vector<exp::Workload> paper_or_tiny_workloads() {
  if (tiny()) return {exp::Workload{"tiny", 4096}};
  std::vector<exp::Workload> out;
  for (const auto& model : dnn::paper_workloads()) {
    out.push_back(exp::Workload{model.name(), model.parameter_count()});
  }
  return out;
}

/// Prints the paper-text aggregate: "X reduces communication time by P% on
/// average compared with Y".
inline void print_reduction(const std::string& ours_name,
                            const std::vector<double>& ours,
                            const std::string& baseline_name,
                            const std::vector<double>& baseline) {
  std::printf("  %s vs %-22s : %6.2f%% average communication-time reduction\n",
              ours_name.c_str(), baseline_name.c_str(),
              mean_reduction_percent(ours, baseline));
}

inline std::string csv_path(const std::string& bench_name) {
  return bench_name + ".csv";
}

/// Dumps the accumulated metrics() counters to `<bench>_metrics.csv`
/// alongside the figure CSV.
inline void write_metrics_csv(const std::string& bench_name) {
  const std::string path = bench_name + "_metrics.csv";
  metrics().write_csv(path);
  std::printf("metrics CSV written to %s\n", path.c_str());
}

}  // namespace wrht::bench
