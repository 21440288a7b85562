// Ablation: First-Fit vs Random-Fit wavelength assignment (§4.1.2 cites
// both as options). Measures wavelengths consumed by WRHT's two hardest
// step patterns — the hierarchical grouping step and the final all-to-all
// exchange — under each policy, plus the resulting round splits when a
// tight wavelength budget forces starved steps into extra rounds. Each
// pattern runs as a single-step schedule through the optical-ring backend
// (one sweep per pattern, first-fit and random-fit as series; random-fit
// draws from the sweep's deterministic per-point seeds).
#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/core/wrht_schedule.hpp"

namespace {

using namespace wrht;

/// Wraps one step of a WRHT schedule as a standalone schedule so the
/// backend prices exactly that pattern.
coll::Schedule single_step(const std::string& name, std::uint32_t n,
                           const coll::Step& step) {
  coll::Schedule out(name, n, 4);
  out.add_step(step.label).transfers = step.transfers;
  return out;
}

/// Runs `pattern` under both policies for every budget and appends the
/// table/CSV rows.
void run_pattern(const std::string& table_label,
                 const std::string& csv_pattern, std::uint32_t n,
                 std::vector<std::uint32_t> budgets,
                 const coll::Schedule& pattern, Table& table,
                 CsvWriter& csv) {
  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{csv_pattern, 4}};
  spec.nodes = {n};
  spec.wavelengths = std::move(budgets);
  const auto builder = [pattern](const exp::SweepPoint&) { return pattern; };
  exp::Series first_fit;
  first_fit.name = "first_fit";
  first_fit.builder = builder;
  exp::Series random_fit = first_fit;
  random_fit.name = "random_fit";
  random_fit.configure = [](const exp::SweepPoint&, net::BackendConfig& c) {
    c.random_fit_rwa = true;
  };
  spec.series = {first_fit, random_fit};
  // Nested group lightpaths exceed the per-node MRR budget by design here;
  // the ablation measures RWA pressure, not hardware feasibility.
  spec.config.validate_node_capacity = false;
  const auto rows = bench::run_sweep(spec);

  for (const std::uint32_t budget : spec.wavelengths) {
    const StepReport& ff =
        bench::find_row(rows, csv_pattern, n, budget, "first_fit")
            .report.step_reports.front();
    const StepReport& rf =
        bench::find_row(rows, csv_pattern, n, budget, "random_fit")
            .report.step_reports.front();
    table.add_row({table_label, std::to_string(budget),
                   std::to_string(ff.wavelengths_used),
                   std::to_string(ff.rounds),
                   std::to_string(rf.wavelengths_used),
                   std::to_string(rf.rounds)});
    csv.add_row({csv_pattern, std::to_string(budget), "first_fit",
                 std::to_string(ff.wavelengths_used),
                 std::to_string(ff.rounds)});
    csv.add_row({csv_pattern, std::to_string(budget), "random_fit",
                 std::to_string(rf.wavelengths_used),
                 std::to_string(rf.rounds)});
  }
}

}  // namespace

int main() {
  using namespace wrht;
  std::printf(
      "=== Ablation: First-Fit vs Random-Fit RWA ===\n"
      "(wavelengths used and rounds needed for WRHT step patterns;\n"
      " first-fit packs nested group paths tighter, random-fit models\n"
      " uncoordinated assignment)\n\n");

  Table table({"Pattern", "Budget", "FirstFit lambdas", "FirstFit rounds",
               "RandomFit lambdas", "RandomFit rounds"});
  CsvWriter csv(bench::csv_path("ablation_rwa"),
                {"pattern", "budget", "policy", "lambdas", "rounds"});

  // Pattern A: one WRHT grouping step, N = 1024, m = 129 (8 groups).
  {
    const auto sched =
        core::wrht_allreduce(1024, 4, core::WrhtOptions{129, 64});
    run_pattern("group step m=129", "group", 1024, {64u, 96u},
                single_step("rwa-group", 1024, sched.steps()[0]), table, csv);
  }

  // Pattern B: the final all-to-all among k representatives.
  for (const std::uint32_t k : {8u, 16u, 32u}) {
    const std::uint32_t n = 32 * k;
    const auto sched = core::wrht_allreduce(
        n, 4, core::WrhtOptions{n / k >= 2 ? n / k + 1 : 2, 4096});
    // Find the all-to-all step (label set by the builder).
    const coll::Step* a2a = nullptr;
    for (const auto& step : sched.steps()) {
      if (step.label == "all-to-all exchange") a2a = &step;
    }
    if (a2a == nullptr) continue;
    const std::uint32_t bound =
        static_cast<std::uint32_t>(core::all_to_all_wavelengths(k));
    run_pattern("all-to-all k=" + std::to_string(k) + " (bound " +
                    std::to_string(bound) + ")",
                "a2a_k" + std::to_string(k), n, {bound, 2 * bound},
                single_step("rwa-a2a", n, *a2a), table, csv);
  }
  std::cout << table << "\n";
  std::printf(
      "First-fit never needs more rounds than random-fit: packing nested\n"
      "group lightpaths from the longest inward reuses low wavelengths.\n");
  std::printf("CSV written to %s\n", bench::csv_path("ablation_rwa").c_str());
  return 0;
}
