// Differential equivalence harness for the scale work: every fast-path
// introduced for the 10^5..10^6-node regime (arena-backed Schedule storage,
// incremental sweep-cache patching, batched parallel RWA, flat
// step-signature keys, pooled DES inner loops) must change *nothing* but
// speed. The reference path is pinned as: heap schedule storage
// (ScheduleStorageScope), ScheduleCacheMode::kOff, rwa_threads = 1,
// single sweep worker. The new path enables everything at once. Reports
// are compared as serialized JSON — byte-for-byte — and sweeps as rendered
// figure-style CSV text, across all four executing backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "wrht/collectives/registry.hpp"
#include "wrht/collectives/schedule.hpp"
#include "wrht/common/table.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/topo/torus.hpp"
#include "wrht/verify/overlap.hpp"

namespace wrht {
namespace {

std::string report_json(const RunReport& report) {
  std::ostringstream out;
  report.write_json(out);
  return out.str();
}

/// Figure-bench style CSV rendering of a sweep (same cell formatting the
/// bench_fig* binaries use), so "CSV rows identical" means the text a
/// paper figure is plotted from, not some looser numeric comparison.
std::string sweep_csv(const std::vector<exp::SweepRow>& rows) {
  std::ostringstream out;
  out << "workload,nodes,wavelengths,series,time_s,rounds,wavelengths_used\n";
  for (const exp::SweepRow& row : rows) {
    out << row.point.workload.name << ',' << row.point.nodes << ','
        << row.point.wavelengths << ',' << row.point.series << ','
        << Table::num(row.report.total_time.count(), 6) << ','
        << row.report.rounds << ',' << row.report.max_wavelengths_used()
        << '\n';
  }
  return out.str();
}

void expect_transfers_equal(const coll::TransferList& a,
                            const coll::TransferList& b,
                            const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src) << where << " transfer " << i;
    EXPECT_EQ(a[i].dst, b[i].dst) << where << " transfer " << i;
    EXPECT_EQ(a[i].offset, b[i].offset) << where << " transfer " << i;
    EXPECT_EQ(a[i].count, b[i].count) << where << " transfer " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << where << " transfer " << i;
    EXPECT_EQ(a[i].direction, b[i].direction) << where << " transfer " << i;
  }
}

void expect_schedules_equal(const coll::Schedule& a, const coll::Schedule& b,
                            const std::string& where) {
  EXPECT_EQ(a.algorithm(), b.algorithm()) << where;
  EXPECT_EQ(a.num_nodes(), b.num_nodes()) << where;
  EXPECT_EQ(a.elements(), b.elements()) << where;
  ASSERT_EQ(a.num_steps(), b.num_steps()) << where;
  for (std::size_t s = 0; s < a.num_steps(); ++s) {
    EXPECT_EQ(a.steps()[s].label, b.steps()[s].label) << where << " step "
                                                      << s;
    expect_transfers_equal(a.steps()[s].transfers, b.steps()[s].transfers,
                           where + " step " + std::to_string(s));
  }
}

void expect_deltas_equal(const coll::Schedule& a, const coll::Schedule& b,
                         const std::string& where) {
  EXPECT_EQ(coll::is_reconfig_free(a), coll::is_reconfig_free(b)) << where;
  const auto da = coll::reconfig_deltas(a);
  const auto db = coll::reconfig_deltas(b);
  ASSERT_EQ(da.size(), db.size()) << where;
  for (std::size_t s = 0; s < da.size(); ++s) {
    EXPECT_TRUE(da[s].added == db[s].added) << where << " step " << s;
    EXPECT_TRUE(da[s].removed == db[s].removed) << where << " step " << s;
    EXPECT_EQ(da[s].kept, db[s].kept) << where << " step " << s;
  }
}

/// The seeded grid every old-vs-new comparison runs over: three element
/// sizes (exercising the incremental cache's rescale tier on the
/// full-vector series), two node counts, two wavelength budgets, and six
/// series spanning all four executing backends plus random-fit RWA.
exp::SweepSpec grid_spec() {
  exp::ensure_initialized();
  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{"w1", 1024}, exp::Workload{"w2", 2048},
                    exp::Workload{"w3", 3072}};
  spec.nodes = {8, 16};
  spec.wavelengths = {4, 8};
  spec.series = {
      // Full-vector schedules on the optical ring: the incremental cache
      // serves w2/w3 by patching w1's build.
      exp::Series{.name = "wrht", .algorithm = "wrht"},
      exp::Series{.name = "btree", .algorithm = "btree"},
      // Chunked schedule: the cache must rebuild, never patch.
      exp::Series{.name = "ring_flow", .algorithm = "ring",
                  .backend = "electrical-flow"},
      exp::Series{.name = "wrht_packet", .algorithm = "wrht",
                  .backend = "electrical-packet"},
      // Random-fit RWA: the per-transfer Fisher-Yates rng draw sequence
      // must survive the first-fit fast-path split untouched.
      exp::Series{.name = "wrht_rf", .algorithm = "wrht",
                  .configure = [](const exp::SweepPoint&,
                                  net::BackendConfig& c) {
                    c.random_fit_rwa = true;
                  }},
      // Dimension-local torus WRHT through a custom builder (the cache's
      // always-rebuild tier for builder series).
      exp::Series{.name = "torus_wrht", .backend = "optical-torus",
                  .builder = [](const exp::SweepPoint& point) {
                    // The optical-torus factory's default shape, so the
                    // builder and the backend agree on the grid.
                    const auto [rows, cols] = topo::near_square(point.nodes);
                    core::WrhtOptions options;
                    options.wavelengths = point.wavelengths;
                    options.group_size =
                        core::plan_wrht(rows, point.wavelengths).group_size;
                    return core::torus_wrht_allreduce(
                        topo::Torus(rows, cols), point.workload.elements,
                        options);
                  }},
  };
  spec.config.validate_node_capacity = false;
  return spec;
}

/// The tentpole gate: reference path (heap storage, no cache, one RWA
/// worker, one sweep worker) versus everything-on (arena storage,
/// incremental cache, forced 4-way RWA batch, 3 sweep workers) across the
/// seeded grid — every RunReport must serialize to byte-identical JSON and
/// the figure CSV text must match exactly.
TEST(ScaleEquivalence, OldPathAndNewPathAreByteIdentical) {
  std::vector<exp::SweepRow> reference;
  {
    coll::ScheduleStorageScope heap(coll::ScheduleStorage::kHeap);
    exp::SweepSpec spec = grid_spec();
    spec.schedule_cache = exp::ScheduleCacheMode::kOff;
    spec.config.rwa_threads = 1;
    reference = exp::SweepRunner(1).run(spec);
  }

  obs::Counters counters;
  exp::SweepSpec spec = grid_spec();
  spec.schedule_cache = exp::ScheduleCacheMode::kIncremental;
  spec.config.rwa_threads = 4;
  spec.counters = &counters;
  const auto fast = exp::SweepRunner(3).run(spec);

  ASSERT_EQ(reference.size(), fast.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(report_json(reference[i].report), report_json(fast[i].report))
        << reference[i].point.series << " @ workload "
        << reference[i].point.workload.name << " N "
        << reference[i].point.nodes << " w " << reference[i].point.wavelengths;
  }
  EXPECT_EQ(sweep_csv(reference), sweep_csv(fast));

  // The fast path must actually have taken the fast path: the full-vector
  // series' extra element sizes are served by rescale patches.
  EXPECT_GT(counters.value("sweep.schedule.patches"), 0u);
  EXPECT_LT(counters.value("sweep.schedule.builds"),
            reference.size());
}

TEST(ScaleEquivalence, CacheModesProduceIdenticalCsvRows) {
  const auto render = [](exp::ScheduleCacheMode mode) {
    exp::SweepSpec spec = grid_spec();
    spec.schedule_cache = mode;
    return sweep_csv(exp::SweepRunner(1).run(spec));
  };
  EXPECT_EQ(render(exp::ScheduleCacheMode::kOff),
            render(exp::ScheduleCacheMode::kIncremental));
}

/// Batched first-fit RWA is a pure function of its input: any worker count
/// (including the sequential w=1 path) must produce byte-identical reports
/// on both optical engines.
TEST(ScaleEquivalence, RwaWorkerCountNeverChangesReports) {
  exp::ensure_initialized();
  const auto& registry = net::BackendRegistry::instance();

  core::WrhtOptions options;
  options.wavelengths = 8;
  options.group_size = core::plan_wrht(64, 8).group_size;
  const coll::Schedule ring_sched = core::wrht_allreduce(64, 4096, options);
  core::WrhtOptions row_options = options;
  row_options.group_size = core::plan_wrht(8, 8).group_size;
  const coll::Schedule torus_sched =
      core::torus_wrht_allreduce(topo::Torus(8, 8), 4096, row_options);

  for (const char* backend : {"optical-ring", "optical-torus"}) {
    const coll::Schedule& sched =
        backend == std::string("optical-ring") ? ring_sched : torus_sched;
    std::string baseline;
    for (const unsigned threads : {1u, 2u, 8u}) {
      net::BackendConfig config;
      config.num_nodes = 64;
      config.wavelengths = 8;
      config.validate_node_capacity = false;
      config.rwa_threads = threads;
      const std::string json =
          report_json(registry.create(backend, config)->execute(sched));
      if (baseline.empty()) {
        baseline = json;
      } else {
        EXPECT_EQ(baseline, json) << backend << " threads=" << threads;
      }
    }
  }
}

/// Satellite property test: arena-backed and heap-backed builds are value
/// identical — steps, labels, transfers, reconfig deltas and
/// is_reconfig_free — across 200 seeded configurations of every registered
/// algorithm. Infeasible configurations must fail identically on both
/// paths.
TEST(ScaleEquivalence, ArenaAndHeapSchedulesMatchAcross200Configs) {
  exp::ensure_initialized();
  const std::vector<std::string> algorithms = {
      "ring", "hring", "btree", "recursive_doubling", "halving_doubling",
      "wrht"};
  const std::vector<std::uint32_t> node_choices = {2,  3,  4,  6,  8, 12,
                                                   16, 17, 24, 32, 33, 64};

  std::mt19937 rng(20230707);
  int built = 0;
  for (int config_index = 0; config_index < 200; ++config_index) {
    coll::AllreduceParams params;
    params.num_nodes = node_choices[rng() % node_choices.size()];
    params.elements = 1 + rng() % 4096;
    params.wavelengths = 1u << static_cast<unsigned>(1 + rng() % 5);
    const std::string& algorithm = algorithms[rng() % algorithms.size()];
    if (algorithm == "hring" || algorithm == "wrht") {
      // Draw m in [2, N]; builders reject infeasible combinations and the
      // rejection itself must be storage-independent.
      params.group_size =
          2 + static_cast<std::uint32_t>(rng() % params.num_nodes);
    }
    const std::string where = algorithm + " N=" +
                              std::to_string(params.num_nodes) + " m=" +
                              std::to_string(params.group_size) + " w=" +
                              std::to_string(params.wavelengths);

    std::optional<coll::Schedule> heap_sched;
    std::string heap_error;
    try {
      coll::ScheduleStorageScope scope(coll::ScheduleStorage::kHeap);
      heap_sched = coll::Registry::instance().build(algorithm, params);
    } catch (const std::exception& e) {
      heap_error = e.what();
    }

    std::optional<coll::Schedule> arena_sched;
    std::string arena_error;
    try {
      coll::ScheduleStorageScope scope(coll::ScheduleStorage::kArena);
      arena_sched = coll::Registry::instance().build(algorithm, params);
    } catch (const std::exception& e) {
      arena_error = e.what();
    }

    ASSERT_EQ(heap_sched.has_value(), arena_sched.has_value())
        << where << " heap error: " << heap_error
        << " arena error: " << arena_error;
    if (!heap_sched) {
      EXPECT_EQ(heap_error, arena_error) << where;
      continue;
    }
    ++built;
    EXPECT_EQ(heap_sched->storage(), coll::ScheduleStorage::kHeap) << where;
    EXPECT_EQ(arena_sched->storage(), coll::ScheduleStorage::kArena) << where;
    expect_schedules_equal(*heap_sched, *arena_sched, where);
    expect_deltas_equal(*heap_sched, *arena_sched, where);
  }
  // The draw must not degenerate into rejections only.
  EXPECT_GE(built, 100) << "seeded draw produced too few feasible configs";
}

/// The incremental cache's patch tier (copy + rescale_elements) must be
/// indistinguishable from a direct build, and its outputs must still pass
/// the overlapped-reconfiguration consistency checker.
TEST(ScaleEquivalence, RescalePatchEqualsDirectBuildAndStaysConsistent) {
  exp::ensure_initialized();
  core::WrhtOptions options;
  options.wavelengths = 8;
  options.group_size = core::plan_wrht(32, 8).group_size;

  const coll::Schedule base = core::wrht_allreduce(32, 1024, options);
  ASSERT_TRUE(base.full_vector());

  coll::Schedule patched(base);
  patched.rescale_elements(4096);
  const coll::Schedule direct = core::wrht_allreduce(32, 4096, options);
  expect_schedules_equal(patched, direct, "wrht N=32 rescale 1024->4096");
  expect_deltas_equal(patched, direct, "wrht N=32 rescale 1024->4096");

  verify::OverlapOptions overlap;
  overlap.wavelengths = 8;
  const verify::CheckResult result =
      verify::check_overlap_consistency(patched, 32, overlap);
  EXPECT_TRUE(result.ok()) << result.summary();
}

}  // namespace
}  // namespace wrht
