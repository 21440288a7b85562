// Service layer: wavelength allocator, admission policies, workload
// generation, and end-to-end FabricService runs on crafted job sets where
// the policy rankings are known by construction.
#include "wrht/svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>

#include "wrht/common/error.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/svc/workload.hpp"

namespace wrht::svc {
namespace {

TEST(WavelengthAllocator, FirstFitAndCoalescing) {
  WavelengthAllocator alloc(16);
  EXPECT_EQ(alloc.free_width(), 16u);
  const auto a = alloc.allocate(4);
  const auto b = alloc.allocate(8);
  const auto c = alloc.allocate(4);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 4u);
  EXPECT_EQ(*c, 12u);
  EXPECT_EQ(alloc.free_width(), 0u);
  EXPECT_FALSE(alloc.allocate(1).has_value());

  // Free the middle: 8 contiguous wavelengths fit again, at the hole.
  alloc.release(4, 8);
  EXPECT_EQ(alloc.largest_free(), 8u);
  // Free the front; the two holes coalesce into [0, 12).
  alloc.release(0, 4);
  EXPECT_EQ(alloc.largest_free(), 12u);
  const auto d = alloc.allocate(12);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, 0u);
}

TEST(WavelengthAllocator, ReleaseValidation) {
  WavelengthAllocator alloc(8);
  const auto a = alloc.allocate(4);
  ASSERT_TRUE(a);
  EXPECT_THROW(alloc.release(6, 4), InvalidArgument);   // outside fabric
  alloc.release(*a, 4);
  EXPECT_THROW(alloc.release(*a, 4), InvalidArgument);  // double free
  EXPECT_THROW(alloc.release(2, 2), InvalidArgument);   // inside free space

  // Slices whose end wraps past 2^32 are outside the fabric too.
  WavelengthAllocator fresh(16);
  EXPECT_THROW(fresh.release(UINT32_MAX, 2), InvalidArgument);
  EXPECT_EQ(fresh.free_width(), 16u);
  WavelengthAllocator full(16);
  ASSERT_TRUE(full.allocate(16));
  EXPECT_THROW(full.release(UINT32_MAX - 3, 8), InvalidArgument);
  EXPECT_EQ(full.free_width(), 0u);
}

AdmissionContext context_fitting_up_to(std::uint32_t max_width) {
  AdmissionContext ctx;
  ctx.largest_free = max_width;
  ctx.weighted_consumption = [](std::uint32_t) { return 0.0; };
  return ctx;
}

Job job_of(std::uint64_t id, std::uint32_t width, std::uint32_t priority = 0,
           std::uint32_t tenant = 0) {
  Job job;
  job.id = id;
  job.width = width;
  job.priority = priority;
  job.tenant = tenant;
  job.num_nodes = 8;
  job.elements = 4096;
  return job;
}

AdmissionQueue queue_of(const std::vector<Job>& jobs) {
  AdmissionQueue queue;
  for (const Job& job : jobs) queue.push(job);
  return queue;
}

constexpr std::uint64_t kBlocked = ~std::uint64_t{0};

/// Id of the job `policy` admits next from `queue`, or kBlocked.
std::uint64_t picked_id(const AdmissionPolicy& policy,
                        const AdmissionQueue& queue,
                        const AdmissionContext& ctx) {
  const std::size_t i = policy.select(queue, ctx);
  return i == AdmissionPolicy::kNone ? kBlocked : queue.head(i).id;
}

TEST(AdmissionQueue, ClassesStayInHeadArrivalOrder) {
  // Classes (priority, tenant, width): A = (0, 0, 2), B = (0, 0, 4),
  // C = (1, 0, 2). Arrival: A0 B1 A2 C3 B4.
  AdmissionQueue queue = queue_of({job_of(0, 2), job_of(1, 4), job_of(2, 2),
                                   job_of(3, 2, 1), job_of(4, 4)});
  EXPECT_EQ(queue.size(), 5u);
  ASSERT_EQ(queue.num_classes(), 3u);
  EXPECT_EQ(queue.head(0).id, 0u);
  EXPECT_EQ(queue.head(1).id, 1u);
  EXPECT_EQ(queue.head(2).id, 3u);
  // A's next head (2) arrived after B's (1) but before C's (3).
  EXPECT_EQ(queue.pop(0).id, 0u);
  EXPECT_EQ(queue.head(0).id, 1u);
  EXPECT_EQ(queue.head(1).id, 2u);
  EXPECT_EQ(queue.head(2).id, 3u);
  // B's next head (4) is the latest; emptying A drops its class.
  EXPECT_EQ(queue.pop(0).id, 1u);
  EXPECT_EQ(queue.pop(0).id, 2u);
  ASSERT_EQ(queue.num_classes(), 2u);
  EXPECT_EQ(queue.head(0).id, 3u);
  EXPECT_EQ(queue.head(1).id, 4u);
  // A job of a dropped class opens it again, behind every earlier head.
  queue.push(job_of(5, 2));
  ASSERT_EQ(queue.num_classes(), 3u);
  EXPECT_EQ(queue.head(2).id, 5u);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_THROW((void)queue.pop(3), InvalidArgument);
}

TEST(AdmissionPolicy, FifoBlocksBehindWideHead) {
  const auto policy = make_policy(PolicyKind::kFifo);
  const AdmissionQueue queue = queue_of({job_of(0, 8), job_of(1, 2)});
  // Head fits: picked. Head too wide: everyone blocks.
  EXPECT_EQ(picked_id(*policy, queue, context_fitting_up_to(8)), 0u);
  EXPECT_EQ(picked_id(*policy, queue, context_fitting_up_to(4)), kBlocked);
  EXPECT_EQ(picked_id(*policy, AdmissionQueue(), context_fitting_up_to(8)),
            kBlocked);
}

TEST(AdmissionPolicy, BackfillSkipsBlockedHead) {
  const auto policy = make_policy(PolicyKind::kBackfill);
  const AdmissionQueue queue =
      queue_of({job_of(0, 8), job_of(1, 2), job_of(2, 1)});
  EXPECT_EQ(picked_id(*policy, queue, context_fitting_up_to(4)), 1u);
  EXPECT_EQ(picked_id(*policy, queue, context_fitting_up_to(1)), 2u);
  EXPECT_EQ(picked_id(*policy, queue, context_fitting_up_to(0)), kBlocked);
}

TEST(AdmissionPolicy, PriorityPicksHighestThenFifo) {
  const auto policy = make_policy(PolicyKind::kPriority);
  const AdmissionQueue queue =
      queue_of({job_of(0, 2, 1), job_of(1, 2, 3), job_of(2, 2, 3)});
  // Highest priority wins; FIFO among equals (job 1, not 2).
  EXPECT_EQ(picked_id(*policy, queue, context_fitting_up_to(8)), 1u);
  // Also when the equals sit in different classes.
  const AdmissionQueue split =
      queue_of({job_of(0, 2, 1), job_of(1, 4, 3), job_of(2, 2, 3)});
  EXPECT_EQ(picked_id(*policy, split, context_fitting_up_to(8)), 1u);
  // Strict: if the chosen job does not fit, nobody runs.
  const AdmissionQueue blocked = queue_of({job_of(0, 2, 1), job_of(1, 8, 3)});
  EXPECT_EQ(picked_id(*policy, blocked, context_fitting_up_to(4)), kBlocked);
}

TEST(AdmissionPolicy, WeightedFairPrefersStarvedTenant) {
  const auto policy = make_policy(PolicyKind::kWeightedFair);
  const AdmissionQueue queue = queue_of(
      {job_of(0, 2, 0, /*tenant=*/0), job_of(1, 2, 0, /*tenant=*/1)});
  AdmissionContext ctx = context_fitting_up_to(8);
  ctx.weighted_consumption = [](std::uint32_t tenant) {
    return tenant == 0 ? 100.0 : 1.0;  // tenant 0 has hogged the fabric
  };
  EXPECT_EQ(picked_id(*policy, queue, ctx), 1u);
  // Among fitting jobs only: the starved tenant's too-wide job is skipped
  // once only 4 wavelengths remain free.
  const AdmissionQueue mixed =
      queue_of({job_of(0, 2, 0, 0), job_of(1, 8, 0, 1)});
  AdmissionContext tight = context_fitting_up_to(4);
  tight.weighted_consumption = ctx.weighted_consumption;
  EXPECT_EQ(picked_id(*policy, mixed, tight), 0u);
}

/// The whole-queue scans the policies ran before they chose among class
/// heads: index into the arrival-ordered `queue`, or kNone. The
/// differential test below holds the class-head selection to them.
std::size_t reference_select(PolicyKind kind, const std::vector<Job>& queue,
                             const AdmissionContext& ctx) {
  constexpr std::size_t kNone = AdmissionPolicy::kNone;
  switch (kind) {
    case PolicyKind::kFifo:
      if (queue.empty() || !ctx.fits(queue.front().width)) return kNone;
      return 0;
    case PolicyKind::kPriority: {
      if (queue.empty()) return kNone;
      std::size_t best = 0;
      for (std::size_t i = 1; i < queue.size(); ++i) {
        if (queue[i].priority > queue[best].priority) best = i;
      }
      return ctx.fits(queue[best].width) ? best : kNone;
    }
    case PolicyKind::kBackfill:
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (ctx.fits(queue[i].width)) return i;
      }
      return kNone;
    case PolicyKind::kWeightedFair: {
      std::size_t best = kNone;
      double best_consumed = 0.0;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (!ctx.fits(queue[i].width)) continue;
        const double consumed = ctx.weighted_consumption(queue[i].tenant);
        if (best == kNone || consumed < best_consumed) {
          best = i;
          best_consumed = consumed;
        }
      }
      return best;
    }
  }
  return kNone;
}

TEST(AdmissionPolicy, ClassHeadsPickWhatTheWholeQueueScanPicks) {
  // One script of pushes and admission rounds per case; each policy
  // replays it on an AdmissionQueue and on an arrival-ordered vector.
  struct Round {
    std::uint32_t largest_free;
    std::array<double, 4> consumption;  // per tenant
  };
  struct Op {
    bool push;
    Job job;     // push
    Round round;  // admission round
  };
  constexpr std::uint32_t kWidths[] = {1, 2, 4, 8};
  // Three values only, so tenants often tie.
  constexpr double kConsumption[] = {0.0, 1.5, 3.0};

  Rng rng(16);
  std::size_t picks = 0;
  std::size_t blocks = 0;
  for (int c = 0; c < 2000; ++c) {
    std::vector<Op> script;
    std::uint64_t pushes = rng.uniform_int(0, 40);
    std::uint64_t rounds = rng.uniform_int(1, 40);
    for (std::uint64_t id = 0; pushes + rounds > 0;) {
      Op op{};
      op.push = pushes > 0 && (rounds == 0 || rng.uniform_int(0, 1) == 0);
      if (op.push) {
        op.job = job_of(id++, kWidths[rng.uniform_int(0, 3)],
                        static_cast<std::uint32_t>(rng.uniform_int(0, 3)),
                        static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
        --pushes;
      } else {
        op.round.largest_free =
            static_cast<std::uint32_t>(rng.uniform_int(0, 8));
        for (double& v : op.round.consumption) {
          v = kConsumption[rng.uniform_int(0, 2)];
        }
        --rounds;
      }
      script.push_back(op);
    }

    for (const PolicyKind kind : all_policies()) {
      const auto policy = make_policy(kind);
      AdmissionQueue queue;
      std::vector<Job> reference;
      for (const Op& op : script) {
        if (op.push) {
          queue.push(op.job);
          reference.push_back(op.job);
          continue;
        }
        AdmissionContext ctx;
        ctx.largest_free = op.round.largest_free;
        ctx.weighted_consumption = [&op](std::uint32_t tenant) {
          return op.round.consumption[tenant];
        };
        const std::size_t want = reference_select(kind, reference, ctx);
        const std::size_t got = policy->select(queue, ctx);
        if (want == AdmissionPolicy::kNone) {
          ASSERT_EQ(got, AdmissionPolicy::kNone)
              << to_string(kind) << " case " << c;
          ++blocks;
          continue;
        }
        ASSERT_NE(got, AdmissionPolicy::kNone)
            << to_string(kind) << " case " << c;
        ASSERT_EQ(queue.pop(got).id, reference[want].id)
            << to_string(kind) << " case " << c;
        reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(want));
        ASSERT_EQ(queue.size(), reference.size());
        ++picks;
      }
    }
  }
  // The script mix reaches both outcomes often.
  EXPECT_GT(picks, 20000u);
  EXPECT_GT(blocks, 20000u);
}

TEST(AdmissionPolicy, NamesRoundTrip) {
  for (const PolicyKind kind : all_policies()) {
    EXPECT_EQ(policy_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)policy_from_string("lifo"), InvalidArgument);
}

TEST(Workload, DeterministicAndWellFormed) {
  WorkloadConfig config;
  config.num_jobs = 40;
  config.burstiness = 0.3;
  const std::vector<Job> a = generate_workload(config);
  const std::vector<Job> b = generate_workload(config);
  ASSERT_EQ(a.size(), 40u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].width, b[i].width);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].model, b[i].model);
    if (i > 0) {
      EXPECT_GE(a[i].arrival.count(), a[i - 1].arrival.count());
    }
    EXPECT_LT(a[i].tenant, config.num_tenants);
    EXPECT_GE(a[i].width, config.fabric_wavelengths / 8);
    EXPECT_LE(a[i].width, config.fabric_wavelengths);
    EXPECT_GT(a[i].elements, 0u);
    EXPECT_GE(a[i].iterations, config.min_iterations);
    EXPECT_LE(a[i].iterations, config.max_iterations);
  }
  // A different seed moves the arrivals.
  config.seed = 7;
  const std::vector<Job> c = generate_workload(config);
  EXPECT_NE(a.back().arrival, c.back().arrival);
}

ServiceConfig fabric8(PolicyKind policy) {
  ServiceConfig config;
  config.fabric_wavelengths = 8;
  config.policy = policy;
  return config;
}

/// Head-of-line construction: a narrow long job holds half the fabric, a
/// full-width job queues behind it, and a narrow short job arrives last.
std::vector<Job> head_blocking_jobs() {
  std::vector<Job> jobs;
  jobs.push_back(job_of(0, 4));             // admitted at t=0, runs a while
  jobs[0].iterations = 8;
  Job wide = job_of(1, 8);                  // cannot start until 0 finishes
  wide.arrival = Seconds(1e-6);
  jobs.push_back(wide);
  Job narrow = job_of(2, 2);                // fits beside job 0 right now
  narrow.arrival = Seconds(2e-6);
  jobs.push_back(narrow);
  return jobs;
}

const JobRecord& record_of(const ServiceReport& report, std::uint64_t id) {
  const auto it =
      std::find_if(report.records.begin(), report.records.end(),
                   [id](const JobRecord& r) { return r.job.id == id; });
  EXPECT_NE(it, report.records.end());
  return *it;
}

TEST(FabricService, BackfillBeatsFifoUnderHeadBlocking) {
  FabricService fifo(fabric8(PolicyKind::kFifo));
  FabricService backfill(fabric8(PolicyKind::kBackfill));
  const std::vector<Job> jobs = head_blocking_jobs();
  const ServiceReport a = fifo.run(jobs);
  const ServiceReport b = backfill.run(jobs);
  ASSERT_EQ(a.records.size(), 3u);
  ASSERT_EQ(b.records.size(), 3u);

  // FIFO: the narrow job waits for the wide head; backfill slips it past.
  EXPECT_GT(record_of(a, 2).queue_wait().count(), 0.0);
  EXPECT_DOUBLE_EQ(record_of(b, 2).queue_wait().count(), 0.0);
  EXPECT_LT(record_of(b, 2).jct().count(), record_of(a, 2).jct().count());
  // The wide job is never worse off under backfill here (same grant time).
  EXPECT_EQ(record_of(b, 1).grant, record_of(a, 1).grant);
}

TEST(FabricService, RecordsAreConsistent) {
  FabricService service(fabric8(PolicyKind::kBackfill));
  const ServiceReport report = service.run(head_blocking_jobs());
  for (const JobRecord& r : report.records) {
    EXPECT_GE(r.grant.count(), r.job.arrival.count());
    EXPECT_GT(r.service_time().count(), 0.0);
    EXPECT_NEAR(r.jct().count(),
                r.queue_wait().count() + r.service_time().count(), 1e-12);
    EXPECT_EQ(r.lease.width(report.fabric_wavelengths), r.job.width);
    EXPECT_LE(r.lease.clamp_hi(report.fabric_wavelengths),
              report.fabric_wavelengths);
    EXPECT_LE(r.completion.count(), report.makespan.count());
  }
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LE(report.utilization, 1.0);
  EXPECT_FALSE(report.to_string().empty());
  EXPECT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].jobs, 3u);
}

TEST(FabricService, WeightedFairFavoursHighWeightTenant) {
  // Tenant 0 floods the queue; tenant 1 has 8x the weight, so once both
  // are waiting, tenant 1's jobs go first.
  ServiceConfig config = fabric8(PolicyKind::kWeightedFair);
  config.tenant_weights[1] = 8.0;
  FabricService fair(config);
  FabricService fifo(fabric8(PolicyKind::kFifo));

  std::vector<Job> jobs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    Job j = job_of(i, 8, 0, /*tenant=*/0);
    j.iterations = 4;
    jobs.push_back(j);
  }
  Job vip = job_of(6, 8, 0, /*tenant=*/1);
  vip.arrival = Seconds(1e-6);
  jobs.push_back(vip);

  const ServiceReport a = fair.run(jobs);
  const ServiceReport b = fifo.run(jobs);
  EXPECT_LT(record_of(a, 6).jct().count(), record_of(b, 6).jct().count());
}

TEST(FabricService, LongLivedSimulatorResetsBetweenRuns) {
  FabricService service(fabric8(PolicyKind::kFifo));
  const std::vector<Job> jobs = head_blocking_jobs();
  const ServiceReport first = service.run(jobs);
  const std::uint64_t fired_once = service.simulator().events_fired();
  const ServiceReport second = service.run(jobs);
  // Identical reports run-to-run: the reset()-based reuse leaks nothing.
  ASSERT_EQ(first.records.size(), second.records.size());
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    EXPECT_EQ(first.records[i].job.id, second.records[i].job.id);
    EXPECT_EQ(first.records[i].grant, second.records[i].grant);
    EXPECT_EQ(first.records[i].completion, second.records[i].completion);
  }
  // The lifetime event counter kept counting across the reset.
  EXPECT_EQ(service.simulator().events_fired(), 2 * fired_once);
}

TEST(FabricService, CountersAndValidation) {
  obs::Counters counters;
  ServiceConfig config = fabric8(PolicyKind::kFifo);
  config.counters = &counters;
  FabricService service(config);
  (void)service.run(head_blocking_jobs());
  EXPECT_EQ(counters.value("svc.arrivals"), 3u);
  EXPECT_EQ(counters.value("svc.grants"), 3u);
  EXPECT_EQ(counters.value("svc.completions"), 3u);
  EXPECT_GT(counters.value("sim.events_fired"), 0u);

  Job too_wide = job_of(0, 16);  // 16 > the 8-wavelength fabric
  EXPECT_THROW((void)service.run({too_wide}), InvalidArgument);
}

TEST(FabricService, EndToEndGeneratedWorkload) {
  WorkloadConfig workload;
  workload.num_jobs = 32;
  workload.num_nodes = 16;
  workload.fabric_wavelengths = 16;
  workload.burstiness = 0.25;
  workload.mean_interarrival = Seconds(0.01);
  const std::vector<Job> jobs = generate_workload(workload);

  for (const PolicyKind kind : all_policies()) {
    ServiceConfig config;
    config.fabric_wavelengths = 16;
    config.policy = kind;
    FabricService service(config);
    const ServiceReport report = service.run(jobs);
    ASSERT_EQ(report.records.size(), jobs.size()) << to_string(kind);
    EXPECT_GT(report.p99_jct.count(), 0.0);
    EXPECT_GE(report.p99_jct.count(), report.p50_jct.count());
    std::uint64_t tenant_jobs = 0;
    for (const TenantStats& t : report.tenants) tenant_jobs += t.jobs;
    EXPECT_EQ(tenant_jobs, jobs.size());
  }
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(FabricService, BurstyAdmissionOrderIsPinned) {
  // svc_bursty's trace shape (64 nodes, 8 ms mean gap, burstiness 0.5),
  // 2000 jobs, on a 64-lane fabric and on a 16-lane one with unequal
  // tenant weights. The hashes cover every record's id, slice, grant,
  // completion and algorithm, and were recorded when every policy still
  // scanned the whole arrival-ordered queue and priced every grant anew.
  struct Fabric {
    std::uint32_t lanes;
    std::map<std::uint32_t, double> weights;
    std::array<std::uint64_t, 4> hashes;  // all_policies() order
  };
  const Fabric fabrics[] = {
      {64,
       {},
       {0xf12a69193e64ff96ULL, 0x9a2a1323c0e3c91aULL, 0x03f7a1e04ecfd539ULL,
        0xc706a74e1e59d6c5ULL}},
      {16,
       {{0, 1.0}, {1, 2.0}, {2, 4.0}, {3, 0.5}},
       {0xc81e4179a7e48a06ULL, 0x6d5069b61c809777ULL, 0x9202d2fc210768a7ULL,
        0xc0f05f0e0cac72d0ULL}},
  };
  for (const Fabric& fabric : fabrics) {
    WorkloadConfig workload;
    workload.num_jobs = 2000;
    workload.num_nodes = 64;
    workload.fabric_wavelengths = fabric.lanes;
    workload.mean_interarrival = Seconds(0.008);
    workload.burstiness = 0.5;
    workload.seed = 1;
    const std::vector<Job> jobs = generate_workload(workload);
    const std::vector<PolicyKind> policies = all_policies();
    for (std::size_t p = 0; p < policies.size(); ++p) {
      ServiceConfig config;
      config.fabric_wavelengths = fabric.lanes;
      config.policy = policies[p];
      config.tenant_weights = fabric.weights;
      FabricService service(config);
      const ServiceReport report = service.run(jobs);
      ASSERT_EQ(report.records.size(), jobs.size());
      std::uint64_t hash = 14695981039346656037ULL;
      for (const JobRecord& r : report.records) {
        hash = fnv1a(hash, r.job.id);
        hash = fnv1a(hash, r.lease.w_lo);
        hash = fnv1a(hash, std::bit_cast<std::uint64_t>(r.grant.count()));
        hash = fnv1a(hash, std::bit_cast<std::uint64_t>(r.completion.count()));
        hash = fnv1a(hash, static_cast<std::uint64_t>(r.algorithm));
      }
      EXPECT_EQ(hash, fabric.hashes[p])
          << fabric.lanes << " lanes, " << to_string(policies[p]);
    }
  }
}

}  // namespace
}  // namespace wrht::svc
