#include "wrht/verify/fuzz.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "wrht/collectives/registry.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/optical/optical_backend.hpp"
#include "wrht/plan/schedule_planner.hpp"
#include "wrht/verify/differential.hpp"
#include "wrht/verify/invariants.hpp"
#include "wrht/verify/oracle.hpp"
#include "wrht/verify/overlap.hpp"

namespace wrht::verify {

namespace {

constexpr const char* kPlannerPrefix = "plan:";

std::optional<plan::CandidateKind> planner_kind(const std::string& algorithm) {
  if (algorithm == "plan:wrht") return plan::CandidateKind::kWrht;
  if (algorithm == "plan:flat_a2a") return plan::CandidateKind::kFlatAllToAll;
  if (algorithm == "plan:static_ring") return plan::CandidateKind::kStaticRing;
  return std::nullopt;
}

/// Builder-specific preconditions: clamp a raw sample into the domain the
/// algorithm accepts so the fuzzer explores valid configurations only.
void legalize(FuzzCase& c) {
  c.num_nodes = std::max<std::uint32_t>(c.num_nodes, 2);
  c.elements = std::max<std::size_t>(c.elements, 1);
  c.group_size = std::max<std::uint32_t>(c.group_size, 2);
  c.wavelengths = std::max<std::uint32_t>(c.wavelengths, 1);
  if (c.leased()) c.w_hi = std::max(c.w_hi, c.w_lo + 1);
  if (c.algorithm == "ring" || c.algorithm == "hring" ||
      c.algorithm == "halving_doubling" ||
      c.algorithm == "plan:static_ring" || c.algorithm == "plan:flat_a2a") {
    // Reduce-scatter-based builders need at least one element per node.
    c.elements = std::max<std::size_t>(c.elements, c.num_nodes);
  }
}

FuzzCase sample(Rng& rng, const std::vector<std::string>& algorithms,
                const FuzzOptions& options) {
  FuzzCase c;
  c.algorithm =
      algorithms[rng.uniform_int(0, algorithms.size() - 1)];
  c.num_nodes = static_cast<std::uint32_t>(
      rng.uniform_int(2, options.max_nodes));
  c.elements = static_cast<std::size_t>(
      rng.uniform_int(1, options.max_elements));
  c.group_size = static_cast<std::uint32_t>(
      rng.uniform_int(2, std::max<std::uint32_t>(2, std::min<std::uint32_t>(
                                                        c.num_nodes, 16))));
  c.wavelengths = static_cast<std::uint32_t>(rng.uniform_int(1, 64));
  switch (rng.uniform_int(0, 2)) {
    case 0: c.reconfig_policy = net::ReconfigPolicy::kEveryRound; break;
    case 1: c.reconfig_policy = net::ReconfigPolicy::kOnRetune; break;
    default: c.reconfig_policy = net::ReconfigPolicy::kOverlapped; break;
  }
  if (rng.uniform_int(0, 2) == 0) {
    // Slice width up to the schedule's wavelength budget, so the draw
    // covers both comfortable slices and multi-round starvation inside
    // one; a nonzero w_lo makes the offset part of the invariant real.
    const std::uint32_t width = static_cast<std::uint32_t>(
        rng.uniform_int(1, c.wavelengths));
    c.w_lo = static_cast<std::uint32_t>(rng.uniform_int(0, 12));
    c.w_hi = c.w_lo + width;
  }
  legalize(c);
  return c;
}

net::ReconfigPolicy parse_policy(const std::string& token) {
  if (token == "every_round") return net::ReconfigPolicy::kEveryRound;
  if (token == "on_retune") return net::ReconfigPolicy::kOnRetune;
  if (token == "overlapped") return net::ReconfigPolicy::kOverlapped;
  throw InvalidArgument("FuzzCase::parse: unknown reconfig policy '" + token +
                        "'");
}

/// Prices `schedule` on the optical ring engine under `policy`.
double priced_seconds(const coll::Schedule& schedule, std::uint32_t ring_size,
                      std::uint32_t wavelengths, net::ReconfigPolicy policy) {
  optics::OpticalConfig config;
  config.wavelengths = wavelengths;
  config.reconfig_policy = policy;
  config.validate_node_capacity = false;
  const optics::RingBackend backend(ring_size, config, /*rng_seed=*/2023,
                                    /*collect_utilization=*/false);
  return backend.execute(schedule).total_time.count();
}

/// Greedy shrink: repeatedly try to move each dimension toward its
/// minimum (halving first, then decrementing) while the case still fails.
FuzzFailure shrink_failure(const FuzzCase& first, const CheckResult& found) {
  FuzzFailure best{first, found};
  const auto try_case = [&best](FuzzCase candidate) {
    legalize(candidate);
    if (candidate.algorithm == best.config.algorithm &&
        candidate.num_nodes == best.config.num_nodes &&
        candidate.elements == best.config.elements &&
        candidate.group_size == best.config.group_size &&
        candidate.wavelengths == best.config.wavelengths &&
        candidate.reconfig_policy == best.config.reconfig_policy &&
        candidate.w_lo == best.config.w_lo &&
        candidate.w_hi == best.config.w_hi) {
      return false;
    }
    const CheckResult r = check_case(candidate);
    if (r.ok()) return false;
    best = FuzzFailure{candidate, r};
    return true;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    FuzzCase c = best.config;
    // Nodes first — the dominant cost dimension.
    { FuzzCase t = c; t.num_nodes = (t.num_nodes + 2) / 2; progress |= try_case(t); }
    { FuzzCase t = best.config; t.num_nodes -= 1; progress |= try_case(t); }
    { FuzzCase t = best.config; t.elements = (t.elements + 1) / 2; progress |= try_case(t); }
    { FuzzCase t = best.config; t.elements -= 1; progress |= try_case(t); }
    { FuzzCase t = best.config; t.group_size = (t.group_size + 2) / 2; progress |= try_case(t); }
    { FuzzCase t = best.config; t.group_size -= 1; progress |= try_case(t); }
    { FuzzCase t = best.config; t.wavelengths = (t.wavelengths + 1) / 2; progress |= try_case(t); }
    { FuzzCase t = best.config; t.wavelengths -= 1; progress |= try_case(t); }
    // Lease: drop it entirely first, else narrow the slice and slide it
    // down toward wavelength 0.
    if (best.config.leased()) {
      { FuzzCase t = best.config; t.w_lo = 0; t.w_hi = 0;
        progress |= try_case(t); }
      { FuzzCase t = best.config;
        t.w_hi = t.w_lo + std::max<std::uint32_t>(1, (t.w_hi - t.w_lo) / 2);
        progress |= try_case(t); }
      { FuzzCase t = best.config;
        if (t.w_lo > 0) { t.w_lo -= 1; t.w_hi -= 1; progress |= try_case(t); }
      }
    }
    // Policy last: a failure that survives under the serial default is the
    // simplest reproducer.
    { FuzzCase t = best.config;
      t.reconfig_policy = net::ReconfigPolicy::kEveryRound;
      progress |= try_case(t); }
  }
  return best;
}

}  // namespace

std::string FuzzCase::to_string() const {
  std::string s = algorithm + "(N=" + std::to_string(num_nodes) +
                  ", elements=" + std::to_string(elements) +
                  ", m=" + std::to_string(group_size) +
                  ", w=" + std::to_string(wavelengths) +
                  ", policy=" + net::to_string(reconfig_policy);
  if (leased()) {
    s += ", lease=[" + std::to_string(w_lo) + ", " + std::to_string(w_hi) +
         ")";
  }
  return s + ")";
}

std::string FuzzCase::serialize() const {
  std::string s = algorithm + " " + std::to_string(num_nodes) + " " +
                  std::to_string(elements) + " " +
                  std::to_string(group_size) + " " +
                  std::to_string(wavelengths) + " " +
                  net::to_string(reconfig_policy);
  if (leased()) {
    // Appended: see ResourceLease::to_string.
    s.append(" ").append(std::to_string(w_lo)).append(" ").append(
        std::to_string(w_hi));
  }
  return s;
}

FuzzCase FuzzCase::parse(const std::string& line) {
  std::istringstream in(line);
  FuzzCase c;
  std::string policy;
  in >> c.algorithm >> c.num_nodes >> c.elements >> c.group_size >>
      c.wavelengths >> policy;
  if (in.fail()) {
    throw InvalidArgument(
        "FuzzCase::parse: malformed line '" + line +
        "' (want: algorithm N elements m w policy [w_lo w_hi])");
  }
  // Optional lease slice: exactly two more integer tokens.
  std::string lo_token;
  if (in >> lo_token) {
    std::istringstream lease(lo_token);
    lease >> c.w_lo;
    const bool lo_ok = !lease.fail() && lease.eof();
    in >> c.w_hi;
    if (!lo_ok || in.fail()) {
      throw InvalidArgument("FuzzCase::parse: malformed lease tokens in '" +
                            line + "' (want: w_lo w_hi)");
    }
    if (c.w_lo >= c.w_hi) {
      throw InvalidArgument("FuzzCase::parse: empty lease slice in '" + line +
                            "'");
    }
    std::string rest;
    in >> rest;
    if (!rest.empty()) {
      throw InvalidArgument("FuzzCase::parse: trailing tokens in '" + line +
                            "'");
    }
  }
  c.reconfig_policy = parse_policy(policy);
  if (!(c.num_nodes >= 2 && c.elements >= 1 && c.group_size >= 2 &&
        c.wavelengths >= 1)) {
    throw InvalidArgument("FuzzCase::parse: out-of-domain values in '" + line +
                          "'");
  }
  return c;
}

CheckResult check_case(const FuzzCase& c) {
  core::register_wrht_algorithm();
  CheckResult result;

  std::optional<coll::Schedule> schedule;
  if (const auto kind = planner_kind(c.algorithm)) {
    // Planner candidate: feasibility prediction and builder must agree,
    // and the built schedule is subjected to the same oracles below.
    plan::PlannerOptions popts;
    popts.wavelengths = c.wavelengths;
    popts.policy = c.reconfig_policy;
    const plan::Candidate prediction =
        plan::predict(*kind, c.num_nodes, c.elements, popts);
    try {
      schedule.emplace(
          plan::build_candidate(*kind, c.num_nodes, c.elements, popts));
      if (!prediction.feasible) {
        result.add("fuzz.plan.feasibility",
                   c.to_string() + " built although predict() said '" +
                       prediction.note + "'");
        return result;
      }
    } catch (const Error& e) {
      if (prediction.feasible) {
        result.add("fuzz.plan.feasibility",
                   c.to_string() +
                       " was predicted feasible but failed to build: " +
                       e.what());
      }
      return result;
    }
  } else {
    coll::AllreduceParams params;
    params.num_nodes = c.num_nodes;
    params.elements = c.elements;
    params.group_size = c.group_size;
    params.wavelengths = c.wavelengths;
    try {
      schedule.emplace(coll::Registry::instance().build(c.algorithm, params));
    } catch (const Error& e) {
      result.add("fuzz.build",
                 c.to_string() + " failed to build: " + e.what());
      return result;
    }
  }

  // Data-level proof: the schedule must compute the global sum.
  const OracleReport oracle = check_allreduce(*schedule);
  result.merge(oracle.result);

  // Structural and RWA invariants hold for every algorithm.
  result.merge(check_schedule_structure(*schedule));
  InvariantOptions inv;
  inv.wavelengths = c.wavelengths;
  result.merge(check_conflict_freedom(*schedule, c.num_nodes, inv));

  // WRHT-specific closed-form and hierarchy checks.
  if (c.algorithm == "wrht") {
    result.merge(check_wrht_hierarchy(c.num_nodes, c.group_size,
                                      c.wavelengths));
    result.merge(check_wrht_step_count(*schedule, c.num_nodes, c.group_size,
                                       c.wavelengths));
    result.merge(check_wrht_wavelength_discipline(
        *schedule, c.num_nodes, c.group_size, c.wavelengths));
  }

  // Slice equivalence: confining the run to the leased [w_lo, w_hi) of a
  // w_hi-wavelength fabric must price EXACTLY like owning a dedicated
  // (w_hi - w_lo)-wavelength fabric — same time, steps and rounds, every
  // step's wavelengths_used offset by w_lo. This is the contract that lets
  // the svc layer slice one fabric across tenants without re-deriving any
  // engine behaviour.
  if (c.leased()) {
    const std::uint32_t slice = c.w_hi - c.w_lo;
    optics::OpticalConfig base;
    base.reconfig_policy = c.reconfig_policy;
    base.validate_node_capacity = false;
    optics::OpticalConfig leased = base;
    leased.wavelengths = c.w_hi;
    leased.lease = net::ResourceLease{c.w_lo, c.w_hi, /*tenant=*/0};
    optics::OpticalConfig narrow = base;
    narrow.wavelengths = slice;
    const optics::RingBackend leased_backend(c.num_nodes, leased,
                                             /*rng_seed=*/2023,
                                             /*collect_utilization=*/false);
    const optics::RingBackend narrow_backend(c.num_nodes, narrow,
                                             /*rng_seed=*/2023,
                                             /*collect_utilization=*/false);
    try {
      const RunReport a = leased_backend.execute(*schedule, obs::Probe{});
      const RunReport b = narrow_backend.execute(*schedule, obs::Probe{});
      if (a.total_time != b.total_time || a.steps != b.steps ||
          a.step_reports.size() != b.step_reports.size()) {
        result.add("fuzz.lease.equivalence",
                   c.to_string() + ": leased run (" +
                       std::to_string(a.total_time.count()) + "s, " +
                       std::to_string(a.steps) + " steps) != full run on a " +
                       std::to_string(slice) + "-wavelength fabric (" +
                       std::to_string(b.total_time.count()) + "s, " +
                       std::to_string(b.steps) + " steps)");
      } else {
        for (std::size_t s = 0; s < a.step_reports.size(); ++s) {
          const StepReport& sa = a.step_reports[s];
          const StepReport& sb = b.step_reports[s];
          const std::uint32_t expect_used =
              sb.wavelengths_used == 0 ? 0 : sb.wavelengths_used + c.w_lo;
          if (sa.duration != sb.duration || sa.rounds != sb.rounds ||
              sa.wavelengths_used != expect_used) {
            result.add(
                "fuzz.lease.equivalence",
                c.to_string() + ": step " + std::to_string(s) +
                    " diverges under the lease (duration " +
                    std::to_string(sa.duration.count()) + "s vs " +
                    std::to_string(sb.duration.count()) + "s, rounds " +
                    std::to_string(sa.rounds) + " vs " +
                    std::to_string(sb.rounds) + ", wavelengths_used " +
                    std::to_string(sa.wavelengths_used) + " vs expected " +
                    std::to_string(expect_used) + ")");
            break;
          }
        }
      }
    } catch (const Error& e) {
      result.add("fuzz.lease.equivalence",
                 c.to_string() + ": leased/narrow execution failed: " +
                     e.what());
    }
  }

  // Differential pricing: event-driven simulator vs Eq. (6). The
  // analytical side charges reconfiguration on every round, so the
  // differential always prices kEveryRound regardless of the drawn policy.
  DifferentialOptions diff;
  diff.config.wavelengths = c.wavelengths;
  result.merge(check_differential(*schedule, diff).result);

  // Reconfiguration-accounting draws: relaxed policies must never price
  // slower than the paper's serial default, and overlapped runs must pass
  // the full overlap-consistency invariant set.
  if (c.reconfig_policy != net::ReconfigPolicy::kEveryRound) {
    const double serial = priced_seconds(*schedule, c.num_nodes,
                                         c.wavelengths,
                                         net::ReconfigPolicy::kEveryRound);
    const double relaxed = priced_seconds(*schedule, c.num_nodes,
                                          c.wavelengths, c.reconfig_policy);
    if (relaxed > serial * (1.0 + 1e-9)) {
      result.add("fuzz.reconfig.monotonic",
                 c.to_string() + ": " + net::to_string(c.reconfig_policy) +
                     " priced " + std::to_string(relaxed) + "s > " +
                     std::to_string(serial) + "s under every_round");
    }
  }
  if (c.reconfig_policy == net::ReconfigPolicy::kOverlapped) {
    OverlapOptions overlap;
    overlap.wavelengths = c.wavelengths;
    result.merge(check_overlap_consistency(*schedule, c.num_nodes, overlap));
  }

  return result;
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  core::register_wrht_algorithm();
  std::vector<std::string> algorithms =
      options.algorithms.empty() ? coll::Registry::instance().names()
                                 : options.algorithms;
  if (options.algorithms.empty()) {
    for (const char* kind : {"wrht", "flat_a2a", "static_ring"}) {
      algorithms.push_back(std::string(kPlannerPrefix) + kind);
    }
  }
  require(!algorithms.empty(), "run_fuzz: no algorithms to fuzz");

  Rng rng(options.seed);
  FuzzReport report;
  for (std::size_t i = 0; i < options.iterations; ++i) {
    const FuzzCase c = sample(rng, algorithms, options);
    ++report.cases_per_algorithm[c.algorithm];
    const CheckResult result = check_case(c);
    ++report.iterations_run;
    if (!result.ok()) {
      report.failures.push_back(FuzzFailure{c, result});
    }
  }
  if (!report.failures.empty()) {
    report.minimal_failure = shrink_failure(report.failures.front().config,
                                            report.failures.front().result);
  }
  return report;
}

}  // namespace wrht::verify
