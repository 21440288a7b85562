#include "wrht/svc/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/net/resource_lease.hpp"

namespace wrht::svc {

namespace {

/// Integrates a piecewise-constant signal: accumulate value * dt at each
/// transition, divide by the covered span at the end.
struct TimeWeightedMean {
  double integral = 0.0;
  double last_value = 0.0;
  Seconds last_time{0.0};
  bool started = false;

  void step(Seconds now, double value) {
    if (started) integral += last_value * (now - last_time).count();
    last_value = value;
    last_time = now;
    started = true;
  }

  [[nodiscard]] double mean(Seconds start, Seconds end) const {
    const double span = (end - start).count();
    return span > 0.0 ? integral / span : 0.0;
  }
};

}  // namespace

std::string ReplaySummary::to_string() const {
  char line[256];
  std::string out = "=== event-log replay (" +
                    std::string(obs::EventLog::kSchema) + ") ===\n";
  std::string counts;
  for (const auto& [kind, n] : event_counts) {
    counts += (counts.empty() ? "" : " ") + kind + "=" + std::to_string(n);
  }
  out += "events: " + counts + "\n";
  std::snprintf(line, sizeof(line),
                "queue depth: peak=%llu mean=%.2f (time-weighted)\n",
                static_cast<unsigned long long>(peak_queue_depth),
                mean_queue_depth);
  out += line;
  std::snprintf(line, sizeof(line),
                "fabric: mean utilization=%.1f%% (time-weighted), "
                "final util=%.1f%%\n",
                mean_utilization * 100.0, report.utilization * 100.0);
  out += line;
  out += "verdict: " + verdict + "\n\n";
  out += report.to_string();
  return out;
}

ReplaySummary replay_events(const obs::EventLog& log) {
  ReplaySummary out;
  const std::uint32_t fabric = log.context().fabric_wavelengths;
  require(fabric >= 1, "replay_events: log header has an empty fabric");

  struct Pending {
    Seconds arrival{0.0};
    Seconds grant{0.0};
    std::uint32_t tenant = 0;
    std::uint32_t w_lo = 0;
    std::uint32_t w_hi = 0;
    bool granted = false;
    /// Waiting in the queue: since its submit or its last preempt, and
    /// not admitted since.
    bool queued = true;
  };
  std::map<std::uint64_t, Pending> pending;  // job id -> timeline so far
  std::vector<JobRecord> records;            // completion order

  std::uint64_t depth = 0;
  // Recorded grants replayed on the live run's lane model: a log whose
  // leases overlap or leave the fabric is rejected, not summed.
  WavelengthAllocator lanes(fabric);
  std::uint32_t in_use = 0;
  TimeWeightedMean depth_mean;
  TimeWeightedMean util_mean;
  Seconds first{0.0};
  Seconds last{0.0};
  bool any = false;

  out.queue_depth.reserve(log.size());
  out.wavelengths_in_use.reserve(log.size());
  std::size_t index = 0;  // 0-based event index; JSONL line = index + 2
  for (const obs::ServiceEvent& e : log.events()) {
    ++index;
    if (!any) first = e.time;
    last = e.time;
    any = true;
    ++out.event_counts[obs::to_string(e.kind)];
    try {
      switch (e.kind) {
        case obs::ServiceEvent::Kind::kSubmit: {
          const auto [it, fresh] = pending.try_emplace(e.job);
          if (!fresh) {
            throw InvalidArgument("second submit of pending job " +
                                  std::to_string(e.job));
          }
          it->second.arrival = e.time;
          it->second.tenant = e.tenant;
          ++depth;
          break;
        }
        case obs::ServiceEvent::Kind::kAdmit: {
          const auto it = pending.find(e.job);
          if (it == pending.end()) {
            throw InvalidArgument("admit of job " + std::to_string(e.job) +
                                  " without a submit");
          }
          require(depth > 0, "admit from an empty queue");
          it->second.queued = false;
          --depth;
          break;
        }
        case obs::ServiceEvent::Kind::kPreempt: {
          const auto it = pending.find(e.job);
          if (it == pending.end()) {
            throw InvalidArgument("preempt of job " + std::to_string(e.job) +
                                  " without a submit");
          }
          if (it->second.queued) {
            throw InvalidArgument("preempt of queued job " +
                                  std::to_string(e.job));
          }
          it->second.queued = true;
          ++depth;  // back to the queue
          break;
        }
        case obs::ServiceEvent::Kind::kGrant: {
          const auto it = pending.find(e.job);
          if (it == pending.end()) {
            throw InvalidArgument("grant of job " + std::to_string(e.job) +
                                  " without a submit");
          }
          lanes.claim(e.w_lo, e.w_hi - e.w_lo);
          in_use = fabric - lanes.free_width();
          it->second.grant = e.time;
          it->second.w_lo = e.w_lo;
          it->second.w_hi = e.w_hi;
          it->second.granted = true;
          break;
        }
        case obs::ServiceEvent::Kind::kStart:
        case obs::ServiceEvent::Kind::kRetune:
          break;
        case obs::ServiceEvent::Kind::kComplete: {
          const auto it = pending.find(e.job);
          if (it == pending.end() || !it->second.granted) {
            throw InvalidArgument("complete of job " + std::to_string(e.job) +
                                  " without a grant");
          }
          const Pending& p = it->second;
          JobRecord record;
          record.job.id = e.job;
          record.job.tenant = p.tenant;
          record.job.width = p.w_hi - p.w_lo;
          record.job.arrival = p.arrival;
          record.lease = net::slice_lease(p.w_lo, p.w_hi - p.w_lo, p.tenant);
          record.grant = p.grant;
          record.completion = e.time;
          records.push_back(std::move(record));
          lanes.release(p.w_lo, p.w_hi - p.w_lo);
          in_use = fabric - lanes.free_width();
          pending.erase(it);
          break;
        }
      }
    } catch (const Error& err) {
      // Names the offending JSONL line (header is line 1) so a corrupted
      // log points at itself instead of at the replay.
      throw InvalidArgument("replay_events: " + std::string(err.what()) +
                            " (event " + std::to_string(index) + ", line " +
                            std::to_string(index + 1) + ")");
    }
    out.peak_queue_depth = std::max(out.peak_queue_depth, depth);
    depth_mean.step(e.time, static_cast<double>(depth));
    util_mean.step(e.time,
                   static_cast<double>(in_use) / static_cast<double>(fabric));
    out.queue_depth.push_back({e.time, static_cast<double>(depth)});
    out.wavelengths_in_use.push_back({e.time, static_cast<double>(in_use)});
  }
  if (!pending.empty()) {
    throw InvalidArgument("replay_events: " + std::to_string(pending.size()) +
                          " job(s) never completed in the log");
  }

  out.report = summarize_records(policy_from_string(log.context().policy),
                                 fabric, std::move(records));
  out.mean_queue_depth = depth_mean.mean(first, last);
  out.mean_utilization = util_mean.mean(first, last);
  if (out.report.records.empty()) {
    out.verdict = "empty";
  } else {
    double service_sum = 0.0;
    for (const JobRecord& r : out.report.records) {
      service_sum += r.service_time().count();
    }
    const Seconds mean_service(
        service_sum / static_cast<double>(out.report.records.size()));
    out.verdict = out.report.mean_queue_wait > mean_service ? "queue-bound"
                                                            : "service-bound";
  }
  return out;
}

}  // namespace wrht::svc
