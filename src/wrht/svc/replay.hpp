// Event-log replay: rebuild the service's accounting from svc-events-1.
//
// A JSONL event log carries enough of the run — submit, admit, grant,
// complete with timestamps, tenants, and leases — to reconstruct every
// JobRecord timeline and feed it through the same summarize_records()
// arithmetic the live service uses. Because event timestamps round-trip
// doubles exactly, the replayed ServiceReport matches the live one
// bit-for-bit (the identity bench_svc_telemetry gates on), and the
// side signals — queue-depth and wavelengths-in-use time series, peak
// depth, time-weighted utilization, and the bottleneck verdict — come
// for free for post-hoc analysis (wrht_analyze --service).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "wrht/obs/event_log.hpp"
#include "wrht/obs/metrics.hpp"
#include "wrht/svc/service.hpp"

namespace wrht::svc {

struct ReplaySummary {
  /// Rebuilt through summarize_records(), so the aggregates match the
  /// live run exactly (SLO fields excepted: targets are not in the log).
  ServiceReport report;
  /// Events per kind name, e.g. {"submit": 32, "grant": 32, ...}.
  std::map<std::string, std::uint64_t> event_counts;
  /// Signal value after every event of the log, one sample per event.
  std::vector<obs::TimeSeriesPoint> queue_depth;
  std::vector<obs::TimeSeriesPoint> wavelengths_in_use;
  std::uint64_t peak_queue_depth = 0;
  /// Time-weighted means over [first event, last completion].
  double mean_queue_depth = 0.0;
  double mean_utilization = 0.0;
  /// "queue-bound" / "service-bound", from the same wait-vs-service
  /// comparison TenantStats::bottleneck() makes, fabric-wide.
  std::string verdict;

  [[nodiscard]] std::string to_string() const;
};

/// Replays a log produced by FabricService with TelemetryConfig::events.
/// Throws InvalidArgument on an inconsistent log (a second submit of a
/// pending job, grant without submit, complete without grant, unknown
/// policy name).
[[nodiscard]] ReplaySummary replay_events(const obs::EventLog& log);

}  // namespace wrht::svc
