// Host-time spans recorded from outside the library.
//
// A traced pass wraps each call the benchmark makes into a library layer
// in a Span; the library itself carries no new instrumentation. Spans are
// kept in memory per thread (one track per thread, the main thread is
// track 0) and nest by RAII order, so each span's self time — its
// duration minus its direct children — is exact in integer nanoseconds.
// Because spans on one thread nest and never overlap, the per-thread
// identity
//
//     sum(self) + unattributed == thread wall
//
// holds by construction; the main thread's unattributed time is reported
// as its timed wall minus the self time of its spans.
//
// Sweep workloads reach the schedule builders and backends through
// "traced:<name>" twins registered next to the originals in
// coll::Registry and net::BackendRegistry; each twin opens a span around
// the original and returns its result unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wrht::coll {
class Schedule;
}  // namespace wrht::coll

namespace wrht::obs {
class ChromeTraceSink;
}  // namespace wrht::obs

namespace wrht::e2e {

/// CLOCK_MONOTONIC in nanoseconds; one clock for every process on the
/// host, so a parent and its child can subtract each other's readings.
[[nodiscard]] std::int64_t now_ns();

struct SpanRecord {
  std::string name;
  std::string detail;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
  std::uint32_t track = 0;
};

/// Starts recording; the calling thread becomes track 0. Spans opened
/// before this call, or in a process that never calls it, cost one
/// relaxed load and record nothing.
void enable_spans();

/// Every finished span, grouped by track, each track in end order. Call
/// only after every thread that recorded has been joined.
[[nodiscard]] std::vector<SpanRecord> collect_spans();

class Span {
 public:
  explicit Span(std::string_view name, std::string_view detail = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// Adds `value` to the named per-layer tally (thread-safe). A no-op while
/// spans are off, so untraced passes do not pay for the bookkeeping.
void tally(const std::string& name, double value);
[[nodiscard]] std::map<std::string, double> tallies();
/// Tallies the schedule's transfer count into "collectives.transfers".
void tally_schedule(const coll::Schedule& schedule);

/// Span totals by name, and by "<name>.<detail>" for spans with a detail:
/// inclusive seconds and call count.
struct SpanTotals {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};
[[nodiscard]] std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<SpanRecord>& spans);

/// One track per thread, times relative to `origin_ns`; each span carries
/// its detail and self time as arguments.
void export_spans(const std::vector<SpanRecord>& spans,
                  std::int64_t origin_ns, obs::ChromeTraceSink& sink);

/// "traced:<name>".
[[nodiscard]] std::string traced(const std::string& name);

/// Registers a traced twin of every schedule builder and backend
/// registered so far. Builders open "core.wrht_build" (WRHT) or
/// "collectives.build" spans and tally "collectives.transfers"; backends
/// open "<engine>.execute" spans named after the backend
/// ("optical-ring" -> "optical.ring.execute").
void register_traced_twins();

/// Span name for executing on `backend` ("electrical-flow" ->
/// "electrical.flow.execute").
[[nodiscard]] std::string execute_span_name(const std::string& backend);

}  // namespace wrht::e2e
