#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <memory>
#include <mutex>

#include "wrht/collectives/registry.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/obs/trace_json.hpp"

namespace wrht::e2e {

namespace {

constexpr std::string_view kTracedPrefix = "traced:";

struct OpenSpan {
  std::string name;
  std::string detail;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
};

struct ThreadSpans {
  std::uint32_t track = 0;
  std::vector<OpenSpan> open;
  std::vector<SpanRecord> done;
};

struct Recorder {
  std::atomic<bool> enabled{false};
  std::mutex mutex;
  // Owned here, not by the threads: sweep workers exit before the pass
  // collects their spans.
  std::vector<std::unique_ptr<ThreadSpans>> threads;
  std::map<std::string, double> tallies;
};

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

ThreadSpans& this_thread_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    Recorder& r = recorder();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.threads.push_back(std::make_unique<ThreadSpans>());
    mine = r.threads.back().get();
    mine->track = static_cast<std::uint32_t>(r.threads.size() - 1);
  }
  return *mine;
}

bool spans_enabled() {
  return recorder().enabled.load(std::memory_order_relaxed);
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

class TracedBackend final : public net::Backend {
 public:
  TracedBackend(std::unique_ptr<net::Backend> inner, std::string span)
      : inner_(std::move(inner)), span_(std::move(span)) {}

  using net::Backend::execute;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }
  [[nodiscard]] net::BackendCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  [[nodiscard]] RunReport execute(const coll::Schedule& schedule,
                                  const obs::Probe& probe) const override {
    const Span timed(span_);
    return inner_->execute(schedule, probe);
  }
  [[nodiscard]] RunReport execute_at(const coll::Schedule& schedule,
                                     const obs::Probe& probe,
                                     Seconds start) const override {
    const Span timed(span_);
    return inner_->execute_at(schedule, probe, start);
  }

 private:
  std::unique_ptr<net::Backend> inner_;
  std::string span_;
};

}  // namespace

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void enable_spans() {
  (void)this_thread_spans();
  recorder().enabled.store(true, std::memory_order_release);
}

Span::Span(std::string_view name, std::string_view detail) {
  if (!spans_enabled()) return;
  active_ = true;
  this_thread_spans().open.push_back(
      OpenSpan{std::string(name), std::string(detail), now_ns(), 0});
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadSpans& mine = this_thread_spans();
  OpenSpan open = std::move(mine.open.back());
  mine.open.pop_back();
  const std::int64_t duration = end - open.start_ns;
  if (!mine.open.empty()) mine.open.back().child_ns += duration;
  mine.done.push_back(SpanRecord{std::move(open.name), std::move(open.detail),
                                 open.start_ns, end,
                                 duration - open.child_ns, mine.track});
}

std::vector<SpanRecord> collect_spans() {
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<SpanRecord> out;
  for (const auto& thread : r.threads) {
    out.insert(out.end(), thread->done.begin(), thread->done.end());
  }
  return out;
}

void tally(const std::string& name, double value) {
  if (!spans_enabled()) return;
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.tallies[name] += value;
}

std::map<std::string, double> tallies() {
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.tallies;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanTotals> out;
  const auto add = [](SpanTotals& t, const SpanRecord& s) {
    t.seconds += seconds(s.end_ns - s.start_ns);
    ++t.calls;
  };
  for (const SpanRecord& s : spans) {
    add(out[s.name], s);
    if (!s.detail.empty()) add(out[s.name + "." + s.detail], s);
  }
  return out;
}

void export_spans(const std::vector<SpanRecord>& spans, std::int64_t origin_ns,
                  obs::ChromeTraceSink& sink) {
  std::uint32_t tracks = 1;
  for (const SpanRecord& s : spans) {
    obs::TraceSpan span;
    span.name = s.name;
    span.category = "host";
    span.start = Seconds(seconds(s.start_ns - origin_ns));
    span.duration = Seconds(seconds(s.end_ns - s.start_ns));
    span.track = s.track;
    if (!s.detail.empty()) span.args.emplace_back("detail", s.detail);
    span.num_args.emplace_back("self_s", seconds(s.self_ns));
    sink.span(std::move(span));
    tracks = std::max(tracks, s.track + 1);
  }
  sink.set_track_name(0, "main");
  for (std::uint32_t t = 1; t < tracks; ++t) {
    sink.set_track_name(t, "thread-" + std::to_string(t));
  }
}

std::string traced(const std::string& name) {
  return std::string(kTracedPrefix) + name;
}

std::string execute_span_name(const std::string& backend) {
  std::string out = backend;
  std::replace(out.begin(), out.end(), '-', '.');
  return out + ".execute";
}

void tally_schedule(const coll::Schedule& schedule) {
  if (!spans_enabled()) return;
  std::uint64_t transfers = 0;
  for (const coll::Step& step : schedule.steps()) {
    transfers += step.transfers.size();
  }
  tally("collectives.transfers", static_cast<double>(transfers));
}

void register_traced_twins() {
  coll::Registry& algorithms = coll::Registry::instance();
  for (const std::string& name : algorithms.names()) {
    if (name.starts_with(kTracedPrefix)) continue;
    const std::string span =
        name == "wrht" ? "core.wrht_build" : "collectives.build";
    algorithms.register_algorithm(
        traced(name), [name, span](const coll::AllreduceParams& params) {
          coll::Schedule schedule = [&] {
            const Span timed(span, name);
            return coll::Registry::instance().build(name, params);
          }();
          tally_schedule(schedule);
          return schedule;
        });
  }

  net::BackendRegistry& backends = net::BackendRegistry::instance();
  for (const std::string& name : backends.names()) {
    if (name.starts_with(kTracedPrefix)) continue;
    backends.register_backend(
        traced(name), "span-timed " + name,
        [name](const net::BackendConfig& config)
            -> std::unique_ptr<net::Backend> {
          return std::make_unique<TracedBackend>(
              net::BackendRegistry::instance().create(name, config),
              execute_span_name(name));
        });
  }
}

}  // namespace wrht::e2e
