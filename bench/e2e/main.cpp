// wrht_bench: the end-to-end host benchmark. README.md has the workload
// and metric catalogue; BENCHMARK.json at the repository root is the one
// list of metric names, units, directions and bounds.
//
//   wrht_bench --workload NAME --seed S --seconds T --trace 0|1
//       One workload for T seconds: a set-up-only warm-up, then
//       fresh-process passes (alternating untraced and traced ones under
//       --trace 1). The last stdout line is the result object.
//   wrht_bench [--seed S] [--trace 0|1] [--out PATH]
//       Every workload, interleaved by rep: one warm-up pass each, then 5
//       measured passes; --trace 1 adds one traced pass per workload and
//       writes its spans to BENCH_e2e_trace.<workload>.json.
//   wrht_bench --smoke
//       The same at tiny sizes with one rep and the traced pass; exits 0
//       only if every check and digest holds.
//   wrht_bench --compare A.json B.json
//       Labels every (metric, workload) pair of two --out files by the
//       BENCHMARK.json bounds; exits 1 on a regression or more failures.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "json.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/stats.hpp"

#ifndef WRHT_BENCH_SOURCE_ROOT
#error "WRHT_BENCH_SOURCE_ROOT must name the repository root"
#endif
#ifndef WRHT_BENCH_GIT_DESCRIBE
#define WRHT_BENCH_GIT_DESCRIBE "unknown"
#endif
#ifndef WRHT_BENCH_BUILD_TYPE
#define WRHT_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace wrht::e2e;

/// A one-workload run must end within 180 s; passes stop launching so
/// that the last one finishes before this.
constexpr std::int64_t kRunDeadlineNs = 165LL * 1000000000;
/// A pass of the all-workload mode may take this long before it is killed.
constexpr std::int64_t kPassTimeoutNs = 600LL * 1000000000;
/// Fewest measured passes per one-workload run, whatever --seconds says.
constexpr std::size_t kMinPasses = 4;
/// Fewest set-up samples per one-workload run; cheap set-up-only
/// children top up the passes' own samples.
constexpr std::size_t kMinSetupSamples = 51;
/// Measured passes per workload in the all-workload mode.
constexpr int kReps = 5;
/// --compare never calls a set-up change smaller than this a regression:
/// set-up is a few milliseconds of process start.
constexpr double kSetupFloorS = 0.002;
constexpr const char* kTracePrefix = "BENCH_e2e_trace.";

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;
  double bound = 0.0;
};

struct BenchSpec {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

BenchSpec load_spec() {
  const Json doc =
      Json::parse_file(std::string(WRHT_BENCH_SOURCE_ROOT) + "/BENCHMARK.json");
  BenchSpec spec;
  for (const auto& [key, list] :
       {std::pair{"end_to_end", &spec.end_to_end},
        std::pair{"per_layer", &spec.per_layer}}) {
    for (const Json& m : doc.at(key).array()) {
      MetricSpec metric{m.at("name").string(), m.at("unit").string(),
                        m.at("better").string(), 0.0};
      if (const Json* bound = m.find("bound")) metric.bound = bound->number();
      list->push_back(std::move(metric));
    }
  }
  return spec;
}

double e2e_value(const PassSample& s, const std::string& metric) {
  if (metric == "wall_s") return s.wall_s;
  if (metric == "cpu_s") return s.cpu_s;
  if (metric == "peak_rss_mb") return s.peak_rss_mb;
  if (metric == "setup_s") return s.setup_s;
  throw wrht::Error("BENCHMARK.json names an end-to-end metric wrht_bench "
                    "does not measure: " + metric);
}

/// 0 when every pass failed and there is nothing to take the median of.
double median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : wrht::percentile(values, 0.5);
}

std::string number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

/// Everything the passes of one workload reported.
struct WorkloadResult {
  std::string name;
  bool seeded = true;
  std::vector<PassSample> measured;  // untraced and timed
  std::vector<PassSample> traced;
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::uint64_t digest = 0;
  bool have_digest = false;

  void fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }

  /// Counts the pass's checks plus one determinism check: every pass of a
  /// workload, traced or not, must produce the first pass's output digest.
  /// Returns whether the sample is usable for timings.
  bool absorb(const PassSample& s) {
    if (!s.ok) {
      ++attempted;
      fail(s.error);
      return false;
    }
    attempted += s.checks + 1;
    failed += s.failed;
    if (first_failure.empty()) first_failure = s.first_failure;
    if (!have_digest) {
      digest = s.digest;
      have_digest = true;
    } else if (s.digest != digest) {
      fail("determinism: output digest differs between passes");
    }
    return true;
  }

  void absorb_setup(const PassSample& s) {
    if (s.ok) {
      setup_s.push_back(s.setup_s);
    } else {
      ++attempted;
      fail(s.error);
    }
  }

  [[nodiscard]] std::vector<double> e2e_samples(
      const std::string& metric) const {
    if (metric == "setup_s") return setup_s;
    std::vector<double> values;
    for (const PassSample& s : measured) values.push_back(e2e_value(s, metric));
    return values;
  }

  [[nodiscard]] double e2e_median(const std::string& metric) const {
    return median(e2e_samples(metric));
  }

  /// Median per layer over the traced passes, plus the traced/untraced
  /// wall ratio.
  [[nodiscard]] std::map<std::string, double> layer_medians() const {
    std::map<std::string, std::vector<double>> values;
    std::vector<double> traced_wall;
    for (const PassSample& s : traced) {
      for (const auto& [layer, v] : s.layers) values[layer].push_back(v);
      traced_wall.push_back(s.wall_s);
    }
    std::map<std::string, double> out;
    for (auto& [layer, v] : values) out[layer] = median(v);
    const double untraced = e2e_median("wall_s");
    if (!traced.empty() && untraced > 0.0) {
      out["trace.overhead_ratio"] = median(traced_wall) / untraced;
    }
    return out;
  }
};

void print_header(const std::string& workloads, std::uint64_t seed,
                  const std::string& passes) {
  std::string ignored;
  for (const WorkloadInfo& w : all_workloads()) {
    if (!w.seeded) ignored += (ignored.empty() ? "" : ",") + w.name;
  }
  std::printf(
      "# wrht_bench workloads=%s seed=%llu (ignored by %s: fixed inputs) "
      "nproc=%u threads=%u build=%s git=%s %s\n",
      workloads.c_str(), static_cast<unsigned long long>(seed),
      ignored.c_str(), online_cpus(), pass_threads(), WRHT_BENCH_BUILD_TYPE,
      WRHT_BENCH_GIT_DESCRIBE, passes.c_str());
}

// ---------------------------------------------------------------------------
// One workload for --seconds.

int run_one(const WorkloadInfo& info, std::uint64_t seed, int seconds,
            bool trace, bool smoke, const BenchSpec& spec) {
  const std::int64_t begin = now_ns();
  const std::int64_t deadline = begin + kRunDeadlineNs;
  WorkloadResult result;
  result.name = info.name;

  PassRequest request;
  request.workload = info.name;
  request.seed = seed;
  request.smoke = smoke;
  std::int64_t longest = 0;
  const auto pass = [&](const PassRequest& r) {
    const std::int64_t start = now_ns();
    PassSample s = spawn_pass(r, deadline);
    longest = std::max(longest, now_ns() - start);
    if (!r.setup_only) {
      std::fprintf(stderr,
                   "%s%s pass: wall %.6f s, cpu %.6f s, rss %.1f MB, "
                   "setup %.6f s%s%s\n",
                   info.name.c_str(), r.traced ? " traced" : "", s.wall_s,
                   s.cpu_s, s.peak_rss_mb, s.setup_s, s.ok ? "" : ", failed: ",
                   s.error.c_str());
    }
    return s;
  };
  const auto room = [&] { return now_ns() + 2 * longest < deadline; };

  // Warm-up: loads the binary into the page cache. Each pass is a fresh
  // process, so nothing else carries over from one pass to the next, and
  // the time a full warm-up pass would take goes to measured passes.
  PassRequest probe = request;
  probe.setup_only = true;
  (void)pass(probe);
  const std::int64_t from = now_ns();
  const std::int64_t until =
      from + static_cast<std::int64_t>(seconds) * 1000000000;
  if (!trace) {
    while ((result.measured.size() < kMinPasses || now_ns() < until) &&
           room()) {
      const PassSample s = pass(request);
      if (result.absorb(s)) {
        result.measured.push_back(s);
        result.setup_s.push_back(s.setup_s);
      }
      // Set-up-only children between the passes, as many as the share of
      // the run gone by, so the set-up samples span the run: host speed
      // drifts over tens of seconds, and a burst of samples at the end
      // would catch one moment of it.
      const double gone = static_cast<double>(now_ns() - from) /
                          static_cast<double>(until - from);
      while (static_cast<double>(result.setup_s.size()) <
                 gone * static_cast<double>(kMinSetupSamples) &&
             result.setup_s.size() < kMinSetupSamples && room()) {
        result.absorb_setup(pass(probe));
      }
    }
    while (result.setup_s.size() < kMinSetupSamples && room()) {
      result.absorb_setup(pass(probe));
    }
  } else {
    PassRequest traced = request;
    traced.traced = true;
    traced.trace_file = kTracePrefix + info.name + ".json";
    do {
      const PassSample plain = pass(request);
      if (result.absorb(plain)) result.measured.push_back(plain);
      const PassSample timed = pass(traced);
      if (result.absorb(timed)) result.traced.push_back(timed);
    } while (now_ns() < until && room());
  }

  print_header(info.name, seed,
               "passes=" + std::to_string(result.measured.size()) +
                   " traced=" + std::to_string(result.traced.size()) +
                   " setup_samples=" + std::to_string(result.setup_s.size()));
  if (!result.first_failure.empty()) {
    std::printf("# first failure: %s\n", result.first_failure.c_str());
  }
  if (result.measured.empty() || (trace && result.traced.empty())) {
    std::fprintf(stderr, "wrht_bench: no pass of %s completed: %s\n",
                 info.name.c_str(), result.first_failure.c_str());
    return 1;
  }

  std::string metrics;
  const auto emit = [&](const MetricSpec& m, double value) {
    std::printf("# %-32s %14.6g %s\n", m.name.c_str(), value, m.unit.c_str());
    metrics += (metrics.empty() ? "" : ", ") + json_quote(m.name) +
               ": {\"value\": " + number(value) +
               ", \"unit\": " + json_quote(m.unit) + "}";
  };
  if (!trace) {
    for (const MetricSpec& m : spec.end_to_end) {
      emit(m, result.e2e_median(m.name));
    }
  } else {
    const std::map<std::string, double> layers = result.layer_medians();
    for (const MetricSpec& m : spec.per_layer) {
      const auto it = layers.find(m.name);
      emit(m, it == layers.end() ? 0.0 : it->second);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Every workload, interleaved by rep.

std::string samples_json(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) out += (out.empty() ? "" : ", ") + number(v);
  return "[" + out + "]";
}

void write_results(const std::string& path, std::uint64_t seed, int reps,
                   const std::vector<WorkloadResult>& results,
                   const BenchSpec& spec) {
  std::ofstream out(path);
  if (!out) throw wrht::Error("cannot write " + path);
  out << "{\n  \"schema\": \"wrht-bench-e2e-1\",\n  \"header\": {"
      << "\"nproc\": " << online_cpus() << ", \"threads\": " << pass_threads()
      << ", \"build_type\": " << json_quote(WRHT_BENCH_BUILD_TYPE)
      << ", \"git_describe\": " << json_quote(WRHT_BENCH_GIT_DESCRIBE)
      << ", \"seed\": " << seed << ", \"reps\": " << reps << "},\n"
      << "  \"workloads\": [";
  for (std::size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& r = results[w];
    out << (w == 0 ? "\n" : ",\n") << "    {\"name\": " << json_quote(r.name)
        << ", \"seeded\": " << (r.seeded ? "true" : "false")
        << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
        << ", \"digest\": \"" << std::hex << r.digest << std::dec << "\""
        << ",\n     \"metrics\": {";
    for (std::size_t i = 0; i < spec.end_to_end.size(); ++i) {
      const MetricSpec& m = spec.end_to_end[i];
      const std::vector<double> values = r.e2e_samples(m.name);
      out << (i == 0 ? "" : ", ") << json_quote(m.name)
          << ": {\"unit\": " << json_quote(m.unit)
          << ", \"median\": " << number(median(values))
          << ", \"n\": " << values.size()
          << ", \"samples\": " << samples_json(values) << "}";
    }
    out << "}";
    if (!r.traced.empty()) {
      const std::map<std::string, double> layers = r.layer_medians();
      out << ",\n     \"layers\": {";
      for (std::size_t i = 0; i < spec.per_layer.size(); ++i) {
        const MetricSpec& m = spec.per_layer[i];
        const auto it = layers.find(m.name);
        out << (i == 0 ? "" : ", ") << json_quote(m.name)
            << ": {\"unit\": " << json_quote(m.unit) << ", \"value\": "
            << number(it == layers.end() ? 0.0 : it->second) << "}";
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

/// Smoke only: the per-layer names the passes produced must be exactly
/// BENCHMARK.json's list, so neither side can drift from the other.
bool layer_names_match(const std::vector<WorkloadResult>& results,
                       const BenchSpec& spec) {
  std::set<std::string> produced;
  for (const WorkloadResult& r : results) {
    for (const auto& [name, value] : r.layer_medians()) produced.insert(name);
  }
  std::set<std::string> listed;
  for (const MetricSpec& m : spec.per_layer) listed.insert(m.name);
  for (const std::string& name : produced) {
    if (listed.count(name) == 0) {
      std::fprintf(stderr, "wrht_bench: layer %s is not in BENCHMARK.json\n",
                   name.c_str());
    }
  }
  for (const std::string& name : listed) {
    if (produced.count(name) == 0) {
      std::fprintf(stderr, "wrht_bench: no workload produces layer %s\n",
                   name.c_str());
    }
  }
  return produced == listed;
}

/// --smoke: tiny sizes, one rep, and always the traced pass.
int run_all(std::uint64_t seed, bool trace, bool smoke,
            const std::string& out_path, const BenchSpec& spec) {
  const int reps = smoke ? 1 : kReps;
  trace = trace || smoke;
  std::vector<WorkloadResult> results;
  for (const WorkloadInfo& info : all_workloads()) {
    WorkloadResult r;
    r.name = info.name;
    r.seeded = info.seeded;
    results.push_back(std::move(r));
  }
  const auto request = [&](const std::string& workload) {
    PassRequest r;
    r.workload = workload;
    r.seed = seed;
    r.smoke = smoke;
    return r;
  };
  for (int rep = 0; rep <= reps; ++rep) {  // rep 0 is the warm-up
    for (WorkloadResult& r : results) {
      const PassSample s = spawn_pass(request(r.name), now_ns() + kPassTimeoutNs);
      if (r.absorb(s) && rep > 0) {
        r.measured.push_back(s);
        r.setup_s.push_back(s.setup_s);
      }
    }
  }
  if (trace) {
    for (WorkloadResult& r : results) {
      PassRequest traced = request(r.name);
      traced.traced = true;
      traced.trace_file = kTracePrefix + r.name + ".json";
      const PassSample s = spawn_pass(traced, now_ns() + kPassTimeoutNs);
      if (r.absorb(s)) r.traced.push_back(s);
    }
  }

  print_header("all", seed, "reps=" + std::to_string(reps));
  std::uint64_t failed = 0;
  for (const WorkloadResult& r : results) {
    std::printf("%-14s attempted=%llu failed=%llu%s%s\n", r.name.c_str(),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.first_failure.empty() ? "" : " first failure: ",
                r.first_failure.c_str());
    for (const MetricSpec& m : spec.end_to_end) {
      std::printf("  %-30s %14.6g %-6s (median of %zu)\n", m.name.c_str(),
                  r.e2e_median(m.name), m.unit.c_str(),
                  r.e2e_samples(m.name).size());
    }
    std::printf("  %-30s %14.6g ratio\n", "fail_rate",
                r.attempted == 0 ? 1.0
                                 : static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted));
    failed += r.failed;
  }
  if (!out_path.empty()) {
    write_results(out_path, seed, reps, results, spec);
    std::printf("results written to %s\n", out_path.c_str());
  }
  if (smoke && !layer_names_match(results, spec)) return 1;
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --compare

struct Side {
  std::vector<double> samples;
  double median = 0.0;
  double spread = 0.0;  ///< (Q3 - Q1) / median
};

Side side(const Json& workload, const std::string& metric) {
  Side s;
  for (const Json& v : workload.at("metrics").at(metric).at("samples").array()) {
    s.samples.push_back(v.number());
  }
  s.median = median(s.samples);
  if (s.median != 0.0) {
    s.spread = (wrht::percentile(s.samples, 0.75) -
                wrht::percentile(s.samples, 0.25)) /
               std::abs(s.median);
  }
  return s;
}

double fail_rate(const Json& workload) {
  const double attempted = workload.at("attempted").number();
  return attempted > 0 ? workload.at("failed").number() / attempted : 1.0;
}

int compare(const std::string& a_path, const std::string& b_path,
            const BenchSpec& spec) {
  const Json a = Json::parse_file(a_path);
  const Json b = Json::parse_file(b_path);
  std::printf("%-14s %-12s %12s %12s %8s %8s %8s %6s  %s\n", "workload",
              "metric", "A median", "B median", "change", "spread A",
              "spread B", "bound", "label");
  bool regressed = false;
  for (const Json& wa : a.at("workloads").array()) {
    const std::string& name = wa.at("name").string();
    const Json* wb = nullptr;
    for (const Json& w : b.at("workloads").array()) {
      if (w.at("name").string() == name) wb = &w;
    }
    if (wb == nullptr) {
      std::printf("%-14s missing from %s\n", name.c_str(), b_path.c_str());
      regressed = true;
      continue;
    }
    for (const MetricSpec& m : spec.end_to_end) {
      const Side x = side(wa, m.name);
      const Side y = side(*wb, m.name);
      const bool lower = m.better == "lower";
      // The bound as a share of A's median.
      const double bound = m.name == "setup_s"
                               ? std::max(m.bound, kSetupFloorS / x.median)
                               : m.bound;
      // Positive = B is worse, as a share of A's median.
      const double worse =
          (lower ? y.median - x.median : x.median - y.median) / x.median;
      const auto better = [&](double p, double q) {
        return lower ? p < q : p > q;
      };
      const auto all_better = [&](const Side& p, const Side& q) {
        for (const double u : p.samples) {
          for (const double v : q.samples) {
            if (!better(u, v)) return false;
          }
        }
        return true;
      };
      std::size_t wins = 0;
      const std::size_t pairs = std::min(x.samples.size(), y.samples.size());
      for (std::size_t i = 0; i < pairs; ++i) {
        if (better(y.samples[i], x.samples[i])) ++wins;
      }
      const bool decided = all_better(y, x) || all_better(x, y);
      std::string label = "unchanged";
      if (std::max(x.spread, y.spread) > bound && !decided) {
        label = "unresolved";
      } else if (worse > bound) {
        label = "regressed";
        regressed = true;
      } else if (-worse > x.spread &&
                 static_cast<double>(wins) >= 0.9 * static_cast<double>(pairs)) {
        label = "improved";
      }
      std::printf("%-14s %-12s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
                  name.c_str(), m.name.c_str(), x.median, y.median,
                  100.0 * (y.median - x.median) / x.median, 100.0 * x.spread,
                  100.0 * y.spread, 100.0 * bound, label.c_str());
    }
    const double fa = fail_rate(wa);
    const double fb = fail_rate(*wb);
    const bool more_failures = fb > fa;
    regressed = regressed || more_failures;
    std::printf("%-14s %-12s %12.6g %12.6g %8s %8s %8s %6s  %s\n",
                name.c_str(), "fail_rate", fa, fb, "", "", "", "0",
                more_failures ? "regressed" : "unchanged");
  }
  return regressed ? 1 : 0;
}

// ---------------------------------------------------------------------------

int usage(const char* message) {
  std::fprintf(stderr,
               "wrht_bench: %s\nusage: wrht_bench --workload NAME --seed S "
               "--seconds T --trace 0|1\n"
               "       wrht_bench [--seed S] [--trace 0|1] [--out PATH]\n"
               "       wrht_bench --smoke\n"
               "       wrht_bench --compare A.json B.json\n",
               message);
  return 2;
}

bool parse_uint(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end && end != text;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string pass;
  std::string out_path;
  std::string trace_file;
  std::vector<std::string> compare_paths;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  std::uint64_t report_fd = 0;
  bool smoke = false;
  bool traced = false;
  bool setup_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const auto number_arg = [&](std::uint64_t& out) {
      return has_value && parse_uint(argv[++i], out);
    };
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--pass" && has_value) {
      pass = argv[++i];
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--trace-file" && has_value) {
      trace_file = argv[++i];
    } else if (arg == "--compare" && i + 2 < argc) {
      compare_paths = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else if (arg == "--seed") {
      if (!number_arg(seed)) return usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      if (!number_arg(seconds) || seconds == 0 || seconds > 120) {
        return usage("--seconds takes a whole number from 1 to 120");
      }
    } else if (arg == "--trace") {
      if (!number_arg(trace) || trace > 1) return usage("--trace takes 0 or 1");
    } else if (arg == "--report-fd") {
      if (!number_arg(report_fd)) return usage("--report-fd takes an fd");
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      return usage(("unknown or incomplete argument '" + arg + "'").c_str());
    }
  }

  try {
    if (!pass.empty()) {
      PassRequest request{pass, seed, smoke, traced, setup_only, trace_file};
      return run_pass_child(request, static_cast<int>(report_fd));
    }
    const BenchSpec spec = load_spec();
    if (!compare_paths.empty()) {
      return compare(compare_paths[0], compare_paths[1], spec);
    }
    if (!workload.empty()) {
      const WorkloadInfo* info = find_workload(workload);
      if (info == nullptr) {
        return usage(("unknown workload '" + workload + "'").c_str());
      }
      return run_one(*info, seed, static_cast<int>(seconds), trace == 1, smoke,
                     spec);
    }
    return run_all(seed, trace == 1, smoke, out_path, spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wrht_bench: %s\n", e.what());
    return 1;
  }
}
