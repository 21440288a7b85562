#include "harness.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>

#include "spans.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/prof/prof.hpp"
#include "wrht/svc/policy.hpp"

namespace wrht::e2e {

namespace {

volatile sig_atomic_t g_child = 0;

void kill_child(int) {
  if (g_child > 0) kill(g_child, SIGKILL);
}

/// Per-layer metrics read from the pass's spans, the library's inclusive
/// prof phases, and the builder tallies.
void derive_layers(std::map<std::string, double>& out,
                   const std::vector<SpanRecord>& spans,
                   const std::map<std::string, prof::PhaseTotals>& phases,
                   double main_unattributed_s) {
  const std::map<std::string, SpanTotals> totals = totals_by_name(spans);
  const auto span = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto phase = [&](const std::string& name) {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : it->second.seconds;
  };

  const SpanTotals builds[] = {span("collectives.build"),
                               span("core.wrht_build"),
                               span("core.torus_build")};
  double build_s = 0.0;
  double build_calls = 0.0;
  for (const SpanTotals& t : builds) {
    build_s += t.seconds;
    build_calls += static_cast<double>(t.calls);
  }
  out["collectives.build.calls"] = build_calls;
  out["collectives.build_s"] = build_s;
  out["collectives.transfers"] = tallies()["collectives.transfers"];
  out["collectives.rescale_s"] =
      span("collectives.rescale").seconds + phase("sweep.schedule.patch");
  out["core.wrht_build_s"] = builds[1].seconds;
  out["core.torus_build_s"] = builds[2].seconds;

  const SpanTotals ring = span("optical.ring.execute");
  const double torus = span("optical.torus.execute").seconds;
  const double rwa = phase("optical.rwa.batch");
  const double des = phase("optical.des.run");
  out["optical.ring.execute.calls"] = static_cast<double>(ring.calls);
  out["optical.ring.execute_s"] = ring.seconds;
  out["optical.torus.execute_s"] = torus;
  out["optical.rwa_s"] = rwa;
  out["optical.des_s"] = des;
  out["optical.other_s"] = ring.seconds + torus - rwa - des;
  out["electrical.flow.execute_s"] = span("electrical.flow.execute").seconds;
  out["electrical.packet.execute_s"] =
      span("electrical.packet.execute").seconds;
  out["electrical.des_s"] = phase("electrical.des.run");

  const double busy = phase("sweep.worker.busy");
  out["exp.pool.busy_s"] = busy;
  out["exp.pool.idle_s"] = phase("sweep.worker.wall") - busy;

  const double svc_run = span("svc.run").seconds;
  out["svc.run_s"] = svc_run;
  for (const svc::PolicyKind kind : svc::all_policies()) {
    const std::string name = "svc.run." + svc::to_string(kind);
    out[name + "_s"] = span(name).seconds;
  }
  out["sim.events_per_s"] = svc_run > 0.0 ? out["sim.events"] / svc_run : 0.0;
  out["svc.replay_s"] = span("svc.replay").seconds;

  for (const char* name :
       {"obs.analyze_utilization", "obs.serialize", "diag.build_blame",
        "diag.what_if", "diag.service_blame", "verify.blame_identity",
        "verify.oracle"}) {
    out[std::string(name) + "_s"] = span(name).seconds;
  }
  out["trace.unattributed_s"] = main_unattributed_s;
}

void write_all(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

std::string one_line(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  return text;
}

}  // namespace

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

unsigned pass_threads() {
  return std::clamp(online_cpus() / 2, 1u, 4u);
}

int run_pass_child(const PassRequest& request, int report_fd) {
  const WorkloadInfo* info = find_workload(request.workload);
  if (info == nullptr) return 2;
  const PassOptions options{request.seed, request.smoke, request.traced,
                            pass_threads()};
  std::ostringstream report;
  PassRecord record;
  std::map<std::string, double> layers;
  try {
    exp::ensure_initialized();
    if (options.traced) {
      enable_spans();
      register_traced_twins();
    }
    const std::unique_ptr<Workload> workload = info->make(options);
    workload->setup();
    const std::int64_t ready = now_ns();
    report << "ready " << ready << "\n";
    if (!request.setup_only) {
      prof::ProfRegistry registry;
      std::int64_t end = 0;
      {
        std::optional<prof::ScopedProfiling> profiling;
        if (options.traced) profiling.emplace(registry);
        workload->run(record);
        end = now_ns();
      }
      report << "end " << end << "\n";
      if (options.traced) {
        const std::vector<SpanRecord> spans = collect_spans();
        std::int64_t main_self_ns = 0;
        for (const SpanRecord& s : spans) {
          if (s.track == 0) main_self_ns += s.self_ns;
        }
        workload->reference(record);
        layers = record.layers();
        derive_layers(layers, spans, registry.phase_totals(),
                      static_cast<double>(end - ready - main_self_ns) * 1e-9);
        if (!request.trace_file.empty()) {
          obs::ChromeTraceSink sink("wrht_bench " + request.workload);
          export_spans(spans, ready, sink);
          sink.write_file(request.trace_file);
        }
      }
    }
  } catch (const std::exception& e) {
    record.check(false, e.what());
  }
  report << "digest " << record.digest_value() << "\n"
         << "checks " << record.checks() << "\n"
         << "failed " << record.failed() << "\n";
  if (!record.first_failure().empty()) {
    report << "failure " << one_line(record.first_failure()) << "\n";
  }
  char value[64];
  for (const auto& [name, v] : layers) {
    std::snprintf(value, sizeof value, "%.17g", v);
    report << "layer " << name << " " << value << "\n";
  }
  write_all(report_fd, report.str());
  return 0;
}

PassSample spawn_pass(const PassRequest& request, std::int64_t deadline_ns) {
  PassSample sample;
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    sample.error = std::string("pipe: ") + std::strerror(errno);
    return sample;
  }
  std::vector<std::string> args = {"wrht_bench",
                                   "--pass",
                                   request.workload,
                                   "--seed",
                                   std::to_string(request.seed),
                                   "--report-fd",
                                   std::to_string(fds[1])};
  if (request.smoke) args.emplace_back("--smoke");
  if (request.traced) args.emplace_back("--traced");
  if (request.setup_only) args.emplace_back("--setup-only");
  if (!request.trace_file.empty()) {
    args.emplace_back("--trace-file");
    args.push_back(request.trace_file);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::fflush(nullptr);
  const std::int64_t start = now_ns();
  const pid_t pid = fork();
  if (pid < 0) {
    sample.error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return sample;
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec. The child's
    // stdout goes to stderr so the parent's stdout carries results only.
    fcntl(fds[1], F_SETFD, 0);
    dup2(STDERR_FILENO, STDOUT_FILENO);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);

  g_child = pid;
  struct sigaction action {};
  action.sa_handler = kill_child;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGALRM, &action, nullptr);
  const std::int64_t left_s = (deadline_ns - start) / 1000000000;
  alarm(static_cast<unsigned>(std::max<std::int64_t>(1, left_s)));

  std::string text;
  char buffer[4096];
  while (true) {
    const ssize_t n = read(fds[0], buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  alarm(0);
  g_child = 0;

  std::int64_t ready = 0;
  std::int64_t end = 0;
  std::istringstream lines(text);
  std::string key;
  while (lines >> key) {
    if (key == "ready") {
      lines >> ready;
    } else if (key == "end") {
      lines >> end;
    } else if (key == "digest") {
      lines >> sample.digest;
    } else if (key == "checks") {
      lines >> sample.checks;
    } else if (key == "failed") {
      lines >> sample.failed;
    } else if (key == "failure") {
      std::getline(lines >> std::ws, sample.first_failure);
    } else if (key == "layer") {
      std::string name;
      double value = 0.0;
      lines >> name >> value;
      sample.layers[name] = value;
    }
  }

  sample.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
                 static_cast<double>(usage.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                            usage.ru_stime.tv_usec);
  sample.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (ready > 0) sample.setup_s = static_cast<double>(ready - start) * 1e-9;
  if (end > 0) sample.wall_s = static_cast<double>(end - ready) * 1e-9;

  if (WIFSIGNALED(status)) {
    sample.error = "pass killed by signal " + std::to_string(WTERMSIG(status));
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    sample.error = "pass exited with status " +
                   std::to_string(WEXITSTATUS(status));
  } else if (ready == 0 || (!request.setup_only && end == 0)) {
    sample.error = "pass did not finish: " + sample.first_failure;
  } else {
    sample.ok = true;
  }
  return sample;
}

}  // namespace wrht::e2e
