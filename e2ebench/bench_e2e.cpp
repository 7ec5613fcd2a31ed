// bench_e2e: hsim's end-to-end benchmark.  README.md documents the
// workloads, the metrics and their bounds, and how to run, trace, compare
// and bless.
//
//   bench_e2e [--workload=NAME] [--seed=N] [--seconds=S] [--trace[=0|1]]
//             [--out=PATH] [--trace-out=PATH]
//   bench_e2e --compare=A.json[+A2.json...],B.json[+B2.json...]
//   bench_e2e --bless     rewrite expected.json from the default seed
//   bench_e2e --smoke     2 ops per workload + one traced run, checks only
//
// Each workload runs in its own child process (this binary re-executed
// with --child=NAME), so set-up time, peak RSS and the allocator state are
// the workload's own.  A child prints two JSON lines on stdout: one when
// its first, untimed op ends (the parent takes set-up time from spawn to
// that line) and one with its measurements.  The last line this program
// prints is one JSON object: correct, attempted, failed and the metrics.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "probes.hpp"
#include "workloads.hpp"

extern char** environ;

namespace hsim::e2e {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;  // empty: every workload
  std::uint64_t seed = kDefaultSeed;
  double seconds = 15;
  bool trace = false;
  int setups = 5;  // set-up samples per workload
  std::string out = "bench_e2e.json";
  std::string trace_out = "bench_e2e_trace.json";
  std::string compare;
  bool bless = false;
  bool smoke = false;
  // Child-only.
  std::string child;
  bool setup_only = false;
  std::uint64_t max_ops = std::numeric_limits<std::uint64_t>::max();
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e [--workload=NAME] [--seed=N] [--seconds=S] "
               "[--trace[=0|1]] [--out=PATH] [--trace-out=PATH]\n"
               "       bench_e2e --compare=A.json[+...],B.json[+...]\n"
               "       bench_e2e --bless | --smoke\n",
               why.c_str());
  std::exit(2);
}

bool known_workload(std::string_view name) {
  return std::find(kWorkloads.begin(), kWorkloads.end(), name) !=
         kWorkloads.end();
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const bool has_value = eq != std::string::npos;
    const std::string value = has_value ? arg.substr(eq + 1) : "";
    const auto number = [&]() -> double {
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (!has_value || value.empty() || *end != '\0' || !(v >= 0)) {
        usage("bad value in " + arg);
      }
      return v;
    };
    if (key == "--workload" || key == "--child") {
      if (!known_workload(value)) usage("unknown workload in " + arg);
      (key == "--child" ? o.child : o.workload) = value;
    } else if (key == "--seed") {
      o.seed = static_cast<std::uint64_t>(number());
    } else if (key == "--seconds") {
      o.seconds = number();
    } else if (key == "--trace") {
      if (has_value && value != "0" && value != "1") usage("bad " + arg);
      o.trace = !has_value || value == "1";
    } else if (key == "--max-ops") {
      o.max_ops = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(number()));
    } else if (key == "--out" && has_value) {
      o.out = value;
    } else if (key == "--trace-out" && has_value) {
      o.trace_out = value;
    } else if (key == "--compare" && has_value) {
      o.compare = value;
    } else if (arg == "--bless") {
      o.bless = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else {
      usage("unknown option " + arg);
    }
  }
  return o;
}

// --- metric table -------------------------------------------------------------

/// One end-to-end metric: BENCHMARK.json's end_to_end list, plus the
/// metrics that only some workloads report.
struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;     // "lower" or "higher"
  double bound = 0;       // share of the base median (absolute if set below)
  bool absolute = false;  // bound is in the metric's own unit
};

/// Metrics only some workloads report, so BENCHMARK.json cannot list them.
const std::vector<MetricDef>& extra_metrics() {
  static const std::vector<MetricDef> defs = {
      {"op_ms_p99", "ms", "lower", 0.25, false},         // serve_mix
      {"hit_ms_p50", "ms", "lower", 0.25, false},        // serve_mix
      {"cold_ms_p50", "ms", "lower", 0.25, false},       // serve_mix
      {"est_error_pct", "%", "lower", 0.1, true},        // sample_ff
      {"fail_ratio", "failed/attempted", "lower", 0.0, true},
  };
  return defs;
}

struct Spec {
  std::vector<MetricDef> end_to_end;  // BENCHMARK.json, in its order
  std::vector<std::string> per_layer;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Expected<json::Value> read_json(const std::string& path) {
  const std::string text = read_file(path);
  if (text.empty()) return invalid_argument("cannot read " + path);
  auto v = json::parse(text);
  if (!v) return invalid_argument(path + ": " + v.error().message);
  return v;
}

Expected<Spec> read_spec() {
  auto doc = read_json(HSIM_BENCHMARK_JSON);
  if (!doc) return doc.error();
  Spec spec;
  const json::Value* e2e = doc.value().find("end_to_end");
  const json::Value* layer = doc.value().find("per_layer");
  if (e2e == nullptr || !e2e->is_array() || layer == nullptr ||
      !layer->is_array()) {
    return invalid_argument("BENCHMARK.json lacks end_to_end/per_layer");
  }
  for (const json::Value& m : e2e->as_array()) {
    spec.end_to_end.push_back({m.find("name")->as_string(),
                               m.find("unit")->as_string(),
                               m.find("better")->as_string(),
                               m.find("bound")->as_double(), false});
  }
  for (const json::Value& m : layer->as_array()) {
    spec.per_layer.push_back(m.find("name")->as_string());
  }
  return spec;
}

const MetricDef* find_def(const Spec& spec, std::string_view name) {
  for (const auto* defs : {&spec.end_to_end, &extra_metrics()}) {
    for (const MetricDef& d : *defs) {
      if (d.name == name) return &d;
    }
  }
  return nullptr;
}

// --- child side ----------------------------------------------------------------

json::Value metric(double value, std::string unit, std::size_t n) {
  json::Object m;
  m.emplace("value", json::Value::number(value));
  m.emplace("unit", json::Value::string(std::move(unit)));
  m.emplace("n", json::Value::unsigned_integer(n));
  return json::Value::object(std::move(m));
}

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it.
json::Value tail(const SampleSet& s) {
  double p = 50;
  for (const double q : {90.0, 99.0, 99.9}) {
    if (static_cast<double>(s.count()) * (1 - q / 100) >= 10) p = q;
  }
  json::Object t;
  t.emplace("percentile", json::Value::number(p));
  t.emplace("ms", json::Value::number(s.percentile(p)));
  t.emplace("n", json::Value::unsigned_integer(s.count()));
  return json::Value::object(std::move(t));
}

void emit(const json::Value& v) {
  std::printf("%s\n", v.dump().c_str());
  std::fflush(stdout);
}

/// What a child measured.
struct ChildRun {
  SampleSet ops_ms;     // untraced ops
  // Trace mode: traced over untraced op time, minus 1, in percent, from
  // `trace_n` traced ops.
  double trace_overhead_pct = 0;
  std::size_t trace_n = 0;
  SampleSet hit_ms;     // serve_mix, untraced
  SampleSet cold_ms;    // serve_mix, untraced
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  double sim_cycles = 0;  // over untraced ops
  double wall_s = 0;      // of the timed phase
  double est_error_pct = -1;
  std::map<std::pair<int, std::uint64_t>, double> traced_wall_us;  // (tid, op)

  void record(std::string failure) {
    ++attempted;
    if (failure.empty()) return;
    ++failed;
    if (failures.size() < 5) failures.push_back(std::move(failure));
  }
};

void emit_setup(const OpResult& first) {
  json::Object line;
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016" PRIx64, first.digest);
  line.emplace("setup_digest", json::Value::string(hex));
  line.emplace("failure", json::Value::string(first.failure));
  emit(json::Value::object(std::move(line)));
}

void run_serial(const Options& o, ChildRun& run, SpanLog* log) {
  // Each traced op is paired with the untraced op after it, so host speed
  // drift cancels; the overhead is the median ratio.
  SampleSet trace_ratio;
  SerialWorkload w = *make_serial_workload(o.child, o.seed);
  const OpResult first = w.op(nullptr, 0);
  emit_setup(first);
  if (o.setup_only) return;
  run.record(first.failure);
  const double start = now_us();
  const double deadline = start + o.seconds * 1e6;
  for (std::uint64_t op = 1; op <= o.max_ops; ++op) {
    if (op > kMinOps && now_us() >= deadline) break;
    SpanLog* op_log = (log != nullptr && op % 2 == 1) ? log : nullptr;
    const double t0 = now_us();
    OpResult r = w.op(op_log, op);
    const double us = now_us() - t0;
    if (r.failure.empty() && r.digest != first.digest) {
      r.failure = "digest differs from the first op";
    }
    run.record(std::move(r.failure));
    if (op_log != nullptr) {
      run.traced_wall_us[{log->tid(), op}] = us;
    } else {
      run.ops_ms.add(us / 1e3);
      run.sim_cycles += r.sim_cycles;
      const auto traced = run.traced_wall_us.find({0, op - 1});
      if (traced != run.traced_wall_us.end()) {
        trace_ratio.add(traced->second / us);
      }
    }
  }
  run.wall_s = (now_us() - start) / 1e6;
  if (trace_ratio.count() > 0) {
    run.trace_overhead_pct = 100 * (trace_ratio.median() - 1);
    run.trace_n = trace_ratio.count();
  }
  if (w.finish) {
    Finish f = w.finish();
    run.est_error_pct = f.est_error_pct;
    run.record(std::move(f.failure));
  }
}

void run_serve(const Options& o, ChildRun& run, std::vector<SpanLog>* logs) {
  auto w = ServeWorkload::start(o.seed);
  if (!w) {
    emit_setup({0, 0, w.error().message});
    run.record(w.error().message);
    return;
  }
  const OpResult first = w.value()->first_op();
  emit_setup(first);
  if (o.setup_only) return;
  run.record(first.failure);
  ServeWorkload::Phase phase = w.value()->run(o.seconds, o.max_ops, logs);
  run.attempted += phase.attempted;
  run.failed += phase.failed;
  for (auto& f : phase.failures) {
    if (run.failures.size() < 5) run.failures.push_back(std::move(f));
  }
  // Trace overhead compares cache hits that follow a hit: a request right
  // after a cold query runs on cold host caches.  Tracing alternates, so
  // both sets see the same drift.  Samples are in request order per client.
  SampleSet traced_hits;
  SampleSet untraced_hits;
  const ServeWorkload::Sample* prev = nullptr;
  for (const auto& s : phase.samples) {
    if (prev != nullptr && prev->client == s.client && prev->hit && s.hit) {
      (s.traced ? traced_hits : untraced_hits).add(s.ms);
    }
    prev = &s;
    if (s.traced) {
      run.traced_wall_us[{(*logs)[static_cast<std::size_t>(s.client)].tid(), s.op}] =
          s.ms * 1e3;
    } else {
      run.ops_ms.add(s.ms);
      (s.hit ? run.hit_ms : run.cold_ms).add(s.ms);
    }
  }
  if (traced_hits.count() > 0 && untraced_hits.count() > 0) {
    run.trace_overhead_pct =
        100 * (traced_hits.median() / untraced_hits.median() - 1);
    run.trace_n = traced_hits.count();
  }
  run.sim_cycles = phase.sim_cycles;
  run.wall_s = phase.wall_s;
  run.record(w.value()->check_stats());
}

/// How far the traced ops' root spans (self time plus children) fall from
/// the ops' wall time: sum of |gap| over sum of wall time, in percent.  A
/// sum, because on a microsecond cache hit a single preemption between the
/// harness's clock read and the span's is already more than 1%.
double span_closure_pct(
    const std::vector<const SpanLog*>& logs,
    const std::map<std::pair<int, std::uint64_t>, double>& wall_us) {
  double gap = 0;
  double total = 0;
  for (const SpanLog* log : logs) {
    const auto self = log->self_us();
    const auto& spans = log->spans();
    std::vector<double> children(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent >= 0) continue;
      const auto it = wall_us.find({log->tid(), s.op});
      if (it == wall_us.end()) continue;
      gap += std::abs(self[i] + children[i] - it->second);
      total += it->second;
    }
  }
  return total > 0 ? 100 * gap / total : 0;
}

int run_child(const Options& o) {
  ChildRun run;
  SpanLog main_log(0);
  std::vector<SpanLog> client_logs;
  for (int c = 0; c < kHostThreads; ++c) client_logs.emplace_back(c + 1);
  if (o.child == "serve_mix") {
    run_serve(o, run, o.trace ? &client_logs : nullptr);
  } else {
    run_serial(o, run, o.trace ? &main_log : nullptr);
  }
  if (o.setup_only) return 0;

  json::Object metrics;
  json::Object info;
  const auto add = [&](const char* name, double v, const char* unit,
                       std::size_t n) { metrics.emplace(name, metric(v, unit, n)); };
  if (run.ops_ms.count() > 0) {
    const std::size_t n = run.ops_ms.count();
    add("op_ms_p50", run.ops_ms.median(), "ms", n);
    if (!o.trace) {  // a traced phase spends half its wall time traced
      add("ops_per_s", static_cast<double>(n) / run.wall_s, "1/s", n);
      add("sim_mcyc_per_s", run.sim_cycles / 1e6 / run.wall_s, "Mcycles/s", n);
    }
    info.emplace("op_ms_tail", tail(run.ops_ms));
  }
  if (o.child == "serve_mix" && run.hit_ms.count() > 0 &&
      run.cold_ms.count() > 0) {
    add("op_ms_p99", run.ops_ms.percentile(99), "ms", run.ops_ms.count());
    add("hit_ms_p50", run.hit_ms.median(), "ms", run.hit_ms.count());
    add("cold_ms_p50", run.cold_ms.median(), "ms", run.cold_ms.count());
    info.emplace("hit_ms_tail", tail(run.hit_ms));
    info.emplace("cold_ms_tail", tail(run.cold_ms));
  }
  if (run.est_error_pct >= 0) add("est_error_pct", run.est_error_pct, "%", 1);
  add("fail_ratio",
      static_cast<double>(run.failed) /
          static_cast<double>(std::max<std::uint64_t>(run.attempted, 1)),
      "failed/attempted", run.attempted);

  if (o.trace) {
    std::vector<const SpanLog*> logs{&main_log};
    for (const SpanLog& l : client_logs) logs.push_back(&l);
    // Probes run after the workload; their spans land in the main log.
    const ProbeReport probes = run_probes(o.seed, main_log);
    for (const LayerMetric& m : probes.metrics) {
      metrics.emplace(m.name, metric(m.value, m.unit, 1));
    }
    for (const auto& f : probes.failures) run.record("probe: " + f);
    add("bench.trace_overhead_pct", run.trace_overhead_pct, "%", run.trace_n);
    const double closure = span_closure_pct(logs, run.traced_wall_us);
    add("bench.span_closure_pct", closure, "%", run.traced_wall_us.size());
    if (closure > 1) run.record("root span + children differ from op wall time");
    std::ofstream trace_file(o.trace_out);
    trace_file << chrome_trace(logs).dump() << '\n';
    if (!trace_file) run.record("cannot write " + o.trace_out);
  }

  json::Object report;
  report.emplace("attempted", json::Value::unsigned_integer(run.attempted));
  report.emplace("failed", json::Value::unsigned_integer(run.failed));
  json::Array failures;
  for (auto& f : run.failures) failures.push_back(json::Value::string(f));
  report.emplace("failures", json::Value::array(std::move(failures)));
  report.emplace("metrics", json::Value::object(std::move(metrics)));
  report.emplace("info", json::Value::object(std::move(info)));
  emit(json::Value::object(std::move(report)));
  return 0;
}

// --- parent side ---------------------------------------------------------------

struct ChildProcess {
  pid_t pid = -1;
  FILE* out = nullptr;
};

ChildProcess spawn_child(const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return {};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> argv;
  static char self[] = "/proc/self/exe";
  argv.push_back(self);
  std::vector<std::string> copy = args;
  for (auto& a : copy) argv.push_back(a.data());
  argv.push_back(nullptr);
  ChildProcess child;
  const int rc =
      ::posix_spawn(&child.pid, self, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    child.pid = -1;
    return child;
  }
  child.out = ::fdopen(fds[0], "r");
  return child;
}

std::string read_line(FILE* f) {
  std::string line;
  if (f == nullptr) return line;
  for (int c = std::fgetc(f); c != EOF && c != '\n'; c = std::fgetc(f)) {
    line.push_back(static_cast<char>(c));
  }
  return line;
}

/// Reaps the child; returns its peak RSS in MB, or -1 if it failed.
double reap(ChildProcess& child) {
  if (child.out != nullptr) std::fclose(child.out);
  child.out = nullptr;
  if (child.pid < 0) return -1;
  int status = 0;
  rusage usage{};
  while (::wait4(child.pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  child.pid = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct WorkloadResult {
  std::string name;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  json::Object metrics;  // name -> {value, unit, n}
  json::Object info;
  std::string setup_digest;

  void problem(std::string p) {
    correct = false;
    problems.push_back(std::move(p));
  }
};

std::vector<std::string> child_args(const Options& o, const std::string& name) {
  char seed[32];
  std::snprintf(seed, sizeof seed, "%" PRIu64, o.seed);
  std::vector<std::string> args{"--child=" + name, std::string("--seed=") + seed,
                                "--seconds=" + std::to_string(o.seconds)};
  if (o.max_ops != std::numeric_limits<std::uint64_t>::max()) {
    args.push_back("--max-ops=" + std::to_string(o.max_ops));
  }
  if (o.trace) {
    args.push_back("--trace");
    args.push_back("--trace-out=" + o.trace_out);
  }
  return args;
}

/// Waits for a child's set-up line and checks the digest it reports;
/// returns the seconds since `t0` (negative if the child failed first).
double await_setup(ChildProcess& child, WorkloadResult& r, double t0) {
  const std::string line = read_line(child.out);
  const double seconds = (now_us() - t0) / 1e6;
  const auto v = json::parse(line);
  const json::Value* digest = v ? v.value().find("setup_digest") : nullptr;
  const json::Value* failure = v ? v.value().find("failure") : nullptr;
  if (digest == nullptr || failure == nullptr) {
    r.problem("child ended before its first op");
    return -1;
  }
  if (!failure->as_string().empty()) r.problem("first op: " + failure->as_string());
  if (r.setup_digest.empty()) {
    r.setup_digest = digest->as_string();
  } else if (r.setup_digest != digest->as_string()) {
    r.problem("first-op digest differs between child processes");
  }
  return seconds;
}

WorkloadResult run_workload(const Options& o, const std::string& name,
                            const json::Value* expected) {
  WorkloadResult r;
  r.name = name;
  SampleSet setup_s;

  const double t0 = now_us();
  ChildProcess child = spawn_child(child_args(o, name));
  if (child.pid < 0) {
    r.problem("cannot spawn a child process");
    return r;
  }
  const double first_setup = await_setup(child, r, t0);
  if (first_setup >= 0) setup_s.add(first_setup);
  const auto report = json::parse(read_line(child.out));
  const double rss_mb = reap(child);
  if (!report || rss_mb < 0) {
    r.problem("measuring child failed");
    return r;
  }
  const json::Value& rep = report.value();
  r.attempted = rep.find("attempted")->as_u64();
  r.failed = rep.find("failed")->as_u64();
  if (r.failed > 0) r.correct = false;
  for (const json::Value& f : rep.find("failures")->as_array()) {
    r.problems.push_back(f.as_string());
  }
  r.metrics = rep.find("metrics")->as_object();
  r.info = rep.find("info")->as_object();

  if (!o.trace) {
    for (int i = 1; i < o.setups; ++i) {
      std::vector<std::string> args = child_args(o, name);
      args.push_back("--setup-only");
      const double t1 = now_us();
      ChildProcess c = spawn_child(args);
      const double s = await_setup(c, r, t1);
      if (reap(c) < 0 || s < 0) {
        r.problem("set-up child failed");
        continue;
      }
      setup_s.add(s);
    }
    if (setup_s.count() > 0) {
      r.metrics.emplace("setup_s", metric(setup_s.median(), "s", setup_s.count()));
    }
    r.metrics.emplace("peak_rss_mb", metric(rss_mb, "MB", 1));
  }

  if (o.seed == kDefaultSeed) {
    const json::Value* want = expected != nullptr ? expected->find(name) : nullptr;
    if (want == nullptr || want->as_string() != r.setup_digest) {
      r.problem("first-op digest " + r.setup_digest +
                " differs from expected.json (re-bless if the model changed)");
    }
  }
  return r;
}

void print_result(const WorkloadResult& r, const Spec& spec) {
  std::printf("== %s: %s, %" PRIu64 " attempted, %" PRIu64 " failed\n",
              r.name.c_str(), r.correct ? "correct" : "INCORRECT", r.attempted,
              r.failed);
  for (const auto& p : r.problems) std::printf("   problem: %s\n", p.c_str());
  for (const auto& [name, m] : r.metrics) {
    const MetricDef* def = find_def(spec, name);
    std::string bound = "-";
    if (def != nullptr) {
      char b[48];
      if (def->absolute) {
        std::snprintf(b, sizeof b, "+%g %s", def->bound, def->unit.c_str());
      } else {
        std::snprintf(b, sizeof b, "%s%g%%", def->better == "lower" ? "+" : "-",
                      100 * def->bound);
      }
      bound = b;
    }
    std::printf("   %-34s %14.6g %-16s n=%-7" PRIu64 " bound=%s\n", name.c_str(),
                m.find("value")->as_double(), m.find("unit")->as_string().c_str(),
                m.find("n")->as_u64(), bound.c_str());
  }
  for (const auto& [name, t] : r.info) {
    std::printf("   %-34s p%g = %.4g ms (n=%" PRIu64 ")\n", name.c_str(),
                t.find("percentile")->as_double(), t.find("ms")->as_double(),
                t.find("n")->as_u64());
  }
}

/// The contract line: every metric BENCHMARK.json lists for this mode.
json::Value result_line(const std::vector<WorkloadResult>& results,
                        const Spec& spec, bool trace) {
  std::vector<std::string> names;
  if (trace) {
    names = spec.per_layer;
  } else {
    for (const auto& d : spec.end_to_end) names.push_back(d.name);
  }
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  json::Object metrics;
  for (const WorkloadResult& r : results) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& n : names) {
      const auto it = r.metrics.find(n);
      if (it == r.metrics.end()) {
        correct = false;
        std::fprintf(stderr, "bench_e2e: %s did not report %s\n",
                     r.name.c_str(), n.c_str());
        continue;
      }
      json::Object m;
      m.emplace("value", *it->second.find("value"));
      m.emplace("unit", *it->second.find("unit"));
      metrics.emplace(results.size() == 1 ? n : r.name + "/" + n,
                      json::Value::object(std::move(m)));
    }
  }
  json::Object line;
  line.emplace("correct", json::Value::boolean(correct));
  line.emplace("attempted", json::Value::unsigned_integer(std::max<std::uint64_t>(attempted, 1)));
  line.emplace("failed", json::Value::unsigned_integer(failed));
  line.emplace("metrics", json::Value::object(std::move(metrics)));
  return json::Value::object(std::move(line));
}

json::Value results_json(const Options& o,
                         const std::vector<WorkloadResult>& results,
                         const Spec& spec) {
  json::Object workloads;
  for (const WorkloadResult& r : results) {
    json::Object metrics;
    for (const auto& [name, m] : r.metrics) {
      json::Object entry = m.as_object();
      if (const MetricDef* def = find_def(spec, name)) {
        entry.emplace("bound", json::Value::number(def->bound));
        entry.emplace("better", json::Value::string(def->better));
        entry.emplace("absolute", json::Value::boolean(def->absolute));
      }
      metrics.emplace(name, json::Value::object(std::move(entry)));
    }
    json::Object w;
    w.emplace("correct", json::Value::boolean(r.correct));
    w.emplace("attempted", json::Value::unsigned_integer(r.attempted));
    w.emplace("failed", json::Value::unsigned_integer(r.failed));
    w.emplace("metrics", json::Value::object(std::move(metrics)));
    w.emplace("info", json::Value::object(r.info));
    workloads.emplace(r.name, json::Value::object(std::move(w)));
  }
  json::Object root;
  root.emplace("schema", json::Value::string("hsim-bench-e2e-v1"));
  root.emplace("seed", json::Value::unsigned_integer(o.seed));
  root.emplace("seconds", json::Value::number(o.seconds));
  root.emplace("trace", json::Value::boolean(o.trace));
  root.emplace("workloads", json::Value::object(std::move(workloads)));
  return json::Value::object(std::move(root));
}

std::string expected_path() { return std::string(HSIM_E2E_DIR) + "/expected.json"; }

std::vector<WorkloadResult> run_all(const Options& o, const Spec& spec) {
  const auto expected = read_json(expected_path());
  const json::Value* digests =
      expected ? expected.value().find("digests") : nullptr;
  std::vector<WorkloadResult> results;
  for (const std::string_view w : kWorkloads) {
    if (!o.workload.empty() && o.workload != w) continue;
    results.push_back(run_workload(o, std::string(w), digests));
    print_result(results.back(), spec);
  }
  return results;
}

int run_main(const Options& o, const Spec& spec) {
  const std::vector<WorkloadResult> results = run_all(o, spec);
  std::ofstream out(o.out);
  out << results_json(o, results, spec).dump() << '\n';
  if (!out) std::fprintf(stderr, "bench_e2e: cannot write %s\n", o.out.c_str());
  std::printf("[results: %s%s%s]\n", o.out.c_str(), o.trace ? ", spans: " : "",
              o.trace ? o.trace_out.c_str() : "");
  emit(result_line(results, spec, o.trace));
  return 0;
}

// --- compare, bless, smoke ------------------------------------------------------

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::stringstream in(s);
  for (std::string part; std::getline(in, part, sep);) parts.push_back(part);
  return parts;
}

/// (workload, metric) -> values over every file of one side.
using Pooled = std::map<std::pair<std::string, std::string>, SampleSet>;

Expected<Pooled> pool_side(const std::string& files) {
  Pooled pooled;
  for (const std::string& path : split(files, '+')) {
    auto doc = read_json(path);
    if (!doc) return doc.error();
    const json::Value* workloads = doc.value().find("workloads");
    if (workloads == nullptr || !workloads->is_object()) {
      return invalid_argument(path + " is not a bench_e2e result");
    }
    for (const auto& [w, body] : workloads->as_object()) {
      const json::Value* metrics = body.find("metrics");
      if (metrics == nullptr) continue;
      for (const auto& [m, v] : metrics->as_object()) {
        pooled[{w, m}].add(v.find("value")->as_double());
      }
    }
  }
  return pooled;
}

int run_compare(const Options& o, const Spec& spec) {
  const auto sides = split(o.compare, ',');
  if (sides.size() != 2) usage("--compare takes two sides: A,B");
  const auto a = pool_side(sides[0]);
  const auto b = pool_side(sides[1]);
  if (!a || !b) {
    std::fprintf(stderr, "bench_e2e: %s\n",
                 (!a ? a.error() : b.error()).message.c_str());
    return 2;
  }
  int outside = 0;
  std::printf("%-13s %-16s %12s %12s %9s %10s %s\n", "workload", "metric",
              "A median", "B median", "worse by", "bound", "verdict");
  for (const auto& [key, base] : a.value()) {
    const MetricDef* def = find_def(spec, key.second);
    if (def == nullptr) continue;  // per-layer metrics carry no bound
    const auto it = b.value().find(key);
    if (it == b.value().end()) {
      std::printf("%-13s %-16s missing from B\n", key.first.c_str(),
                  key.second.c_str());
      ++outside;
      continue;
    }
    const double am = base.median();
    const double bm = it->second.median();
    const double sign = def->better == "lower" ? 1.0 : -1.0;
    const double worse =
        def->absolute ? sign * (bm - am) : (am != 0 ? sign * (bm - am) / am : 0);
    const bool ok = worse <= def->bound + 1e-12;
    if (!ok) ++outside;
    std::printf("%-13s %-16s %12.6g %12.6g %8.2f%s %9.2f%s %s (n=%zu,%zu)\n",
                key.first.c_str(), key.second.c_str(), am, bm,
                def->absolute ? worse : 100 * worse, def->absolute ? " " : "%",
                def->absolute ? def->bound : 100 * def->bound,
                def->absolute ? " " : "%", ok ? "ok" : "OUTSIDE BOUND",
                base.count(), it->second.count());
  }
  std::printf("[compare: %d pair(s) outside their bound]\n", outside);
  return outside == 0 ? 0 : 1;
}

int run_bless() {
  json::Object digests;
  for (const std::string_view w : kWorkloads) {
    WorkloadResult r;
    r.name = std::string(w);
    ChildProcess c = spawn_child({"--child=" + r.name, "--setup-only",
                                  "--seed=" + std::to_string(kDefaultSeed)});
    const double s = await_setup(c, r, now_us());
    if (reap(c) < 0 || s < 0 || !r.correct) {
      std::fprintf(stderr, "bench_e2e: cannot bless %s\n", r.name.c_str());
      return 1;
    }
    digests.emplace(r.name, json::Value::string(r.setup_digest));
  }
  json::Object root;
  root.emplace("seed", json::Value::unsigned_integer(kDefaultSeed));
  root.emplace("digests", json::Value::object(std::move(digests)));
  std::ofstream out(expected_path());
  out << json::Value::object(std::move(root)).dump() << '\n';
  std::printf("[blessed %s]\n", expected_path().c_str());
  return out ? 0 : 1;
}

int run_smoke(const Spec& spec) {
  Options o;
  o.seconds = 0;
  o.max_ops = 2;
  o.setups = 1;
  o.out = "bench_e2e_smoke.json";
  int bad = 0;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "smoke: %s\n", what.c_str());
      ++bad;
    }
  };
  const auto results = run_all(o, spec);
  for (const auto& r : results) check(r.correct, r.name + " incorrect");
  std::ofstream(o.out) << results_json(o, results, spec).dump() << '\n';
  check(static_cast<bool>(read_json(o.out)), o.out + " does not parse");

  o.trace = true;
  o.workload = "sample_ff";
  o.trace_out = "bench_e2e_smoke_spans.json";
  const auto traced = run_all(o, spec);
  check(traced.size() == 1 && traced.front().correct, "traced run incorrect");
  const json::Value line = result_line(traced, spec, true);
  check(line.find("correct")->as_bool(), "traced run misses a per-layer metric");
  const auto spans = read_json(o.trace_out);
  const json::Value* events = spans ? spans.value().find("traceEvents") : nullptr;
  check(events != nullptr && !events->as_array().empty(),
        o.trace_out + " has no spans");
  std::printf("smoke: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hsim::e2e

int main(int argc, char** argv) {
  using namespace hsim::e2e;
  const Options o = parse_options(argc, argv);
  if (!o.child.empty()) return run_child(o);
  const auto spec = read_spec();
  if (!spec) {
    std::fprintf(stderr, "bench_e2e: %s\n", spec.error().message.c_str());
    return 2;
  }
  if (!o.compare.empty()) return run_compare(o, spec.value());
  if (o.bless) return run_bless();
  if (o.smoke) return run_smoke(spec.value());
  return run_main(o, spec.value());
}
