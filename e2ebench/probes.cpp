#include "probes.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <string_view>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "conformance/func_exec.hpp"
#include "ff/fast_forward.hpp"
#include "gpu/gpu_engine.hpp"
#include "mem/cache.hpp"
#include "mem/memory_system.hpp"
#include "programs.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "serve/session.hpp"
#include "sm/sm_core.hpp"
#include "trace/kernels.hpp"
#include "workloads.hpp"

namespace hsim::e2e {
namespace {

/// Median wall time of `reps` calls, in `scale` units per microsecond.
template <class F>
double median_of(int reps, double scale, F&& f) {
  SampleSet s;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_us();
    f();
    s.add((now_us() - t0) * scale);
  }
  return s.median();
}
constexpr double kMs = 1e-3;
constexpr double kUs = 1.0;

// Results of timed loops land here so the compiler cannot drop the loops.
volatile std::uint64_t g_sink = 0;

double cpu_seconds() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

class Probes {
 public:
  Probes(std::uint64_t seed, SpanLog& log) : seed_(seed), log_(log) {}

  ProbeReport run() {
    {
      ScopedSpan span(&log_, "probe.sm", 0);
      sm_layer();
    }
    {
      ScopedSpan span(&log_, "probe.mem", 0);
      mem_layer();
    }
    {
      ScopedSpan span(&log_, "probe.core", 0);
      core_layer();
    }
    {
      ScopedSpan span(&log_, "probe.gpu", 0);
      gpu_layer();
    }
    {
      ScopedSpan span(&log_, "probe.ff", 0);
      ff_layer();
    }
    {
      ScopedSpan span(&log_, "probe.serve", 0);
      serve_layer();
    }
    return std::move(report_);
  }

 private:
  void add(std::string name, double value, std::string unit) {
    report_.metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string what) { report_.failures.push_back(std::move(what)); }

  /// One grid launch; an error is recorded and reads as an empty result.
  gpu::ChipResult chip(const gpu::ChipOptions& options,
                       const isa::Program& program,
                       const sm::LaunchConfig& config,
                       std::span<const gpu::WarmRange> ranges = {}) {
    auto r = gpu::GpuEngine(device_, options).run(program, config, {}, ranges);
    if (!r) {
      fail("GpuEngine::run: " + r.error().message);
      return {};
    }
    return std::move(r).value();
  }

  /// Median of a sample set that a failed probe may have left empty.
  double median(const SampleSet& s, std::string_view what) {
    if (s.count() > 0) return s.median();
    fail(std::string("no samples for ") + std::string(what));
    return 0;
  }

  void sm_layer() {
    const isa::Program fig7 = fig07_dpx_program(device_);
    sm::RunResult run;
    const double fig7_ms = median_of(5, kMs, [&] {
      sm::SmCore core(device_, nullptr);
      run = core.run(fig7, {.threads_per_block = 1024, .blocks = 2});
    });
    add("sm.fig7_sm_ms", fig7_ms, "ms");
    add("sm.ns_per_inst",
        fig7_ms * 1e6 / static_cast<double>(run.instructions_issued), "ns");

    isa::Program ldg;
    ldg.add({.op = isa::Opcode::kLdgCg, .rd = 1, .ra = 1, .access_bytes = 4});
    ldg.set_iterations(2048);
    SampleSet chain;
    for (int i = 0; i < 5; ++i) {
      mem::MemorySystem memsys(device_, 1);
      sm::SmCore core(device_, &memsys);
      const double t0 = now_us();
      (void)core.run(ldg, {.threads_per_block = 32, .blocks = 1});
      chain.add((now_us() - t0) * kMs);
    }
    add("sm.ldg_chain_ms", chain.median(), "ms");

    SampleSet ctor;
    for (int i = 0; i < 21; ++i) {
      const double t0 = now_us();
      auto core = std::make_unique<sm::SmCore>(device_, nullptr);
      ctor.add(now_us() - t0);
    }
    add("sm.core_ctor_us", ctor.median(), "us");
  }

  void mem_layer() {
    // The BM_CacheAccess geometry: 256 KiB, 4-way, over 4096 addresses.
    mem::Cache cache({.size_bytes = 256ull << 10, .line_bytes = 128,
                      .sector_bytes = 32, .ways = 4});
    Xoshiro256ss rng(seed_);
    std::vector<std::uint64_t> addrs(4096);
    for (auto& a : addrs) a = rng.below(1ull << 20);
    std::uint64_t hits = 0;
    constexpr int kPasses = 64;
    const double batch_us = median_of(5, kUs, [&] {
      for (int p = 0; p < kPasses; ++p) {
        for (const std::uint64_t a : addrs) {
          hits += cache.access(a) == mem::CacheOutcome::kHit ? 1 : 0;
        }
      }
    });
    add("mem.cache_access_ns",
        batch_us * 1e3 / static_cast<double>(kPasses * addrs.size()), "ns");
    g_sink = hits;

    const std::uint64_t l2 = device_.memory.l2_bytes;
    {
      mem::MemorySystem memsys(device_, 1);
      const double t0 = now_us();
      memsys.warm(0, 2 * l2, mem::MemSpace::kGlobalCg);
      add("mem.warm_ns_per_line",
          (now_us() - t0) * 1e3 / static_cast<double>(2 * l2 / 128), "ns");
    }
    {
      // An L2-resident chase, one sector per element.
      const std::uint64_t ws = l2 / 8;
      mem::MemorySystem memsys(device_, 1);
      memsys.warm(0, ws, mem::MemSpace::kGlobalCg);
      const auto chain = random_cycle(static_cast<std::uint32_t>(ws / 32), rng);
      constexpr int kLoads = 1 << 16;
      double now = 0;
      std::uint32_t index = 0;
      const double t0 = now_us();
      for (int i = 0; i < kLoads; ++i) {
        now = memsys.load(0, std::uint64_t{index} * 32, mem::MemSpace::kGlobalCg,
                          now).ready_time;
        index = chain[index];
      }
      add("mem.load_ns", (now_us() - t0) * 1e3 / kLoads, "ns");
    }
    add("mem.memsys_ctor_us", median_of(11, kUs, [&] {
          mem::MemorySystem memsys(device_, 1);
        }),
        "us");

    // Exact PMU counts of one stream op: only a model change moves them.
    const sm::LaunchConfig grid = stream_grid(device_);
    const int total_threads = grid.threads_per_block * grid.total_blocks;
    const std::int64_t base = stream_base(seed_);
    for (const bool warm : {false, true}) {
      prof::PmuCounters pmu;
      gpu::ChipOptions options;
      options.threads = kHostThreads;
      options.pmu = &pmu;
      const StreamShape shape = warm ? kWarmStream : kColdStream;
      const std::vector<gpu::WarmRange> ranges{
          {static_cast<std::uint64_t>(base), stream_footprint(grid, shape),
           mem::MemSpace::kGlobalCg}};
      (void)chip(options,
                 streaming_program(total_threads, shape.loads,
                                   shape.iterations, base),
                 grid, warm ? std::span<const gpu::WarmRange>(ranges)
                            : std::span<const gpu::WarmRange>());
      const std::string which = warm ? "stream_warm" : "stream_cold";
      add("mem.l2_hit_ratio." + which,
          pmu.get(prof::Counter::kL2SectorHits) /
              pmu.get(prof::Counter::kL2SectorAccesses),
          "ratio");
      if (!warm) {
        add("mem.dram_sectors.stream_cold",
            pmu.get(prof::Counter::kDramSectors), "count");
      }
    }
  }

  void core_layer() {
    // One table4_chase op; its child spans split it by memory level.
    auto chase = make_serial_workload("table4_chase", seed_);
    const std::size_t first = log_.spans().size();
    (void)chase->op(&log_, 0);
    const auto& spans = log_.spans();
    const double total = spans[first].end_us - spans[first].start_us;
    std::map<std::string, double> by_level;
    for (std::size_t i = first + 1; i < spans.size(); ++i) {
      by_level[std::string(spans[i].name)] += spans[i].end_us - spans[i].start_us;
    }
    for (const char* level : {"l1", "shared", "l2", "dram"}) {
      const double us = by_level[std::string("core.pchase.") + level];
      add(std::string("core.pchase_ms.") + level, us * kMs, "ms");
      add(std::string("core.pchase_pct.") + level, 100 * us / total, "%");
    }
  }

  void gpu_layer() {
    gpu::ChipOptions t1;
    t1.threads = 1;
    gpu::ChipOptions t3;
    t3.threads = kHostThreads;

    isa::Program null_kernel;
    null_kernel.add({.op = isa::Opcode::kFAdd, .rd = 10, .ra = 1, .rb = 2});
    add("gpu.launch_ms", median_of(5, kMs, [&] {
          (void)chip(t3, null_kernel,
                     {.threads_per_block = 32, .total_blocks = 1});
        }),
        "ms");

    // Each grid: once at 1 thread, the median of 3 at kHostThreads, and
    // the process CPU time of one kHostThreads run.
    struct Grid {
      const char* name;
      isa::Program program;
      sm::LaunchConfig config;
    };
    const sm::LaunchConfig stream = stream_grid(device_);
    const int stream_threads = stream.threads_per_block * stream.total_blocks;
    const Grid grids[] = {
        {"fig7", fig07_dpx_program(device_), fig07_grid(device_)},
        {"stream_cold",
         streaming_program(stream_threads, kColdStream.loads,
                           kColdStream.iterations, stream_base(seed_)),
         stream}};
    for (const Grid& g : grids) {
      gpu::ChipResult result;
      const double ms1 = median_of(1, kMs, [&] {
        result = chip(t1, g.program, g.config);
      });
      const double cpu0 = cpu_seconds();
      const double ms3 = median_of(3, kMs, [&] {
        (void)chip(t3, g.program, g.config);
      });
      const double cpu = (cpu_seconds() - cpu0) / 3;
      const std::string n = g.name;
      const std::string short_name = n == "fig7" ? "fig7" : "stream";
      add("gpu." + n + "_ms.t1", ms1, "ms");
      add("gpu." + n + "_ms.t3", ms3, "ms");
      add("gpu." + short_name + "_speedup", ms1 / ms3, "x");
      add("gpu." + short_name + "_cpu_s", cpu, "s");
      add("gpu.us_per_epoch." + n, ms3 * 1e3 / result.epochs, "us");
      add("gpu.epochs." + n, result.epochs, "count");
      if (n == "fig7") {
        add("gpu.insts.fig7", static_cast<double>(result.instructions_issued),
            "count");
      } else {
        add("gpu.mem_transactions.stream_cold",
            static_cast<double>(result.mem_transactions), "count");
      }
    }
    const std::vector<gpu::WarmRange> ranges{
        {static_cast<std::uint64_t>(stream_base(seed_)),
         stream_footprint(stream, kWarmStream), mem::MemSpace::kGlobalCg}};
    const isa::Program warm =
        streaming_program(stream_threads, kWarmStream.loads,
                          kWarmStream.iterations, stream_base(seed_));
    add("gpu.stream_warm_ms.t3", median_of(3, kMs, [&] {
          (void)chip(t3, warm, stream, ranges);
        }),
        "ms");
  }

  void ff_layer() {
    const auto kernel = trace::make_trace_kernel("smem_conflict", 8192);
    const sm::BlockShape shape{.threads_per_block = 256, .blocks = 4};
    const ff::FastForwardEngine engine(device_);
    ff::SampleOptions options;
    options.interval = 1024;
    options.detail = 2;
    options.warmup = 2;
    options.global_seed = seed_;
    ff::SampleResult sampled;
    const double sample_ms = median_of(3, kMs, [&] {
      sampled = engine.sample(kernel->program, shape, kernel->needs_mem, options);
    });
    ff::ExactOptions exact_options;
    exact_options.global_seed = seed_;
    ff::ExactResult exact;
    const double exact_ms = median_of(1, kMs, [&] {
      exact = engine.exact(kernel->program, shape, kernel->needs_mem,
                           exact_options);
    });
    add("ff.sample_ms", sample_ms, "ms");
    add("ff.exact_ms", exact_ms, "ms");
    add("ff.speedup", exact_ms / sample_ms, "x");
    add("ff.detailed_inst_frac",
        static_cast<double>(sampled.detailed_instructions) /
            static_cast<double>(sampled.instructions),
        "ratio");
    add("ff.windows", static_cast<double>(sampled.windows.size()), "count");
    add("ff.est_error_pct",
        100 * std::abs(sampled.cycles_est - exact.result.cycles) /
            exact.result.cycles,
        "%");

    conformance::FuncExec func(device_, kernel->program, shape, {});
    const double t0 = now_us();
    func.run_to_completion();
    add("ff.funcexec_ns_per_inst",
        (now_us() - t0) * 1e3 / static_cast<double>(func.instructions()),
        "ns");
  }

  void serve_layer() {
    // Replay client 0's share of the serve_mix stream in process, split by
    // whether the cache's hit count moved.
    serve::ServeEngine engine;
    ServeMix mix(seed_, 0);
    SampleSet parse_us;
    SampleSet hit_us;
    SampleSet cold_ms;
    SampleSet reply_us;
    std::string profile_reply;
    std::string hit_line;
    for (int i = 0; i < 300; ++i) {
      const ServeMix::Request request = mix.next();
      double t0 = now_us();
      const auto parsed = serve::parse_request(request.line);
      parse_us.add(now_us() - t0);
      if (!parsed) continue;
      const std::uint64_t hits_before = engine.cache().stats().hits;
      t0 = now_us();
      const auto payload = engine.execute(parsed.value());
      const double exec_us = now_us() - t0;
      if (!payload) continue;
      const bool hit = engine.cache().stats().hits > hits_before;
      (hit ? hit_us : cold_ms).add(hit ? exec_us : exec_us * kMs);
      t0 = now_us();
      std::string reply = serve::make_ok_reply(parsed.value().id, payload.value());
      reply_us.add(now_us() - t0);
      if (hit) hit_line = request.line;
      if (parsed.value().verb == "profile") profile_reply = reply;
      mix.answered(request, std::move(reply));
    }
    add("serve.parse_request_us", median(parse_us, "parse_request"), "us");
    add("serve.execute_hit_us", median(hit_us, "cache hits"), "us");
    add("serve.execute_cold_ms", median(cold_ms, "cold queries"), "ms");
    add("serve.reply_us", median(reply_us, "make_ok_reply"), "us");

    serve::Session session(engine);
    const auto stats =
        cache_stats(session.handle_line(R"({"id":0,"verb":"stats"})"))
            .value_or(serve::ResultCache::Stats{});
    if (stats.lookups == 0) fail("stats reply lacks cache lookups");
    add("serve.hit_ratio",
        static_cast<double>(stats.hits) /
            static_cast<double>(std::max<std::uint64_t>(stats.lookups, 1)),
        "ratio");
    add("serve.evictions", static_cast<double>(stats.evictions), "count");

    serve::ResultCache results(256);
    for (std::uint64_t k = 0; k < 256; ++k) results.insert(k, profile_reply);
    constexpr int kLookups = 1 << 14;
    std::size_t bytes = 0;
    const double lookup_us = median_of(5, kUs, [&] {
      for (int i = 0; i < kLookups; ++i) bytes += results.lookup(i & 255)->size();
    });
    add("serve.cache_lookup_ns", lookup_us * 1e3 / kLookups, "ns");
    const serve::QueryIdentity identity{
        "profile", device_.name, 0x9e3779b97f4a7c15ull,
        R"({"blocks":4,"device":"H800 PCIe","iters":1500,"kernel":"mma","mode":"sm","threads_per_block":256})",
        std::string(serve::kCodeVersion)};
    std::uint64_t keys = 0;
    const double key_us = median_of(5, kUs, [&] {
      for (int i = 0; i < kLookups; ++i) keys ^= serve::cache_key(identity);
    });
    add("serve.cache_key_ns", key_us * 1e3 / kLookups, "ns");
    g_sink = bytes ^ keys;

    // Socket cost: a cache hit over TCP against the same hit in process.
    const double session_us = median_of(201, kUs, [&] {
      (void)session.handle_line(hit_line);
    });
    std::thread server;
    const auto port = start_server(server);
    double tcp_us = session_us;
    if (!port) {
      fail("serve: " + port.error().message);
    } else {
      const int fd = connect_loopback(port.value());
      std::string buffer;
      (void)round_trip(fd, buffer, hit_line);  // cold on this engine
      tcp_us = median_of(201, kUs, [&] {
        if (round_trip(fd, buffer, hit_line).empty()) fail("TCP round trip");
      });
      ::close(fd);
      stop_server(server, port.value());
    }
    add("serve.socket_us", tcp_us - session_us, "us");

    const auto profile = json::parse(profile_reply);
    if (!profile) fail("the replay produced no profile reply");
    const double parse_json_us = median_of(201, kUs, [&] {
      (void)json::parse(profile_reply);
    });
    const json::Value value = profile ? profile.value() : json::Value();
    const double dump_us = median_of(201, kUs, [&] { (void)value.dump(); });
    add("json.parse_us", parse_json_us, "us");
    add("json.dump_us", dump_us, "us");
  }

  std::uint64_t seed_;
  SpanLog& log_;
  const arch::DeviceSpec& device_ = arch::h800_pcie();
  ProbeReport report_;
};

}  // namespace

ProbeReport run_probes(std::uint64_t seed, SpanLog& log) {
  return Probes(seed, log).run();
}

}  // namespace hsim::e2e
