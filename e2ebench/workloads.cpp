#include "workloads.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "common/json.hpp"
#include "common/state_io.hpp"
#include "core/pchase.hpp"
#include "ff/fast_forward.hpp"
#include "gpu/gpu_engine.hpp"
#include "programs.hpp"
#include "serve/server.hpp"
#include "sim/sweep.hpp"
#include "trace/kernels.hpp"

namespace hsim::e2e {
namespace {

std::uint64_t digest_of(const common::StateWriter& w) {
  return common::fnv1a(w.bytes());
}

// --- table4_chase -----------------------------------------------------------

/// The paper's Table IV: a p-chase at every memory level on each device,
/// one thread, chain seeds derived from the workload seed.
SerialWorkload table4_chase(std::uint64_t seed) {
  struct Row {
    mem::MemLevel level;
    const char* span;
  };
  static constexpr Row kRows[] = {{mem::MemLevel::kL1, "core.pchase.l1"},
                                  {mem::MemLevel::kShared, "core.pchase.shared"},
                                  {mem::MemLevel::kL2, "core.pchase.l2"},
                                  {mem::MemLevel::kDram, "core.pchase.dram"}};
  const arch::DeviceSpec* devices[] = {&arch::rtx4090(), &arch::a100_pcie(),
                                       &arch::h800_pcie()};
  SerialWorkload w;
  w.op = [seed, devices](SpanLog* log, std::uint64_t op) {
    ScopedSpan root(log, "table4_chase.op", op);
    OpResult out;
    common::StateWriter digest;
    std::size_t cell = 0;
    for (const Row& row : kRows) {
      for (const arch::DeviceSpec* device : devices) {
        ScopedSpan span(log, row.span, op);
        core::PChaseConfig config;
        config.seed = sim::derive_point_seed(seed, cell++);
        const auto r = core::pchase(*device, row.level, config);
        if (!r) {
          out.failure = "pchase: " + r.error().message;
          return out;
        }
        digest.f64(r.value().avg_latency_cycles);
        digest.f64(r.value().hit_rate);
        digest.u64(r.value().tlb_misses);
        out.sim_cycles += r.value().usage.total_cycles;
      }
    }
    out.digest = digest_of(digest);
    return out;
  };
  return w;
}

// --- full-chip workloads ----------------------------------------------------

std::string check_chip(const Expected<gpu::ChipResult>& r,
                       const sm::LaunchConfig& grid) {
  if (!r) return "GpuEngine::run: " + r.error().message;
  const std::uint64_t launched =
      static_cast<std::uint64_t>(grid.total_blocks) *
      static_cast<std::uint64_t>((grid.threads_per_block + 31) / 32);
  if (r.value().warps_retired != launched) {
    return "warps_retired " + std::to_string(r.value().warps_retired) +
           " != launched " + std::to_string(launched);
  }
  return "";
}

void digest_chip(common::StateWriter& w, const gpu::ChipResult& r) {
  w.f64(r.cycles);
  w.u64(r.instructions_issued);
  w.u64(r.stall_cycles);
  w.u64(r.mem_transactions);
  w.u64(r.warps_retired);
  w.u64(static_cast<std::uint64_t>(r.epochs));
}

/// The Fig 7 DPX grid on H800.  It reads no data, so the seed does not
/// change it.
SerialWorkload fig7_chip() {
  const arch::DeviceSpec& device = arch::h800_pcie();
  auto program = std::make_shared<const isa::Program>(fig07_dpx_program(device));
  const sm::LaunchConfig grid = fig07_grid(device);
  SerialWorkload w;
  w.op = [program, grid, &device](SpanLog* log, std::uint64_t op) {
    ScopedSpan root(log, "fig7_chip.op", op);
    OpResult out;
    gpu::ChipOptions options;
    options.threads = kHostThreads;
    Expected<gpu::ChipResult> r = [&] {
      ScopedSpan span(log, "gpu.run", op);
      return gpu::GpuEngine(device, options).run(*program, grid);
    }();
    out.failure = check_chip(r, grid);
    if (!out.failure.empty()) return out;
    common::StateWriter digest;
    digest_chip(digest, r.value());
    out.digest = digest_of(digest);
    out.sim_cycles = r.value().cycles;
    return out;
  };
  return w;
}

/// The Table V(d) H800 row: a cold stream over a footprint larger than L2,
/// then a pre-warmed L2-resident stream, both from a seeded base address.
SerialWorkload stream_chip(std::uint64_t seed) {
  const arch::DeviceSpec& device = arch::h800_pcie();
  const sm::LaunchConfig grid = stream_grid(device);
  const int total_threads = grid.threads_per_block * grid.total_blocks;
  const std::int64_t base = stream_base(seed);
  auto cold = std::make_shared<const isa::Program>(streaming_program(
      total_threads, kColdStream.loads, kColdStream.iterations, base));
  auto warm = std::make_shared<const isa::Program>(streaming_program(
      total_threads, kWarmStream.loads, kWarmStream.iterations, base));
  const std::vector<gpu::WarmRange> ranges{
      {static_cast<std::uint64_t>(base), stream_footprint(grid, kWarmStream),
       mem::MemSpace::kGlobalCg}};

  SerialWorkload w;
  w.op = [=, &device](SpanLog* log, std::uint64_t op) {
    ScopedSpan root(log, "stream_chip.op", op);
    OpResult out;
    gpu::ChipOptions options;
    options.threads = kHostThreads;
    const gpu::GpuEngine engine(device, options);
    common::StateWriter digest;
    for (const bool is_warm : {false, true}) {
      Expected<gpu::ChipResult> r = [&] {
        ScopedSpan span(log, is_warm ? "gpu.run.warm" : "gpu.run.cold", op);
        return is_warm ? engine.run(*warm, grid, {}, ranges)
                       : engine.run(*cold, grid);
      }();
      out.failure = check_chip(r, grid);
      if (!out.failure.empty()) return out;
      digest_chip(digest, r.value());
      out.sim_cycles += r.value().cycles;
    }
    out.digest = digest_of(digest);
    return out;
  };
  return w;
}

// --- sample_ff --------------------------------------------------------------

/// SMARTS-style sampling of the smem_conflict kernel; the check after the
/// timed phase compares the estimate with one exact run.
SerialWorkload sample_ff(std::uint64_t seed) {
  struct State {
    trace::TraceKernel kernel;
    ff::SampleOptions options;
    double last_estimate = 0;
  };
  auto state = std::make_shared<State>();
  state->kernel = *trace::make_trace_kernel("smem_conflict", 8192);
  state->options.interval = 1024;
  state->options.detail = 2;
  state->options.warmup = 2;
  state->options.global_seed = seed;
  static constexpr sm::BlockShape kShape{.threads_per_block = 256, .blocks = 4};
  const arch::DeviceSpec& device = arch::h800_pcie();

  SerialWorkload w;
  w.op = [state, &device](SpanLog* log, std::uint64_t op) {
    ScopedSpan root(log, "sample_ff.op", op);
    OpResult out;
    const ff::FastForwardEngine engine(device);
    ff::SampleResult r = [&] {
      ScopedSpan span(log, "ff.sample", op);
      return engine.sample(state->kernel.program, kShape,
                           state->kernel.needs_mem, state->options);
    }();
    if (!r.sampled) {
      out.failure = "sample fell back to the exact path";
      return out;
    }
    common::StateWriter digest;
    digest.f64(r.cycles_est);
    digest.u64(r.instructions);
    digest.u64(r.detailed_instructions);
    digest.u64(r.windows.size());
    out.digest = digest_of(digest);
    out.sim_cycles = r.cycles_est;
    state->last_estimate = r.cycles_est;
    return out;
  };
  w.finish = [state, seed, &device]() -> Finish {
    const ff::FastForwardEngine engine(device);
    ff::ExactOptions options;
    options.global_seed = seed;
    const ff::ExactResult exact = engine.exact(
        state->kernel.program, kShape, state->kernel.needs_mem, options);
    Finish out;
    out.est_error_pct = 100 * std::abs(state->last_estimate -
                                       exact.result.cycles) /
                        exact.result.cycles;
    if (exact.result.warps_retired !=
        static_cast<std::uint64_t>(kShape.total_warps())) {
      out.failure = "exact run retired " +
                    std::to_string(exact.result.warps_retired) + " warps";
    } else if (out.est_error_pct > 5) {
      out.failure = "sampled estimate off by " +
                    std::to_string(out.est_error_pct) + "% (limit 5%)";
    }
    return out;
  };
  return w;
}

// --- serve_mix --------------------------------------------------------------

constexpr const char* kVerbs[] = {"simulate", "profile", "trace"};
constexpr const char* kKernels[] = {"mma",    "ffma_dep",      "ffma_tput",
                                    "mem_l1", "mem_l2",        "mem_global",
                                    "smem_conflict", "barrier"};
constexpr const char* kDevices[] = {"rtx4090", "a100", "h800"};
constexpr int kWarps[] = {1, 2, 4, 8};

std::atomic<std::uint16_t> g_bound_port{0};
std::atomic<bool> g_server_done{false};

void announce_port(std::uint16_t port) { g_bound_port.store(port); }

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

std::optional<SerialWorkload> make_serial_workload(std::string_view name,
                                                   std::uint64_t seed) {
  if (name == "table4_chase") return table4_chase(seed);
  if (name == "fig7_chip") return fig7_chip();
  if (name == "stream_chip") return stream_chip(seed);
  if (name == "sample_ff") return sample_ff(seed);
  return std::nullopt;
}

ServeMix::ServeMix(std::uint64_t seed, int client)
    : client_(client), rng_(sim::derive_point_seed(seed, 1000 + client)) {
  // The iters permutation is shared by every client (it depends on the
  // seed only); clients and rounds take disjoint positions in it.
  Xoshiro256ss shared(sim::derive_point_seed(seed, 999));
  for (std::uint32_t c = 0; c < kCombos; ++c) {
    iter_mul_[c] = 2 * static_cast<std::uint32_t>(shared.below(kIterSteps / 2)) + 1;
    iter_add_[c] = static_cast<std::uint32_t>(shared.below(kIterSteps));
  }
}

std::string ServeMix::new_query() {
  const std::uint64_t round = queries_ / kCombos;
  const auto pos = static_cast<std::uint32_t>(queries_ % kCombos);
  if (pos == 0) round_ = random_permutation(kCombos, rng_);
  ++queries_;
  const std::uint32_t c = round_[pos];
  // Position clients * round + client is distinct for every (client, round)
  // pair until round 42, which a 60 s run does not reach.
  const auto k = static_cast<std::uint32_t>(
      (iter_mul_[c] * (kHostThreads * round + static_cast<std::uint64_t>(client_)) +
       iter_add_[c]) %
      kIterSteps);
  return "{\"id\":" + std::to_string(queries_) + ",\"verb\":\"" +
         kVerbs[c / 96] + "\",\"params\":{\"device\":\"" +
         kDevices[(c / 4) % 3] + "\",\"iters\":" + std::to_string(1024 + 4 * k) +
         ",\"kernel\":\"" + kKernels[(c / 12) % 8] +
         "\",\"warps\":" + std::to_string(kWarps[c % 4]) + "}}";
}

ServeMix::Request ServeMix::next() {
  Request r;
  if (!pool_.empty() && rng_.uniform() < kRepeatShare) {
    const auto& [line, reply] = pool_[rng_.below(pool_.size())];
    r.line = line;
    r.expect = reply;
    r.repeat = true;
    return r;
  }
  r.line = new_query();
  return r;
}

void ServeMix::answered(const Request& request, std::string reply) {
  if (request.repeat || reply.find("\"ok\":true") == std::string::npos) return;
  pool_.emplace_back(request.line, std::move(reply));
  if (pool_.size() > kPool) pool_.pop_front();
}

namespace {

/// Checks a reply to a new serve query: ok, and for simulate every
/// launched warp retired.  Returns a failure or "".
std::string check_serve_reply(const std::string& reply) {
  const auto parsed = json::parse(reply);
  if (!parsed) return "unparseable reply: " + parsed.error().message;
  const json::Value* ok = parsed.value().find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    return "error reply: " + reply.substr(0, 200);
  }
  const json::Value* result = parsed.value().find("result");
  const json::Value* retired = result ? result->find("warps_retired") : nullptr;
  if (retired == nullptr) return "";  // profile and trace do not report it
  const json::Value* threads = result->find("threads_per_block");
  const json::Value* blocks = result->find("blocks");
  if (threads == nullptr || blocks == nullptr) return "reply lacks its shape";
  const double warps =
      std::ceil(threads->as_double() / 32.0) * blocks->as_double();
  if (retired->as_double() != warps) {
    return "warps_retired " + std::to_string(retired->as_double()) +
           " != launched " + std::to_string(warps);
  }
  return "";
}

/// The top-level "cycles" of a reply's result (0 when absent); it sorts
/// before any nested "cycles" key.
double reply_cycles(const std::string& reply) {
  const auto at = reply.find("\"cycles\":");
  if (at == std::string::npos) return 0;
  return std::strtod(reply.c_str() + at + 9, nullptr);
}

}  // namespace

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string round_trip(int fd, std::string& buffer, std::string_view line) {
  std::string request(line);
  request += '\n';
  if (!send_all(fd, request)) return "";
  while (true) {
    const auto newline = buffer.find('\n');
    if (newline != std::string::npos) {
      std::string reply = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return reply;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "";
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

Expected<std::uint16_t> start_server(std::thread& thread) {
  g_bound_port.store(0);
  g_server_done.store(false);
  thread = std::thread([] {
    serve::ServerOptions options;
    const auto r = serve::run_server(options, &announce_port);
    if (!r) std::fprintf(stderr, "serve: %s\n", r.error().message.c_str());
    g_server_done.store(true);
  });
  while (g_bound_port.load() == 0) {
    if (g_server_done.load()) {
      thread.join();
      return Error{ErrorCode::kInternal, "serve did not start"};
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return g_bound_port.load();
}

void stop_server(std::thread& thread, std::uint16_t port) {
  if (!thread.joinable()) return;
  const int fd = connect_loopback(port);
  if (fd >= 0) {
    std::string buffer;
    (void)round_trip(fd, buffer, R"({"id":0,"verb":"shutdown"})");
    ::close(fd);
  }
  thread.join();
}

Expected<std::unique_ptr<ServeWorkload>> ServeWorkload::start(
    std::uint64_t seed) {
  std::unique_ptr<ServeWorkload> w(new ServeWorkload());
  auto port = start_server(w->server_);
  if (!port) return port.error();
  w->port_ = port.value();
  for (int c = 0; c < kHostThreads; ++c) {
    const int fd = connect_loopback(w->port_);
    if (fd < 0) return Error{ErrorCode::kInternal, "connect to serve failed"};
    w->clients_.push_back(Client{fd, "", ServeMix(seed, c)});
  }
  return w;
}

ServeWorkload::~ServeWorkload() {
  // Closed client connections let their server sessions end; the shutdown
  // request then stops the accept loop.
  for (Client& c : clients_) ::close(c.fd);
  stop_server(server_, port_);
}

OpResult ServeWorkload::first_op() {
  // A fixed query outside the mix (whose iters are >= 1024), so set-up
  // costs the same at every seed.
  static constexpr std::string_view kQuery =
      R"({"id":0,"verb":"profile","params":{"device":"h800","iters":1000,)"
      R"("kernel":"smem_conflict","warps":8}})";
  Client& c = clients_.front();
  const std::string reply = round_trip(c.fd, c.buffer, kQuery);
  OpResult out;
  out.failure = check_serve_reply(reply);
  out.digest = common::fnv1a(std::span(
      reinterpret_cast<const std::uint8_t*>(reply.data()), reply.size()));
  out.sim_cycles = reply_cycles(reply);
  return out;
}

ServeWorkload::Phase ServeWorkload::run(double seconds, std::uint64_t max_ops,
                                        std::vector<SpanLog>* logs) {
  std::vector<Phase> parts(clients_.size());
  const double start = now_us();
  const double deadline = start + seconds * 1e6;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    threads.emplace_back([&, i] {
      Client& c = clients_[i];
      Phase& part = parts[i];
      SpanLog* log = logs != nullptr ? &(*logs)[i] : nullptr;
      for (std::uint64_t op = 0; op < max_ops; ++op) {
        if (op >= kMinOps && now_us() >= deadline) break;
        const ServeMix::Request request = c.mix.next();
        SpanLog* span_log = (log != nullptr && op % 2 == 1) ? log : nullptr;
        const double t0 = now_us();
        std::string reply;
        {
          ScopedSpan root(span_log, "serve_mix.request", op);
          ScopedSpan wait(span_log, request.repeat ? "serve.hit" : "serve.cold",
                          op);
          reply = round_trip(c.fd, c.buffer, request.line);
        }
        const double ms = (now_us() - t0) / 1e3;
        ++part.attempted;
        std::string failure;
        if (request.repeat) {
          if (reply != request.expect) failure = "hit bytes differ from cold reply";
        } else {
          failure = check_serve_reply(reply);
        }
        if (!failure.empty()) {
          ++part.failed;
          part.failures.push_back(std::move(failure));
        }
        if (span_log == nullptr) part.sim_cycles += reply_cycles(reply);
        part.samples.push_back({ms, request.repeat, span_log != nullptr,
                                static_cast<int>(i), op});
        c.mix.answered(request, std::move(reply));
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase out;
  out.wall_s = (now_us() - start) / 1e6;
  for (Phase& part : parts) {
    out.samples.insert(out.samples.end(), part.samples.begin(),
                       part.samples.end());
    out.attempted += part.attempted;
    out.failed += part.failed;
    out.sim_cycles += part.sim_cycles;
    for (auto& f : part.failures) out.failures.push_back(std::move(f));
  }
  return out;
}

std::optional<serve::ResultCache::Stats> cache_stats(const std::string& reply) {
  const auto parsed = json::parse(reply);
  const json::Value* result = parsed ? parsed.value().find("result") : nullptr;
  const json::Value* cache = result != nullptr ? result->find("cache") : nullptr;
  if (cache == nullptr) return std::nullopt;
  std::optional<serve::ResultCache::Stats> out(std::in_place);
  const std::pair<const char*, std::uint64_t*> fields[] = {
      {"lookups", &out->lookups},
      {"hits", &out->hits},
      {"misses", &out->misses},
      {"evictions", &out->evictions}};
  for (const auto& [key, value] : fields) {
    const json::Value* v = cache->find(key);
    if (v == nullptr || !v->is_unsigned()) return std::nullopt;
    *value = v->as_u64();
  }
  return out;
}

std::string ServeWorkload::check_stats() {
  Client& c = clients_.front();
  const std::string reply =
      round_trip(c.fd, c.buffer, R"({"id":0,"verb":"stats"})");
  const auto stats = cache_stats(reply);
  if (!stats) return "bad stats reply: " + reply.substr(0, 200);
  if (stats->hits + stats->misses != stats->lookups) {
    return "stats: hits + misses != lookups";
  }
  return "";
}

}  // namespace hsim::e2e
