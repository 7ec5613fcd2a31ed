// The five bench_e2e workloads.  Each op calls the simulator's public
// functions only; spans mark each call into a layer when a SpanLog is
// given.  The README explains why each workload was chosen.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "serve/result_cache.hpp"
#include "spans.hpp"

namespace hsim::e2e {

inline constexpr std::array<std::string_view, 5> kWorkloads = {
    "table4_chase", "fig7_chip", "stream_chip", "sample_ff", "serve_mix"};

/// Host threads for full-chip runs and client connections for serve_mix.
/// The calibration host has 4 cores; one is left for the harness and the
/// OS, and the Fig 7 grid runs faster and steadier at 3 threads than at 4.
inline constexpr int kHostThreads = 3;

/// A timed phase runs at least this many ops, however short it is.
inline constexpr std::uint64_t kMinOps = 3;

/// What one op produced.
struct OpResult {
  std::uint64_t digest = 0;  // fnv1a over the op's results
  double sim_cycles = 0;     // simulated cycles the op delivered
  std::string failure;       // empty when the op passed its checks
};

/// One op of a serial workload; spans go to `log` when it is non-null.
using OpFn = std::function<OpResult(SpanLog* log, std::uint64_t op)>;

/// The check a workload runs once after its timed phase.
struct Finish {
  std::string failure;         // empty when the check passed
  double est_error_pct = -1;   // sample_ff: estimate vs exact; -1 if n/a
};

struct SerialWorkload {
  OpFn op;
  std::function<Finish()> finish;  // may be empty
};

/// table4_chase, fig7_chip, stream_chip or sample_ff; nullopt otherwise.
[[nodiscard]] std::optional<SerialWorkload> make_serial_workload(
    std::string_view name, std::uint64_t seed);

/// serve_mix's closed-loop query stream for one client.  New queries walk
/// {simulate, profile, trace} x 8 kernels x 3 devices x warps {1,2,4,8} in
/// seeded rounds (each round is a permutation of all 288 combinations, so
/// any long prefix has the same mix), with iters = 1024 + 4k, k < 128,
/// drawn from a seeded per-combination permutation that never repeats a
/// query across clients or rounds.  80% of requests resend one of the
/// client's 16 latest ok queries and must hit the result cache.
class ServeMix {
 public:
  static constexpr std::size_t kPool = 16;
  static constexpr double kRepeatShare = 0.8;
  static constexpr std::uint32_t kCombos = 3 * 8 * 3 * 4;
  static constexpr std::uint32_t kIterSteps = 128;

  ServeMix(std::uint64_t seed, int client);

  struct Request {
    std::string line;
    std::string expect;  // a repeat's cold reply, byte for byte; "" if new
    bool repeat = false;
  };
  [[nodiscard]] Request next();
  /// Feed back the reply to a new query; ok replies join the repeat pool.
  void answered(const Request& request, std::string reply);

 private:
  [[nodiscard]] std::string new_query();

  int client_;
  Xoshiro256ss rng_;
  std::uint64_t queries_ = 0;
  std::vector<std::uint32_t> round_;
  std::array<std::uint32_t, kCombos> iter_mul_{};
  std::array<std::uint32_t, kCombos> iter_add_{};
  std::deque<std::pair<std::string, std::string>> pool_;  // (line, reply)
};


/// serve_mix: an in-process `hsim serve` on an ephemeral loopback port and
/// kHostThreads blocking TCP clients, one connection each.
class ServeWorkload {
 public:
  static Expected<std::unique_ptr<ServeWorkload>> start(std::uint64_t seed);
  ~ServeWorkload();
  ServeWorkload(const ServeWorkload&) = delete;
  ServeWorkload& operator=(const ServeWorkload&) = delete;

  /// One fixed cold query on client 0.
  OpResult first_op();

  struct Sample {
    double ms = 0;
    bool hit = false;
    bool traced = false;
    int client = 0;
    std::uint64_t op = 0;
  };
  struct Phase {
    std::vector<Sample> samples;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    double sim_cycles = 0;  // untraced requests only
    double wall_s = 0;
  };
  /// Every client runs its closed loop until `seconds` pass or it has sent
  /// `max_ops` requests.  With `logs` (one per client), odd-numbered
  /// requests are traced.
  Phase run(double seconds, std::uint64_t max_ops,
            std::vector<SpanLog>* logs);

  /// One `stats` request; a failure when hits + misses != lookups.
  std::string check_stats();

 private:
  struct Client {
    int fd = -1;
    std::string buffer;
    ServeMix mix;
  };
  ServeWorkload() = default;

  std::thread server_;
  std::uint16_t port_ = 0;
  std::vector<Client> clients_;
};

/// One blocking request/reply round trip on a connected socket; "" on a
/// broken connection.
[[nodiscard]] std::string round_trip(int fd, std::string& buffer,
                                     std::string_view line);
/// Connect to 127.0.0.1:port; -1 on failure.
[[nodiscard]] int connect_loopback(std::uint16_t port);
/// Start `hsim serve` on an ephemeral loopback port in `thread`; returns
/// the bound port.
[[nodiscard]] Expected<std::uint16_t> start_server(std::thread& thread);
/// Send `shutdown` on a fresh connection and join the server thread.
void stop_server(std::thread& thread, std::uint16_t port);
/// The cache counters of a `stats` reply; nullopt if it has none.
[[nodiscard]] std::optional<serve::ResultCache::Stats> cache_stats(
    const std::string& stats_reply);

}  // namespace hsim::e2e
