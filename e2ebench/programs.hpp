// The paper programs bench_e2e runs on the full chip: the Fig 7 DPX
// throughput kernel and the Table V(d) streaming loads, with the launch
// shapes the paper's full-chip rows use.
#pragma once

#include <cstdint>

#include "arch/device.hpp"
#include "dpx/functions.hpp"
#include "isa/program.hpp"
#include "sm/launcher.hpp"

namespace hsim::e2e {

/// Fig 7 DPX throughput kernel: 8 independent VIMNMX3 chains, 64
/// iterations (fused on Hopper, emulated elsewhere).
inline isa::Program fig07_dpx_program(const arch::DeviceSpec& device) {
  isa::Program p;
  for (int c = 0; c < 8; ++c) {
    dpx::append(p, dpx::Func::kViMax3S32, 20 + c, 1, 2, 3,
                device.dpx.hardware, 40 + 8 * c);
  }
  p.set_iterations(64);
  return p;
}

/// Fig 7 full-chip grid: two waves of 1024-thread blocks plus a partial
/// third, so the tail wave shows.
inline sm::LaunchConfig fig07_grid(const arch::DeviceSpec& device) {
  return {.threads_per_block = 1024,
          .total_blocks = 2 * device.sm_count + 8,
          .smem_per_block = 0,
          .regs_per_thread = 32};
}

/// Table V(d) grid: two 256-thread blocks per SM.
inline sm::LaunchConfig stream_grid(const arch::DeviceSpec& device) {
  return {.threads_per_block = 256, .total_blocks = 2 * device.sm_count};
}

/// Unrolled 16-byte streaming loads, every warp on a disjoint slice of a
/// `loads`-deep address range: load k of a thread touches
/// base + tid*16 + k*total_threads*16, so each line is touched once per
/// pass.
inline isa::Program streaming_program(int total_threads, int loads,
                                      std::uint32_t iterations,
                                      std::int64_t base) {
  isa::Program p;
  p.add({.op = isa::Opcode::kShf, .rd = 1, .ra = 0, .imm = 4});  // 16 * tid
  const std::int64_t stride = static_cast<std::int64_t>(total_threads) * 16;
  for (int k = 0; k < loads; ++k) {
    p.add({.op = isa::Opcode::kLdgCg, .rd = 2, .ra = 1,
           .imm = base + k * stride, .access_bytes = 16});
  }
  p.set_iterations(iterations);
  return p;
}

/// The two Table V(d) streams: cold is one pass over a footprint larger
/// than L2 (DRAM-bound), warm re-reads an L2-resident footprint that the
/// engine pre-warms.
struct StreamShape {
  int loads;
  std::uint32_t iterations;
};
inline constexpr StreamShape kColdStream{64, 1};
inline constexpr StreamShape kWarmStream{8, 4};

inline std::uint64_t stream_footprint(const sm::LaunchConfig& grid,
                                      const StreamShape& shape) {
  return static_cast<std::uint64_t>(grid.threads_per_block) *
         static_cast<std::uint64_t>(grid.total_blocks) * 16 *
         static_cast<std::uint64_t>(shape.loads);
}

/// Where the streams start: a seeded 128-byte line below 512 KiB, so each
/// seed maps the same work onto L2 slices and DRAM rows differently.
inline std::int64_t stream_base(std::uint64_t seed) {
  return static_cast<std::int64_t>((seed * 0x9e3779b97f4a7c15ull) >> 52) * 128;
}

}  // namespace hsim::e2e
