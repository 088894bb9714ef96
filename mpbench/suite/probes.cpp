// Host probes of the traced run: the memory-bandwidth ceiling every
// bw_fraction is judged against, and the cost of one empty fork/join.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "suite.hpp"

namespace mpbench {

MemCeiling measure_memory_ceiling(bool smoke) {
  // 512 MiB per array is more than four times the 105 MiB LLC of the hosts
  // this was calibrated on, so no pass is served from cache.
  const std::size_t count = (smoke ? std::size_t{8} << 20 : std::size_t{512} << 20) / 4;
  auto src = std::make_unique_for_overwrite<std::uint32_t[]>(count);
  auto dst = std::make_unique_for_overwrite<std::uint32_t[]>(count);
  mp::ThreadPool& pool = mp::ThreadPool::global();
  std::uint32_t* s = src.get();
  std::uint32_t* d = dst.get();

  // Warm: every lane faults in the pages it will later stream.
  mp::parallel_for_blocked(pool, 0, count, 1, [s, d](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) s[i] = static_cast<std::uint32_t>(i);
    std::memset(d + lo, 0, (hi - lo) * sizeof(std::uint32_t));
  });

  const auto best_gbps = [&](double bytes, const auto& pass) {
    double best = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
      const Clock::time_point t0 = Clock::now();
      pass();
      const double s_elapsed = seconds_between(t0, Clock::now());
      best = std::max(best, bytes / s_elapsed / 1e9);
    }
    return best;
  };

  MemCeiling c;
  c.array_bytes = count * sizeof(std::uint32_t);
  const double array_bytes = static_cast<double>(c.array_bytes);
  c.copy_gbps = best_gbps(2.0 * array_bytes, [&] {
    mp::parallel_for_blocked(pool, 0, count, 1, [s, d](std::size_t lo, std::size_t hi) {
      std::memcpy(d + lo, s + lo, (hi - lo) * sizeof(std::uint32_t));
    });
  });
  std::atomic<std::uint64_t> sink{0};
  c.read_gbps = best_gbps(array_bytes, [&] {
    mp::parallel_for_blocked(pool, 0, count, 1, [s, &sink](std::size_t lo, std::size_t hi) {
      // Eight independent sums keep the loop memory-bound rather than
      // bound by one dependent add chain.
      std::array<std::uint32_t, 8> sum{};
      std::size_t i = lo;
      for (; i + 8 <= hi; i += 8)
        for (std::size_t k = 0; k < 8; ++k) sum[k] += s[i + k];
      for (; i < hi; ++i) sum[0] += s[i];
      std::uint32_t total = 0;
      for (const std::uint32_t x : sum) total += x;
      sink.fetch_add(total, std::memory_order_relaxed);
    });
  });
  return c;
}

double measure_forkjoin_us() {
  mp::ThreadPool& pool = mp::ThreadPool::global();
  const auto empty = [](void*, std::size_t) {};
  std::vector<double> us;
  for (int rep = 0; rep < 2100; ++rep) {
    const Clock::time_point t0 = Clock::now();
    pool.run_raw(empty, nullptr);
    if (rep >= 100) us.push_back(1e6 * seconds_between(t0, Clock::now()));
  }
  return median(us);
}

}  // namespace mpbench
