// One host worker pool for the embarrassingly parallel loops: the
// farm's per-processor data plane and qoseval's grid cells.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace qosctrl::util {

/// Calls fn(i) once for every i in [0, n) on min(workers, n) threads,
/// the calling thread included, so workers <= 1 or n <= 1 starts no
/// thread.  Indices are claimed in ascending order from one shared
/// counter; fn must only write state owned by its index.
template <typename Fn>
void parallel_for(std::size_t n, int workers, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  const std::size_t threads =
      std::min(n, static_cast<std::size_t>(std::max(workers, 1)));
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(drain);
  drain();
  for (std::thread& t : pool) t.join();
}

}  // namespace qosctrl::util
