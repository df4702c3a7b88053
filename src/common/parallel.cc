#include "common/parallel.h"

#include <algorithm>
#include <thread>

#include "common/scheduler.h"

namespace fgpm {

unsigned ResolveThreads(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned num_threads)
    : num_threads_(std::max(1u, ResolveThreads(num_threads))) {
  if (num_threads_ > 1) Scheduler::Global().EnsureWidth(num_threads_);
}

void ThreadPool::ParallelFor(size_t n, size_t chunk_size, const Body& body) {
  if (n == 0) return;
  if (chunk_size == 0) chunk_size = 1;
  if (num_threads_ == 1 || n <= chunk_size) {
    // Inline: same chunk decomposition, no synchronization.
    for (size_t begin = 0; begin < n; begin += chunk_size) {
      body(0, begin / chunk_size, begin, std::min(n, begin + chunk_size));
    }
    return;
  }
  Scheduler::Global().ParallelFor(n, chunk_size, body, num_threads_);
}

}  // namespace fgpm
