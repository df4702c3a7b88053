// Parallel-for entry point for intra-query execution.
//
// ThreadPool is a facade over the process-wide work-stealing morsel
// scheduler (common/scheduler.h): a pool owns no threads, it only
// records its width and forwards ParallelFor regions to the shared
// scheduler, which runs them with work stealing, nested-region support
// and adaptive morsel sizing.
//
// Determinism contract (unchanged): the body receives the *chunk index*
// (a pure function of `begin` and the chunk size), so callers can write
// each chunk's output into a pre-sized slot and concatenate slots in
// chunk order afterwards. The merged output is then byte-identical no
// matter how many threads ran or how morsels were scheduled or stolen.
// A pool of size 1 never touches the scheduler and runs every chunk
// inline on the caller, preserving the exact sequential behavior (and
// stack traces) of a non-parallel build. The `worker` id passed to the
// body is always < size(), so per-worker scratch sized to the pool
// stays valid.
#ifndef FGPM_COMMON_PARALLEL_H_
#define FGPM_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace fgpm {

// Resolves a user-facing thread-count knob: 0 means "one worker per
// hardware thread", anything else is taken literally (>= 1).
unsigned ResolveThreads(unsigned requested);

class ThreadPool {
 public:
  // body(worker, chunk, begin, end): process [begin, end). `worker` is in
  // [0, size()) and identifies the executing participant (for scratch
  // reuse); `chunk` = begin / chunk_size (for deterministic output slots).
  using Body = std::function<void(unsigned worker, size_t chunk, size_t begin,
                                  size_t end)>;

  // num_threads == 0 resolves to hardware_concurrency.
  explicit ThreadPool(unsigned num_threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return num_threads_; }

  // Number of chunks ParallelFor(n, chunk_size, ...) will execute.
  static size_t NumChunks(size_t n, size_t chunk_size) {
    if (chunk_size == 0) chunk_size = 1;
    return (n + chunk_size - 1) / chunk_size;
  }

  // Runs `body` over every chunk of [0, n). Blocks until all chunks are
  // done. Reentrant: a body may open a nested region on this or any
  // other pool (the blocked participant helps execute it).
  void ParallelFor(size_t n, size_t chunk_size, const Body& body);

 private:
  const unsigned num_threads_;
};

}  // namespace fgpm

#endif  // FGPM_COMMON_PARALLEL_H_
