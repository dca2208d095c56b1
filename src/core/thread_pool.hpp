// Persistent worker pool for deterministic data-parallel sweeps.
//
// The pool spawns its OS threads once and then dispatches fork/join rounds
// with zero steady-state heap allocation: a round is a raw function pointer
// plus a context pointer (no std::function capture boxing), handed to the
// workers through a generation counter under one mutex.  The calling thread
// always participates as lane 0, so `ThreadPool(n)` yields `n + 1` lanes —
// a pool of zero workers degrades to a plain inline call.
//
// Used by the sharded batch runner (one round per batch), which must stay
// allocation-free once warm.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace scflow::core {

class ThreadPool {
 public:
  /// Spawns @p workers OS threads (0 is valid: every run() stays inline).
  explicit ThreadPool(unsigned workers);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Lanes available to a round: the spawned workers plus the caller.
  [[nodiscard]] unsigned lanes() const { return static_cast<unsigned>(threads_.size()) + 1; }

  using Task = void (*)(void* ctx, unsigned lane);

  /// Fork/join round: runs task(ctx, lane) for every lane in [0, lanes()),
  /// lane 0 on the calling thread, and returns once all lanes finished.
  /// Worker completion synchronises with the return (acquire/release), so
  /// the caller may read anything the lanes wrote without further fences.
  void run(Task task, void* ctx);

  /// Picks a worker count for @p requested_lanes total lanes, capped to a
  /// sane maximum; 0 means "one lane per hardware thread".
  [[nodiscard]] static unsigned workers_for(unsigned requested_lanes);

 private:
  void worker_loop(unsigned lane);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumped per round; workers wait on it
  unsigned running_ = 0;          // workers still inside the current round
  Task task_ = nullptr;
  void* ctx_ = nullptr;
  bool stop_ = false;
};

}  // namespace scflow::core
