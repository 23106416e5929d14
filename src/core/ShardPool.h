//===- ShardPool.h - Fork/join pool of the matcher engine -------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide fork/join pool behind both sharded engine phases (the
/// match walk and the commit waves). Internal to the core layer; exposed in
/// a header so its scheduling guarantees can be tested directly.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_CORE_SHARDPOOL_H
#define TDL_CORE_SHARDPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace tdl {

/// Helper threads are created lazily, up to the largest worker count ever
/// requested minus one, and park on a condition variable between runs; the
/// calling thread is always worker 0. Workers claim their items from a
/// shared counter (see the two call sites in MatcherEngine.cpp), so a helper
/// that wakes late simply takes fewer items — and one that has not woken by
/// the time the caller is done is cancelled and its (by then empty-handed)
/// worker body runs on the caller instead.
class ShardPool {
public:
  static ShardPool &instance();

  /// Calls \p Body(W) exactly once for every W in [0, NumWorkers) and
  /// returns when all calls have returned. Body(0) runs on the calling
  /// thread; every other worker is handed to a helper thread before Body(0)
  /// starts, and only a worker whose helper has not picked it up by the
  /// time Body(0) returns runs on the caller. When the pool is already
  /// driven by another thread, or the caller is itself inside a sharded
  /// run, every call runs inline, in worker order.
  void run(unsigned NumWorkers, const std::function<void(unsigned)> &Body);

private:
  ShardPool() = default;

  struct Helper {
    unsigned Worker = 0;   ///< The worker index this helper runs.
    bool Assigned = false; ///< Guarded by Mu.
  };

  /// Requires Mu. Helpers are detached: they park for the process lifetime.
  void spawnHelper();
  void helperLoop(Helper &Self, uint64_t Seen);

  std::atomic<bool> Busy{false};
  std::mutex Mu;
  std::condition_variable Wake, Done;
  // Everything below is guarded by Mu.
  std::vector<std::unique_ptr<Helper>> Helpers;
  const std::function<void(unsigned)> *Job = nullptr;
  uint64_t Generation = 0;
  unsigned Running = 0;
};

} // namespace tdl

#endif // TDL_CORE_SHARDPOOL_H
