//===- ShardPool.cpp - Fork/join pool of the matcher engine ---------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/ShardPool.h"

#include "support/Telemetry.h"

#include <thread>
#include <utility>

using namespace tdl;

/// Set on pool threads for their lifetime and on a caller while it drives
/// the pool: a sharded run started from either runs inline instead of
/// waiting on helpers that are (or may be) busy with its own caller.
static thread_local bool InsideShardRun = false;

ShardPool &ShardPool::instance() {
  // Leaked: parked helpers must never see the pool destroyed at exit.
  static ShardPool *Pool = new ShardPool;
  return *Pool;
}

void ShardPool::run(unsigned NumWorkers,
                    const std::function<void(unsigned)> &Body) {
  if (NumWorkers <= 1 || InsideShardRun ||
      Busy.exchange(true, std::memory_order_acquire)) {
    for (unsigned W = 0; W < NumWorkers; ++W)
      Body(W);
    return;
  }
  InsideShardRun = true;
  unsigned NumHelpers = NumWorkers - 1;
  std::vector<Helper *> Assigned;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    while (Helpers.size() < NumHelpers)
      spawnHelper();
    Job = &Body;
    for (unsigned H = 0; H < NumHelpers; ++H) {
      Helpers[H]->Assigned = true;
      Assigned.push_back(Helpers[H].get());
    }
    ++Generation;
  }
  Wake.notify_all();

  Body(0);

  // Cancel the helpers that have not picked up their worker yet and run
  // those workers here; then wait for the ones already running.
  std::vector<unsigned> Cancelled;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (unsigned H = 0; H < NumHelpers; ++H)
      if (std::exchange(Assigned[H]->Assigned, false))
        Cancelled.push_back(H + 1);
  }
  for (unsigned W : Cancelled)
    Body(W);
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Done.wait(Lock, [&] { return Running == 0; });
    Job = nullptr;
  }
  InsideShardRun = false;
  Busy.store(false, std::memory_order_release);
}

void ShardPool::spawnHelper() {
  static telemetry::Counter &ThreadsStarted =
      telemetry::counter("engine.worker_threads_started");
  ThreadsStarted.add();
  Helpers.push_back(std::make_unique<Helper>());
  Helper *Self = Helpers.back().get();
  Self->Worker = static_cast<unsigned>(Helpers.size());
  std::thread([this, Self, Seen = Generation] {
    helperLoop(*Self, Seen);
  }).detach();
}

void ShardPool::helperLoop(Helper &Self, uint64_t Seen) {
  InsideShardRun = true;
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    Wake.wait(Lock, [&] { return Generation != Seen; });
    Seen = Generation;
    if (!std::exchange(Self.Assigned, false))
      continue; // Not needed this run, or cancelled before waking.
    ++Running;
    const std::function<void(unsigned)> &Body = *Job;
    Lock.unlock();
    Body(Self.Worker);
    Lock.lock();
    if (--Running == 0)
      Done.notify_one();
  }
}
