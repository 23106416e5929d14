//===- ShardPoolTest.cpp - Matcher-engine fork/join pool tests ------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/ShardPool.h"

#include "support/Telemetry.h"

#include <chrono>
#include <condition_variable>
#include <gtest/gtest.h>
#include <mutex>
#include <set>
#include <thread>

using namespace tdl;

namespace {

/// Runs a two-worker job whose worker 0 (the caller) waits until worker 1
/// has run. The pool hands worker 1 to a helper before worker 0 starts and
/// only reclaims it after worker 0 returns, so worker 1 must run on a
/// helper thread. The timeout only turns a pool bug into a failure instead
/// of a hang: worker 1 would then run inline, on the caller.
std::thread::id runWithCallerWaiting(std::thread::id &WorkerOneThread) {
  std::mutex Mu;
  std::condition_variable Ran;
  bool WorkerOneDone = false;
  std::thread::id WorkerZeroThread;
  ShardPool::instance().run(2, [&](unsigned W) {
    telemetry::ScopedSpan Span("pool:worker", "test");
    std::unique_lock<std::mutex> Lock(Mu);
    if (W == 1) {
      WorkerOneThread = std::this_thread::get_id();
      WorkerOneDone = true;
      Ran.notify_all();
      return;
    }
    WorkerZeroThread = std::this_thread::get_id();
    Ran.wait_for(Lock, std::chrono::seconds(60),
                 [&] { return WorkerOneDone; });
  });
  return WorkerZeroThread;
}

TEST(ShardPoolTest, WorkerZeroRunsOnCallerAndOthersOnHelpers) {
  std::thread::id WorkerOne;
  std::thread::id WorkerZero = runWithCallerWaiting(WorkerOne);
  EXPECT_EQ(WorkerZero, std::this_thread::get_id());
  EXPECT_NE(WorkerOne, std::thread::id());
  EXPECT_NE(WorkerOne, WorkerZero);
}

// The property cli.trace_json_sharded_valid used to sample by timing: spans
// recorded inside pool workers carry the thread id of the thread that ran
// them, so a sharded run whose helper takes part shows two trace tids.
TEST(ShardPoolTest, SpansFromHelperWorkersGetTheirOwnTraceThreadId) {
  telemetry::SpanCollector &Collector = telemetry::SpanCollector::instance();
  Collector.start();
  std::thread::id WorkerOne;
  runWithCallerWaiting(WorkerOne);
  std::vector<telemetry::Span> Spans = Collector.finish();
  std::set<uint32_t> ThreadIds;
  for (const telemetry::Span &S : Spans)
    if (S.Name == "pool:worker")
      ThreadIds.insert(S.ThreadId);
  EXPECT_EQ(ThreadIds.size(), 2u);
}

TEST(ShardPoolTest, NestedRunExecutesInlineInWorkerOrder) {
  std::vector<unsigned> Order;
  std::mutex Mu;
  ShardPool::instance().run(2, [&](unsigned Outer) {
    if (Outer != 0)
      return;
    // Inside a sharded run every nested call runs on this thread, in order.
    ShardPool::instance().run(3, [&](unsigned Inner) {
      std::lock_guard<std::mutex> Lock(Mu);
      Order.push_back(Inner);
    });
  });
  EXPECT_EQ(Order, (std::vector<unsigned>{0, 1, 2}));
}

} // namespace
