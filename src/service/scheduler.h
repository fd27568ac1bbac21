// service::QueryScheduler — admission control, fair sharing, and priority
// for concurrent queries over one catalog.
//
// The scheduler is the service's answer to "N tenants, one machine":
//
//  * Admission: at most `max_concurrent` queries execute at once; the rest
//    wait on a condition variable. Waiting interactive requests are always
//    admitted before waiting batch requests.
//
//  * Fair sharing: each admitted query runs in its own Session (opened
//    from the catalog, so tables and the artifact cache are shared) whose
//    ExecContext::threads is set to hardware_threads / active_queries —
//    the morsel pool is one process-wide resource, and the grant keeps any
//    single query from monopolizing it.
//
//  * Priority: interactive queries raise the process-wide PriorityGate for
//    their duration and run with WorkClass::kInteractive; batch queries
//    run as WorkClass::kBatch, which makes every morsel claim and
//    branch-and-bound node boundary of their solve a preemption point —
//    a short query arriving mid-way through a long analytical solve starts
//    immediately and the solve steps aside in bounded slices.
//
//  * Budgets: a per-request QueryBudget (deadline / node cap / memory cap)
//    maps onto the session's ilp::SolverLimits (ExecContext::limits says
//    how each strategy applies them), and a caller-owned cancel flag is
//    polled cooperatively (ExecContext::cancel) both while waiting for
//    admission and during execution.
#ifndef PAQL_SERVICE_SCHEDULER_H_
#define PAQL_SERVICE_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "service/catalog.h"

namespace paql::service {

/// Priority class of one request. Interactive is the default: short
/// point queries that should never queue behind analytical work.
enum class QueryClass { kInteractive, kBatch };

/// Per-request resource budgets; 0 everywhere = unlimited (the defaults of
/// ilp::SolverLimits). Queueing time is deducted from the deadline, and
/// the rest becomes ExecContext::limits.time_limit_s (which says how each
/// strategy applies it). The node and memory caps apply to each ILP solve.
struct QueryBudget {
  double deadline_seconds = 0;
  int64_t max_nodes = 0;
  size_t memory_budget_bytes = 0;
};

/// One unit of work for the scheduler.
struct QueryRequest {
  std::string paql;
  QueryClass query_class = QueryClass::kInteractive;
  QueryBudget budget;
  /// Optional caller-owned cooperative-cancellation flag (may be null).
  /// Setting it aborts the request with kResourceExhausted, both while
  /// queued for admission and between solver nodes during execution.
  const std::atomic<bool>* cancel = nullptr;
};

struct SchedulerOptions {
  /// Queries executing at once; 0 = hardware concurrency (min 2, so a
  /// single-core machine still overlaps one interactive with one batch
  /// query — the whole point of the priority gate).
  int max_concurrent = 0;
  /// Anti-starvation aging: a batch request that has waited this long is
  /// admitted into the next free slot even while interactive requests are
  /// queued (without it, a continuous interactive stream would hold batch
  /// work back forever). Bounds batch admission latency at roughly
  /// window + one interactive service time; <= 0 disables aging.
  double batch_starvation_window_s = 0.25;
  /// Base options for every per-query session. exec.threads == 0 (auto)
  /// enables the fair-share grant; an explicit count is honored as-is.
  /// exec.limits and exec.cancel are per-request and always overridden.
  EngineOptions engine;

  // --- Load shedding (graceful degradation under overload) ---
  //
  // An unbounded admission queue turns overload into unbounded latency
  // for everyone; shedding the excess keeps the latency of admitted work
  // sane and tells rejected callers when to come back. Deferrable work
  // sheds first: batch requests are rejected at `shed_waiting_batch`
  // queued requests of their class, interactive only at the higher
  // `shed_waiting_interactive` bar. Rejections carry kUnavailable with a
  // machine-readable `retry-after-ms=N` hint scaled to the queue depth.

  /// Shed an arriving interactive request when this many interactive
  /// requests already wait for admission. 0 disables the bar.
  int shed_waiting_interactive = 0;
  /// Shed an arriving batch request when this many batch requests already
  /// wait. 0 disables the bar.
  int shed_waiting_batch = 0;
  /// Shed every arriving request while the process RSS (from
  /// /proc/self/statm) exceeds this many bytes. 0 disables the watermark.
  size_t shed_memory_bytes = 0;
};

/// Counters (consistent snapshot) for observability and the service tests.
struct SchedulerStats {
  int64_t admitted = 0;     // requests that started executing
  int64_t completed = 0;    // finished with any Status (ok or error)
  int64_t rejected = 0;     // cancelled or deadline-expired while queued
  int active = 0;           // executing right now
  int waiting = 0;          // queued for admission right now
  int64_t gate_yields = 0;  // PriorityGate waits observed process-wide
  /// Batch requests admitted past waiting interactive ones because their
  /// wait exceeded batch_starvation_window_s.
  int64_t aged_batch_admits = 0;
  /// Requests rejected at arrival with kUnavailable: admission queue past
  /// its shedding bar, and process RSS past the memory watermark.
  int64_t shed_queue = 0;
  int64_t shed_memory = 0;
};

class QueryScheduler {
 public:
  /// `catalog` must outlive the scheduler.
  explicit QueryScheduler(const Catalog& catalog,
                          SchedulerOptions options = {});

  /// Admit, execute, release: the whole lifecycle of one request. Blocks
  /// while the service is saturated (interactive requests jump the batch
  /// queue), then runs the query on a fresh catalog session with the
  /// request's budget and class. Thread-safe; this is the call N client
  /// threads make concurrently.
  Result<QueryResult> Execute(const QueryRequest& request);

  /// Same lifecycle as Execute, but enumerates the `k` best distinct
  /// packages (Session::ExecuteTopK) under the request's admission slot,
  /// budget, and priority class.
  Result<std::vector<QueryResult>> ExecuteTopK(const QueryRequest& request,
                                               size_t k);

  SchedulerStats stats() const;

  /// The catalog's process-wide artifact cache statistics (convenience
  /// passthrough for the server's STATS command and paql_shell's \cache).
  engine::QueryCacheStats cache_stats() const {
    return catalog_->query_cache()->stats();
  }

  int max_concurrent() const { return max_concurrent_; }

 private:
  /// Test-only backdoor (tests/service_test.cc): holds admission slots
  /// open deterministically so queue behavior (deadlines, aging) can be
  /// exercised without timing-dependent long-running queries.
  friend struct SchedulerTestAccess;

  /// Blocks until a slot is free (and, for batch, until no interactive
  /// request is waiting or the starvation window has elapsed). Returns
  /// the number of active queries including this one, and the time spent
  /// queued in `*queue_wait_seconds`; fails with kResourceExhausted if
  /// `cancel` tripped or `deadline_seconds` (> 0) expired while queued —
  /// time in the queue counts against the request's deadline.
  Result<int> Admit(QueryClass query_class, const std::atomic<bool>* cancel,
                    double deadline_seconds, double* queue_wait_seconds);
  void Release();

  /// Admit → open a budgeted session → run `fn(session)` under the
  /// request's priority class → release. Both Execute entry points
  /// funnel through here (defined in the .cc; all instantiations local).
  template <typename T, typename Fn>
  Result<T> RunAdmitted(const QueryRequest& request, Fn&& fn);

  const Catalog* catalog_;
  SchedulerOptions options_;
  int max_concurrent_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  int active_ = 0;
  int waiting_interactive_ = 0;
  int waiting_batch_ = 0;
  int64_t admitted_ = 0;
  int64_t completed_ = 0;
  int64_t rejected_ = 0;
  int64_t aged_batch_admits_ = 0;
  int64_t shed_queue_ = 0;
  int64_t shed_memory_ = 0;
};

}  // namespace paql::service

#endif  // PAQL_SERVICE_SCHEDULER_H_
