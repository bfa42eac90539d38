// Micro-batching request scheduler: the serving layer's core. Producer
// threads submit typed Request values into a lock-free MPMC admission
// queue; a dispatcher thread drains it, groups compatible requests (same
// session => same model/shape/dtype by construction) and flushes a group as
// one batch when it reaches PLT_SERVE_MAX_BATCH requests or its oldest
// request has waited PLT_SERVE_BATCH_USECS microseconds.
//
// Priority classes. Every request carries a RequestClass (kLatency |
// kThroughput; kSessionDefault resolves to the session's default at submit).
// Each shard keeps one pending map PER CLASS and flushes ready groups in
// (class, earliest-request-deadline, age) order: a ready latency batch
// always flushes before a ready throughput batch, and the queue is
// re-drained between flushes, so a throughput batch that has formed but not
// yet flushed can be overtaken by newly arrived latency work. Preemption is
// only ever BETWEEN regions — a running batch always completes — so the
// worst-case latency-class delay is one in-flight region, and the bitwise
// determinism invariant is untouched. PLT_SERVE_PRIORITY=0 restores strict
// class-blind FIFO grouping.
//
// One request lifecycle (continuous batching). Every request runs as
// steps_total >= 1 windows and holds one session lane from its first
// window to its terminal status. A steppable session (the LLM family)
// prefills in step 0 and decodes PLT_SERVE_DECODE_STEP_TOKENS tokens per
// later step against the lane's live KV cache; any other session is the
// 1-step case. After every window the dispatcher puts unfinished requests
// back at the FRONT of their session's pending group and re-drains the
// admission queue — so a request submitted mid-stream joins the running
// decode batch at the next token boundary instead of waiting gen_tokens
// steps behind it. The step sequence on one lane is bitwise-identical to a
// monolithic run.
//
// Sharding. The scheduler is partitioned like the pool it dispatches onto:
// one admission queue + one dispatcher thread per shard (auto = one per pool
// partition; PLT_SERVE_SHARDS overrides). A session is pinned to the
// partition holding its weights (ModelRegistry::add, or round-robin on first
// submit) and its requests are admitted to that shard, whose dispatcher
// executes each batch with run_on(partition) — so batches of sessions on
// different partitions run CONCURRENTLY on disjoint sub-teams instead of
// serializing one whole-team region at a time. An idle shard (empty queue,
// nothing pending) steals requests from its siblings' queues; stolen windows
// execute on the thief's partition and are counted per partition
// (ThreadPool::note_steal). Per-session windows are serialized by the
// session's exec mutex, so a stolen window never races the home dispatcher
// on the same lanes. With one shard the layout and execution path reduce
// exactly to the pre-sharding scheduler (one queue, one region per window).
//
// A window executes as one region on the persistent pool, sized to it:
// min(window, team) members, member t advancing requests t, t+nthreads, ...
// by one step each on its own lane. Lanes are taken and given back under
// the session exec mutex, so 1-step requests hold theirs only while their
// window runs. Team members with no request are neither woken nor waited
// for, and a window of one on partition 0 runs on the dispatcher thread
// with no wake-up at all. Every PARLOOPER nest inside a request degrades to
// a serial walk (nested-region rule), so the per-window dispatch cost is at
// most one epoch bump plus one wake per parked member — no per-request
// OpenMP region spawn, ever.
//
// Determinism: a lane is a full model replica seeded identically to every
// other lane, and a serial nest walk is bitwise-equal to a parallel one
// (threading.hpp invariant), so batched execution is bitwise-identical to
// sequential per-request execution — on any shard, stolen or not.
// tests/test_serving.cpp asserts this for sharded and single-queue layouts.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "common/status.hpp"
#include "serving/session.hpp"

namespace plt::serving {

struct SchedulerConfig {
  int max_batch = 8;              // PLT_SERVE_MAX_BATCH
  std::int64_t batch_usecs = 200; // PLT_SERVE_BATCH_USECS (0 = flush asap)
  std::size_t queue_capacity = 1024;  // PLT_SERVE_QUEUE_CAP (per shard)

  // PLT_SERVE_SHARDS: admission queues + dispatcher threads. 0 = auto (one
  // per pool partition under the pool runtime, else 1). Any explicit count
  // works: a home batch always executes on its session's own partition
  // (weight locality is kept even with fewer shards than partitions), and
  // with more shards than partitions the extra dispatchers share sub-teams
  // — a partition contended by two dispatchers degrades the loser's batch
  // to a serial region (documented run_on behaviour), never deadlocks.
  int shards = 0;

  // PLT_SERVE_STEAL: idle shards steal from siblings' queues (default on).
  bool steal = true;

  // PLT_SERVE_DEADLINE_USECS: default per-request deadline, relative to
  // submit time (0 = none). A request whose deadline passes while it is
  // still queued completes kDeadlineExceeded WITHOUT executing; its output
  // buffer is untouched. SubmitOptions overrides per request.
  std::int64_t default_deadline_usecs = 0;

  // PLT_SERVE_SUBMIT_TIMEOUT_USECS: how long submit() blocks on a full
  // admission queue before shedding the request kResourceExhausted
  // (0 = block until space frees up — the pre-deadline behaviour).
  std::int64_t submit_timeout_usecs = 0;

  // PLT_SERVE_QUARANTINE: when a batch request fails, mark its session
  // unhealthy and reject subsequent submits to it kUnavailable until
  // Session::mark_healthy() re-admits it (default on). Other sessions are
  // never affected either way.
  bool quarantine = true;

  // PLT_SERVE_PRIORITY: class-aware flush ordering (default on). Off, every
  // request lands in one class-blind pending map and the dispatcher reduces
  // to the strict-FIFO grouping of the pre-priority scheduler.
  bool priority = true;

  // PLT_SERVE_DECODE_STEP_TOKENS: decode granularity for steppable sessions
  // — generated tokens per resumable step (continuous batching). 0 disables
  // stepping: every session executes as one monolithic run(), the
  // pre-continuous-batching behaviour. Has no effect on non-steppable
  // sessions, which always run monolithically.
  int decode_step_tokens = 1;

  // PLT_SERVE_TARGET_DELAY_USECS: adaptive overload control (0 = off, the
  // fixed queue-cap behaviour). When on, each dispatcher runs a CoDel-style
  // delay-gradient controller on its standing backlog: if the MINIMUM
  // head-of-line sojourn over a controller interval stays above this target
  // the shard first BROWNS OUT (throughput-class groups yield to any pending
  // latency work and new steppable submits get a halved decode window) and,
  // if the backlog still does not drain, sheds throughput-class queued
  // requests kResourceExhausted — earliest-to-miss-deadline first, so the
  // work least likely to make its deadline goes before work that still can.
  // Latency-class requests are never gradient-shed; their p95 degrades last.
  std::int64_t target_delay_usecs = 0;

  // Reads the PLT_SERVE_* environment knobs (range-validated; bad values
  // warn and fall back to the defaults above).
  static SchedulerConfig from_env();
};

// One inference request, the primary submit() currency. `in`/`out` must stay
// valid until the handle reports done. cls: kSessionDefault resolves to
// Session::default_class() at submit time. deadline_usecs: -1 = use the
// config default, 0 = no deadline, > 0 = relative deadline in microseconds
// from submit (expired-while-queued requests complete kDeadlineExceeded
// without executing; a stepped request that already ran its first step is
// past the point of no return and always runs to completion).
//
// on_done: optional completion callback, invoked EXACTLY ONCE with the
// request's terminal status, after done() is observable — on every terminal
// path (executed, failed, expired, shed, rejected-at-submit). It runs on
// whichever thread resolves the request (a dispatcher for executed/expired
// work, the submitting thread for refusals), so it must be cheap and must
// not block on the scheduler: the network front-end uses it to hand the
// encoded response to its event loop instead of parking a thread per
// request on handle.wait().
struct Request {
  const float* in = nullptr;
  float* out = nullptr;
  RequestClass cls = RequestClass::kSessionDefault;
  std::int64_t deadline_usecs = -1;
  std::function<void(const Status&)> on_done;
};

// Legacy per-request submit options, kept so pre-redesign call sites compile
// unchanged; the (session, in, out, SubmitOptions) overload forwards to
// submit(session, Request). New code should pass a Request directly.
struct SubmitOptions {
  std::int64_t deadline_usecs = -1;
};

// Per-model serving counters, snapshot via RequestScheduler::stats().
// `requests` counts successfully completed requests only; terminal failures
// are split by cause so latency means stay comparable across chaos runs.
struct ModelStats {
  std::string model;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;    // batch execution threw (kInternal, ...)
  std::uint64_t expired = 0;   // deadline passed while queued (kDeadlineExceeded)
  std::uint64_t shed = 0;      // admission shed (kResourceExhausted)
  std::uint64_t rejected = 0;  // refused at submit (kUnavailable)
  std::uint64_t batches = 0;               // windows of 1-step requests
  std::uint64_t batched_requests_sum = 0;  // sum of their sizes
  std::uint64_t decode_steps = 0;  // windows with a multi-step request
  std::uint64_t decode_step_requests_sum = 0;  // sum of their occupancies
  double sum_latency_us = 0.0;             // submit -> completion
  double max_latency_us = 0.0;
  double sum_exec_us = 0.0;                // batch execution wall time
  std::size_t pending_highwater = 0;       // per-model micro-batch backlog

  double mean_latency_us() const {
    return requests ? sum_latency_us / static_cast<double>(requests) : 0.0;
  }
  double mean_batch() const {
    return batches ? static_cast<double>(batched_requests_sum) /
                         static_cast<double>(batches)
                   : 0.0;
  }
  // Mean concurrent requests per stepped decode region — the continuous-
  // batching win shows up here as occupancy > 1 under mixed arrival times.
  double mean_decode_occupancy() const {
    return decode_steps ? static_cast<double>(decode_step_requests_sum) /
                              static_cast<double>(decode_steps)
                        : 0.0;
  }
};

class RequestScheduler;

namespace detail {
struct RequestState {
  std::shared_ptr<Session> session;
  const float* in = nullptr;
  float* out = nullptr;
  RequestScheduler* owner = nullptr;  // for the shared completion cv
  std::chrono::steady_clock::time_point t_submit;
  std::chrono::steady_clock::time_point deadline;  // valid iff has_deadline
  bool has_deadline = false;
  bool admitted = false;     // false: refused/shed at submit (ok() is false)
  RequestClass cls = RequestClass::kThroughput;  // resolved at submit
  // Request lifecycle (dispatcher-owned, only ever touched by the shard
  // that holds the request): completed steps, total steps at the request's
  // decode granularity (1 = monolithic), and the exclusively-held session
  // lane (-1 until its first window, and again once terminal). step_tokens
  // is resolved at submit — normally the scheduler's configured granularity,
  // halved under brownout — and stays fixed for the request's lifetime so
  // its step accounting is self-consistent.
  int step = 0;
  int steps_total = 1;
  int step_tokens = 0;
  int lane = -1;
  Status status;             // terminal status; written before done's release
  double latency_us = 0.0;   // written by the dispatcher before done
  std::function<void(const Status&)> on_done;  // fired once, after done
  std::atomic<bool> done{false};
};
}  // namespace detail

// Handle returned by submit(). Every handle resolves to exactly ONE terminal
// status: OK after successful execution, or the failure Status (rejected,
// shed, expired, failed — see StatusCode). ok() is false when the request
// was refused at submit (shutdown, quarantine, load shed) — such handles are
// done() immediately and carry the refusal in status(). Valid to wait on
// from any thread; must not outlive the scheduler.
class RequestHandle {
 public:
  RequestHandle() = default;

  bool ok() const { return st_ != nullptr && st_->admitted; }
  bool done() const {
    return st_ == nullptr || st_->done.load(std::memory_order_acquire);
  }
  // Blocks until the request completes (returns immediately if !ok()).
  void wait() const;
  // Terminal-only contract: the returned Status is the request's resolution
  // and is meaningful exactly once done() is true. Before that, status()
  // reports the distinct non-terminal kInFlight (never OK — a pre-redesign
  // wart let an unresolved handle read as success). A default-constructed
  // handle reports kUnavailable.
  Status status() const {
    if (st_ == nullptr) return Status::Unavailable("empty request handle");
    if (!st_->done.load(std::memory_order_acquire)) {
      return Status(StatusCode::kInFlight, "request in flight");
    }
    return st_->status;
  }
  // Resolved priority class (the session default already applied); valid
  // from the moment submit() returns. kSessionDefault only for an empty
  // handle.
  RequestClass request_class() const {
    return st_ ? st_->cls : RequestClass::kSessionDefault;
  }
  // submit -> completion, microseconds; valid once done().
  double latency_us() const { return st_ ? st_->latency_us : 0.0; }

 private:
  friend class RequestScheduler;
  explicit RequestHandle(std::shared_ptr<detail::RequestState> st)
      : st_(std::move(st)) {}
  std::shared_ptr<detail::RequestState> st_;
};

class RequestScheduler {
 public:
  explicit RequestScheduler(SchedulerConfig cfg = SchedulerConfig::from_env());
  ~RequestScheduler();  // implies shutdown()

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  // Enqueues one inference request (the primary entry point). req.in/out
  // must stay valid until the handle reports done. Returns a !ok() handle
  // (with the refusal in status()) after shutdown() has begun, when the
  // session is quarantined, or when the request was shed at admission. On a
  // full queue: blocks (spin + yield) until space frees, unless the
  // request's deadline passes or cfg.submit_timeout_usecs elapses — then it
  // is shed kResourceExhausted (newest-over-deadline work goes first under
  // saturation; queued requests are never dropped).
  RequestHandle submit(const std::shared_ptr<Session>& session,
                       const Request& req);

  // Legacy shim over submit(session, Request) — pre-redesign call sites
  // (positional buffers + SubmitOptions) compile unchanged and inherit the
  // session's default class.
  RequestHandle submit(const std::shared_ptr<Session>& session,
                       const float* in, float* out,
                       const SubmitOptions& opts = SubmitOptions()) {
    Request req;
    req.in = in;
    req.out = out;
    req.deadline_usecs = opts.deadline_usecs;
    return submit(session, req);
  }

  // Stops admission, drains every accepted request (in-flight work
  // completes), then joins every dispatcher. Idempotent.
  void shutdown();

  const SchedulerConfig& config() const { return cfg_; }

  // Resolved shard count (>= 1; cfg.shards or the pool partition count).
  int shard_count() const { return static_cast<int>(shards_.size()); }

  // Snapshot of the per-model counters (stable once shutdown() returned).
  std::vector<ModelStats> stats() const;

  // Scheduler-wide terminal-status accounting. After every submitted handle
  // is done, submitted == completed + failed + expired + shed + rejected —
  // the chaos tests and the CI chaos job assert this exactly.
  struct Counters {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;  // resolved OK
    std::uint64_t failed = 0;     // execution threw
    std::uint64_t expired = 0;    // deadline passed while queued
    std::uint64_t shed = 0;       // shed at admission
    std::uint64_t rejected = 0;   // refused at submit
  };
  Counters counters() const;

  // Requests shard s popped from a sibling's queue (0 <= s < shard_count()).
  std::uint64_t steals(int s) const;

  // Deepest (queue + pending) backlog observed by any shard's dispatcher.
  std::size_t queue_depth_highwater() const {
    return queue_highwater_.load(std::memory_order_relaxed);
  }

  // ---- Watchdog / supervision surface (serving::Watchdog) ----------------

  // Monotone liveness counter for shard s's dispatcher: advances once per
  // dispatcher loop iteration. A dispatcher whose heartbeat stops while
  // shard_backlog(s) > 0 is wedged (a parked dispatcher with an empty shard
  // is NOT — its backlog is zero).
  std::uint64_t shard_heartbeat(int s) const;

  // Approximate backlog owned by shard s: admission-queue depth plus the
  // dispatcher-local pending count it last published.
  std::size_t shard_backlog(int s) const;

  // Watchdog quarantine: while set, submit() reroutes shard s's admissions
  // to the next healthy shard. Requests already queued on s stay there for
  // the restarted dispatcher to drain — they are never dropped by the flag.
  bool shard_quarantined(int s) const;
  void set_shard_quarantined(int s, bool q);

  // Supervised dispatcher restart: bumps the shard's generation (releasing a
  // thread wedged at the dispatcher_stall fault point — the stale thread
  // re-enqueues its local pending work and exits), retires the old thread
  // for joining at shutdown, and starts a fresh dispatcher on the same
  // shard. Returns false after shutdown has begun. Thread-safe.
  bool restart_dispatcher(int s);

  // Total supervised restarts performed (restart_dispatcher calls that ran).
  std::uint64_t dispatcher_restarts() const {
    return restarts_.load(std::memory_order_relaxed);
  }

  // ---- Overload-controller observability ---------------------------------

  // Current delay-gradient level of shard s (0 normal / 1 brownout / 2
  // shedding); 0 when adaptive overload control is off.
  int overload_level(int s) const;
  // Times any shard escalated from normal into brownout (level 0 -> 1).
  std::uint64_t overload_brownouts() const {
    return brownouts_.load(std::memory_order_relaxed);
  }
  // Requests shed by the delay-gradient controller (a subset of
  // counters().shed — gradient sheds stay inside the terminal accounting).
  std::uint64_t overload_sheds() const {
    return gradient_sheds_.load(std::memory_order_relaxed);
  }

 private:
  // One same-session micro-batch group. A deque because every request a
  // window leaves unfinished goes back to the FRONT (a mid-stream one holds
  // its lane and keeps its slot at the next token boundary) while new
  // arrivals append at the back. The front request is the group's oldest.
  struct Pending {
    std::deque<std::shared_ptr<detail::RequestState>> reqs;
    std::size_t highwater = 0;
  };

  // Per-shard admission queue + dispatcher + park/wake state. Heap-pinned
  // (unique_ptr) so shards never move; each dispatcher only touches its own
  // shard's lines on the steady-state path.
  struct Shard {
    explicit Shard(std::size_t queue_cap) : queue(queue_cap) {}
    common::MpmcQueue<std::shared_ptr<detail::RequestState>> queue;
    std::mutex wake_mu;
    std::condition_variable wake_cv;
    std::atomic<bool> parked{false};
    // True only while parked with NOTHING pending — the state in which the
    // shard can act on a steal nudge (a deadline-parked shard has its own
    // batches to run and ignores hints).
    std::atomic<bool> idle_parked{false};
    // Set by a submitter whose home dispatcher is busy: wakes this (idle-
    // parked) shard to scan siblings' queues. Purely a latency hint — a
    // missed nudge costs nothing, the home dispatcher drains its own queue.
    std::atomic<bool> steal_hint{false};
    std::atomic<std::uint64_t> stolen{0};  // requests taken from siblings
    // Liveness surface for the watchdog. heartbeat advances once per
    // dispatcher loop iteration — a wedged dispatcher (stalled inside an
    // iteration) stops advancing it while pending_pub + the queue stay
    // non-empty, which is exactly the signature the watchdog flags.
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<std::size_t> pending_pub{0};  // dispatcher-local backlog
    // Quarantined by the watchdog: submit() reroutes new admissions to the
    // next healthy shard (executed there under the thief rules: session exec
    // mutex + the thief's partition). Cleared when progress resumes.
    std::atomic<bool> quarantined{false};
    // Supervised-restart epoch. A dispatcher thread is born with a
    // generation; restart_dispatcher() bumps it, which (a) releases a thread
    // wedged at the dispatcher_stall fault point and (b) tells the stale
    // thread to hand its local pending work back to the queue and exit
    // instead of racing the replacement.
    std::atomic<std::uint64_t> generation{0};
    // Delay-gradient overload level published by the dispatcher:
    // 0 = normal, 1 = brownout, 2 = gradient shedding (see
    // SchedulerConfig::target_delay_usecs). submit() reads it to shrink the
    // decode window of new steppable requests under brownout.
    std::atomic<int> overload_level{0};
    std::thread dispatcher;
  };

  void dispatcher_main(int s, std::uint64_t generation);
  // Runs ONE window of `reqs` (same session) as one region. Under the
  // session exec mutex, every request without a lane takes one; each that
  // holds a lane advances one step on it, and one whose step failed or was
  // its last releases its lane and is resolved. Leaves the rest in `reqs`,
  // in order: unfinished ones and lane-starved ones (unadvanced) — the
  // dispatcher puts them back at the front of their pending group. Returns
  // how many requests ran (0: the whole window was lane-starved).
  int execute_window(int s, Session* session,
                     std::vector<std::shared_ptr<detail::RequestState>>& reqs,
                     std::size_t pending_highwater);
  // Publishes terminal requests: done (release), one done_cv_ notify for
  // all of them, then each on_done.
  void publish_done(const std::vector<detail::RequestState*>& rs);
  void wake_shard(Shard& shard);
  int shard_of(Session* session);
  // Resolves a never-executed request: sets its terminal status + latency,
  // bumps the per-model and scheduler counters matching the status code,
  // and completes the handle.
  void complete_terminal(detail::RequestState& r, Status status);

  SchedulerConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Supervised-restart bookkeeping: restart_mu_ serializes restarts against
  // each other and against shutdown's join; retired_ holds replaced
  // dispatcher threads (wedged or stale) until shutdown joins them.
  std::mutex restart_mu_;
  std::vector<std::thread> retired_;
  std::atomic<std::uint64_t> restarts_{0};

  // Overload-controller counters (see overload_brownouts/overload_sheds).
  std::atomic<std::uint64_t> brownouts_{0};
  std::atomic<std::uint64_t> gradient_sheds_{0};

  std::atomic<bool> stop_{false};
  std::atomic<int> submitters_{0};  // producers currently inside submit()
  std::atomic<std::size_t> queue_highwater_{0};
  std::atomic<int> rr_pin_{0};  // round-robin cursor for unpinned sessions

  // Scheduler-wide terminal-status accounting (see Counters).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> rejected_{0};

  mutable std::mutex stats_mu_;
  std::unordered_map<std::string, ModelStats> stats_;

  // One completion condvar for all requests, notified once per batch: far
  // fewer futex wakes than a per-request condvar (which measurably eats
  // into small-request throughput on low-core hosts).
  friend class RequestHandle;
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  std::atomic<bool> joined_{false};
};

}  // namespace plt::serving
