#include "serving/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/fault.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"

namespace plt::serving {

using steady_clock = std::chrono::steady_clock;

namespace {

// Runs a batch of `batch` requests as one region sized to it: member t of
// min(batch, team) members serves requests t, t + nthreads, ..., and team
// members with no request are never woken (a batch of one on partition 0
// runs on the dispatcher itself). Nests inside a request run as serial
// walks (nested-region rule), so this is the only dispatch cost. In the
// sharded layout a home batch runs on the SESSION's partition — the
// sub-team whose node first-touched its weights/scratch — even when the
// shard count differs from the partition count. A stolen batch (executing
// on a shard other than the session's home shard) runs on the thief's
// partition instead: the home sub-team is busy, and extra concurrency is
// the point of the steal. run_on() wraps either index modulo the partition
// count.
template <typename Body>
void run_batch_region(int s, int nshards, const Session& session, int batch,
                      const Body& body) {
  if (nshards > 1) {
    const int home = session.partition();
    const bool home_batch = home >= 0 && home % nshards == s;
    parallel_region_on(home_batch ? home : s, body, batch);
  } else {
    parallel_region(body, batch);
  }
}

}  // namespace

SchedulerConfig SchedulerConfig::from_env() {
  const SchedulerConfig def;
  SchedulerConfig c;
  c.max_batch = static_cast<int>(
      common::env_int("PLT_SERVE_MAX_BATCH", def.max_batch, 1, 4096));
  c.batch_usecs =
      common::env_int("PLT_SERVE_BATCH_USECS", def.batch_usecs, 0, 60000000);
  c.queue_capacity = static_cast<std::size_t>(common::env_int(
      "PLT_SERVE_QUEUE_CAP", static_cast<std::int64_t>(def.queue_capacity), 2,
      1 << 20));
  c.shards = static_cast<int>(common::env_int("PLT_SERVE_SHARDS", 0, 0, 64));
  c.steal = common::env_flag("PLT_SERVE_STEAL", def.steal);
  c.default_deadline_usecs = common::env_int(
      "PLT_SERVE_DEADLINE_USECS", def.default_deadline_usecs, 0, 60000000);
  c.submit_timeout_usecs =
      common::env_int("PLT_SERVE_SUBMIT_TIMEOUT_USECS",
                      def.submit_timeout_usecs, 0, 60000000);
  c.quarantine = common::env_flag("PLT_SERVE_QUARANTINE", def.quarantine);
  c.priority = common::env_flag("PLT_SERVE_PRIORITY", def.priority);
  c.decode_step_tokens = static_cast<int>(common::env_int(
      "PLT_SERVE_DECODE_STEP_TOKENS", def.decode_step_tokens, 0, 4096));
  c.target_delay_usecs = common::env_int(
      "PLT_SERVE_TARGET_DELAY_USECS", def.target_delay_usecs, 0, 60000000);
  return c;
}

void RequestHandle::wait() const {
  if (st_ == nullptr) return;
  if (st_->done.load(std::memory_order_acquire)) return;
  // Straight to the condvar: a request spans at least one model forward, so
  // spinning here only steals cycles from the team doing the work.
  RequestScheduler* owner = st_->owner;
  std::unique_lock<std::mutex> lk(owner->done_mu_);
  owner->done_cv_.wait(
      lk, [&] { return st_->done.load(std::memory_order_acquire); });
}

RequestScheduler::RequestScheduler(SchedulerConfig cfg) : cfg_(cfg) {
  PLT_CHECK(cfg_.max_batch >= 1, "serving: max_batch must be >= 1");
  int nshards = cfg_.shards;
  if (nshards <= 0) {
    // Auto: mirror the pool's partitioning so each dispatcher owns one
    // sub-team; non-pool runtimes have no partitions to mirror.
    nshards = pool_partitions();
  }
  nshards = std::max(1, nshards);
  shards_.reserve(static_cast<std::size_t>(nshards));
  for (int s = 0; s < nshards; ++s) {
    shards_.push_back(std::make_unique<Shard>(cfg_.queue_capacity));
  }
  for (int s = 0; s < nshards; ++s) {
    shards_[static_cast<std::size_t>(s)]->dispatcher =
        std::thread([this, s] { dispatcher_main(s, 0); });
  }
}

RequestScheduler::~RequestScheduler() { shutdown(); }

void RequestScheduler::wake_shard(Shard& shard) {
  {
    std::lock_guard<std::mutex> g(shard.wake_mu);
  }
  shard.wake_cv.notify_all();
}

int RequestScheduler::shard_of(Session* session) {
  const int nshards = shard_count();
  if (nshards == 1) return 0;  // single-queue layout: no pinning involved
  int p = session->partition();
  if (p < 0) {
    // Unpinned session on a sharded scheduler: pin it round-robin now (no
    // warmup — registration is where first-touch placement happens). The
    // round-robin domain is the POOL PARTITION count, not the shard count:
    // home batches execute on the session's partition, so pinning over
    // fewer shards than partitions would strand the extra sub-teams.
    const int domain =
        runtime() == Runtime::kPool ? std::max(1, pool_partitions()) : nshards;
    p = session->pin_partition_if_unpinned(
        rr_pin_.fetch_add(1, std::memory_order_relaxed) % domain);
  }
  return p % nshards;
}

void RequestScheduler::complete_terminal(detail::RequestState& r,
                                         Status status) {
  const auto now = steady_clock::now();
  r.latency_us =
      std::chrono::duration<double, std::micro>(now - r.t_submit).count();
  r.status = std::move(status);
  std::atomic<std::uint64_t>* counter = &failed_;
  std::uint64_t ModelStats::*field = &ModelStats::failed;
  switch (r.status.code()) {
    case StatusCode::kDeadlineExceeded:
      counter = &expired_;
      field = &ModelStats::expired;
      break;
    case StatusCode::kResourceExhausted:
      counter = &shed_;
      field = &ModelStats::shed;
      break;
    case StatusCode::kUnavailable:
      counter = &rejected_;
      field = &ModelStats::rejected;
      break;
    default:
      break;
  }
  counter->fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> g(stats_mu_);
    ModelStats& st = stats_[r.session->name()];
    if (st.model.empty()) st.model = r.session->name();
    st.*field += 1;
  }
  publish_done({&r});
}

void RequestScheduler::publish_done(
    const std::vector<detail::RequestState*>& rs) {
  for (detail::RequestState* r : rs) {
    r->done.store(true, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> g(done_mu_);
  }
  done_cv_.notify_all();
  for (detail::RequestState* r : rs) {
    if (r->on_done) r->on_done(r->status);
  }
}

RequestHandle RequestScheduler::submit(const std::shared_ptr<Session>& session,
                                       const Request& req) {
  PLT_CHECK(session != nullptr, "serving: submit with null session");
  submitters_.fetch_add(1, std::memory_order_seq_cst);
  struct SubmitterGuard {
    std::atomic<int>& n;
    ~SubmitterGuard() { n.fetch_sub(1, std::memory_order_seq_cst); }
  } submitter_guard{submitters_};
  submitted_.fetch_add(1, std::memory_order_relaxed);

  auto st = std::make_shared<detail::RequestState>();
  st->session = session;
  st->in = req.in;
  st->out = req.out;
  st->on_done = req.on_done;
  st->owner = this;
  st->t_submit = steady_clock::now();
  st->cls = req.cls == RequestClass::kSessionDefault ? session->default_class()
                                                     : req.cls;
  PLT_CHECK(st->cls == RequestClass::kLatency ||
                st->cls == RequestClass::kThroughput,
            "serving: request class must resolve to latency or throughput");
  const std::int64_t ddl = req.deadline_usecs >= 0
                               ? req.deadline_usecs
                               : cfg_.default_deadline_usecs;
  if (ddl > 0) {
    st->has_deadline = true;
    st->deadline = st->t_submit + std::chrono::microseconds(ddl);
  }

  if (stop_.load(std::memory_order_seq_cst)) {
    complete_terminal(*st, Status::Unavailable("scheduler shut down"));
    return RequestHandle(std::move(st));  // admission closed
  }
  if (cfg_.quarantine && !session->healthy()) {
    complete_terminal(*st, Status::Unavailable("session quarantined: " +
                                               session->health_reason()));
    return RequestHandle(std::move(st));
  }

  st->admitted = true;
  int s = shard_of(session.get());
  const int nshards = shard_count();
  if (shards_[static_cast<std::size_t>(s)]->quarantined.load(
          std::memory_order_acquire)) {
    // Watchdog quarantine: route this admission to the next healthy shard.
    // It executes there under the established thief rules (session exec
    // mutex + the thief's partition), so only locality is sacrificed — work
    // already queued on the quarantined shard is drained by its restarted
    // dispatcher, never dropped by the flag.
    for (int k = 1; k < nshards; ++k) {
      const int alt = (s + k) % nshards;
      if (!shards_[static_cast<std::size_t>(alt)]->quarantined.load(
              std::memory_order_acquire)) {
        s = alt;
        break;
      }
    }
  }
  Shard& shard = *shards_[static_cast<std::size_t>(s)];
  // Decode granularity, fixed for the request's lifetime. Normally the
  // scheduler's configured window — so every request of one session agrees
  // on steps_total and a pending group stays step-homogeneous — except
  // under brownout, where new steppable requests get a halved window:
  // smaller decode regions mean more frequent preemption points for
  // latency-class work while the shard is overloaded.
  int step_tokens = cfg_.decode_step_tokens;
  if (step_tokens > 1 &&
      shard.overload_level.load(std::memory_order_relaxed) >= 1) {
    step_tokens /= 2;
  }
  st->step_tokens = step_tokens;
  st->steps_total = std::max(1, session->step_count(step_tokens));
  while (true) {
    // The queue_push fault site simulates a full queue for one attempt
    // (kind is irrelevant here — any fire means "no space this round").
    const bool faux_full =
        common::fault::should_inject(common::fault::Site::kQueuePush) !=
        common::fault::Kind::kNone;
    if (!faux_full && shard.queue.try_push(st)) break;
    // Full queue = back-pressure. Load shedding drops the NEWEST work first:
    // this request (not anything already queued) is shed when its own
    // deadline has already passed, when the configured submit timeout
    // elapses, or when admission closes under it. Otherwise make sure the
    // dispatcher is draining, then let it run.
    if (stop_.load(std::memory_order_seq_cst)) {
      st->admitted = false;
      complete_terminal(*st, Status::Unavailable("scheduler shut down"));
      return RequestHandle(std::move(st));
    }
    const auto now = steady_clock::now();
    if (st->has_deadline && now >= st->deadline) {
      st->admitted = false;
      complete_terminal(*st, Status::ResourceExhausted(
                                 "admission queue saturated past deadline"));
      return RequestHandle(std::move(st));
    }
    if (cfg_.submit_timeout_usecs > 0 &&
        now - st->t_submit >=
            std::chrono::microseconds(cfg_.submit_timeout_usecs)) {
      st->admitted = false;
      complete_terminal(
          *st, Status::ResourceExhausted("admission queue full past submit "
                                         "timeout"));
      return RequestHandle(std::move(st));
    }
    wake_shard(shard);
    std::this_thread::yield();
  }
  // Fence pairs with the dispatcher's fence after it sets parked: either we
  // observe parked and notify, or the dispatcher's predicate observes our
  // push. Never both missed (no lost wakeup).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.parked.load(std::memory_order_relaxed)) {
    wake_shard(shard);
  } else if (cfg_.steal && nshards > 1) {
    // Home dispatcher is busy (mid-batch): nudge one IDLE-parked sibling to
    // come steal this backlog (a deadline-parked sibling has its own
    // batches and would ignore the hint). Push-side nudging keeps idle
    // shards fully asleep — no periodic steal polling — at the same steal
    // latency.
    for (int k = 1; k < nshards; ++k) {
      Shard& sib = *shards_[static_cast<std::size_t>((s + k) % nshards)];
      if (sib.idle_parked.load(std::memory_order_relaxed)) {
        sib.steal_hint.store(true, std::memory_order_release);
        wake_shard(sib);
        break;
      }
    }
  }

  return RequestHandle(std::move(st));
}

int RequestScheduler::execute_window(
    int s, Session* session,
    std::vector<std::shared_ptr<detail::RequestState>>& reqs,
    std::size_t pending_highwater) {
  std::vector<detail::RequestState*> runnable;
  std::vector<detail::RequestState*> terminal;
  std::vector<std::shared_ptr<detail::RequestState>> survivors;
  runnable.reserve(reqs.size());
  bool stepped = false;
  double exec_us = 0.0;
  // The session exec mutex guards lane hand-out and return as well as the
  // lanes themselves: a stolen window never races the home dispatcher, and a
  // sibling shard's window of this session waits on the mutex, not a lane.
  {
    std::lock_guard<std::mutex> lane_guard(session->exec_mutex());
    for (auto& r : reqs) {
      if (r->lane < 0) r->lane = session->acquire_lane();
      if (r->lane < 0) continue;  // lane-starved: stays unadvanced
      runnable.push_back(r.get());
      stepped = stepped || r->steps_total > 1;
    }
    if (runnable.empty()) return 0;

    // One region for the window, each request advancing ONE step on the
    // lane it holds (see run_batch_region). Per-request exception firewall:
    // a poisoned request fails ITS OWN handle (status_from_exception) while
    // its window-mates carry on — the exception never reaches the region
    // boundary, so the pool-level firewall (which would fail the whole
    // region) stays a backstop for bugs in this very loop.
    const int batch = static_cast<int>(runnable.size());
    WallTimer exec_timer;
    const auto body = [&](int tid, int nthreads) {
      for (int i = tid; i < batch; i += nthreads) {
        detail::RequestState& r = *runnable[static_cast<std::size_t>(i)];
        try {
          session->run_step(r.lane, r.in, r.out, r.step, r.step_tokens);
        } catch (const std::exception& e) {
          r.status = status_from_exception(e);
        } catch (...) {
          r.status = Status::Internal("unknown exception");
        }
      }
    };
    run_batch_region(s, shard_count(), *session, batch, body);
    exec_us = exec_timer.micros();

    // Triage: a failed step or a last step resolves the request and frees
    // its lane (lane release is what re-opens admission under starvation);
    // everything else — unfinished or lane-starved — survives, in order.
    for (auto& r : reqs) {
      const bool ran = r->lane >= 0;
      if (ran && r->status.ok()) ++r->step;
      if (!ran || (r->status.ok() && r->step < r->steps_total)) {
        survivors.push_back(std::move(r));
        continue;
      }
      session->release_lane(r->lane);
      r->lane = -1;
      terminal.push_back(r.get());
    }
  }

  const auto now = steady_clock::now();
  double sum_lat = 0.0, max_lat = 0.0;
  std::uint64_t n_ok = 0, n_failed = 0;
  std::string first_failure;
  for (detail::RequestState* r : terminal) {
    const double lat =
        std::chrono::duration<double, std::micro>(now - r->t_submit).count();
    r->latency_us = lat;  // before the release store: visible once done
    if (r->status.ok()) {
      ++n_ok;
      sum_lat += lat;
      max_lat = std::max(max_lat, lat);
    } else {
      ++n_failed;
      if (first_failure.empty()) first_failure = r->status.to_string();
    }
  }
  if (n_failed > 0 && cfg_.quarantine) session->mark_unhealthy(first_failure);
  completed_.fetch_add(n_ok, std::memory_order_relaxed);
  failed_.fetch_add(n_failed, std::memory_order_relaxed);

  // Stats before completion: a client that has waited on all its handles
  // must see every one of them counted. Latency aggregates cover OK requests
  // only, so chaos runs stay comparable to fault-free ones.
  {
    std::lock_guard<std::mutex> g(stats_mu_);
    ModelStats& st = stats_[session->name()];
    if (st.model.empty()) st.model = session->name();
    st.requests += n_ok;
    st.failed += n_failed;
    (stepped ? st.decode_steps : st.batches) += 1;
    (stepped ? st.decode_step_requests_sum : st.batched_requests_sum) +=
        runnable.size();
    st.sum_latency_us += sum_lat;
    st.max_latency_us = std::max(st.max_latency_us, max_lat);
    st.sum_exec_us += exec_us;
    st.pending_highwater = std::max(st.pending_highwater, pending_highwater);
  }
  if (!terminal.empty()) publish_done(terminal);
  reqs = std::move(survivors);
  return static_cast<int>(runnable.size());
}

void RequestScheduler::dispatcher_main(int s, std::uint64_t my_gen) {
  Shard& shard = *shards_[static_cast<std::size_t>(s)];
  const int nshards = shard_count();
  const bool can_steal = cfg_.steal && nshards > 1;
  const auto stale = [&] {
    return shard.generation.load(std::memory_order_acquire) != my_gen;
  };
  if (runtime() == Runtime::kPool && nshards > 1) {
    // Keep this dispatcher's submit/wait loops resident on the node whose
    // sub-team executes its batches.
    ThreadPool& pool = ThreadPool::instance();
    pool.pin_caller_to_partition(s % pool.partitions());
  }

  // One pending map per class: [0] latency, [1] throughput. With priority
  // off, everything lands in [0] and the layout reduces to the class-blind
  // pre-priority scheduler.
  std::unordered_map<Session*, Pending> pending[2];
  std::size_t n_pending = 0;
  const int nclasses = cfg_.priority ? 2 : 1;

  const auto effective_batch = [&](Session* sess) {
    return std::min(cfg_.max_batch, sess->lanes());
  };
  const auto class_of = [&](const detail::RequestState& r) {
    return cfg_.priority ? static_cast<std::size_t>(r.cls) : std::size_t{0};
  };
  // Expiry gate: a request whose deadline passed before its first step
  // completes kDeadlineExceeded without running, its output buffer
  // untouched. One past step 0 has partial output and a live lane, and
  // always runs to completion. Returns true when r was resolved.
  const auto expire_if_due = [&](detail::RequestState& r,
                                 steady_clock::time_point now) {
    if (r.step > 0 || !r.has_deadline || now < r.deadline) return false;
    complete_terminal(r,
                      Status::DeadlineExceeded("deadline passed while queued"));
    return true;
  };
  // A group flushes once its front request is mid-stream (it holds a lane
  // and must keep its slot at the next token boundary), once it fills a
  // window, or once its oldest request — always the front one — has waited
  // batch_usecs.
  const auto batch_deadline = [&](const Pending& p) {
    return p.reqs.front()->t_submit +
           std::chrono::microseconds(cfg_.batch_usecs);
  };
  const auto ready = [&](Session* sess, const Pending& p,
                         steady_clock::time_point now) {
    return p.reqs.front()->step > 0 ||
           static_cast<int>(p.reqs.size()) >= effective_batch(sess) ||
           now >= batch_deadline(p);
  };
  // Runs ONE window (up to effective_batch requests) from the front of group
  // p and pushes every request that is not terminal back to the FRONT, in
  // order: mid-stream ones keep their slots at the next token boundary,
  // lane-starved ones wait for a completion. Returns false only when
  // nothing moved (every lane held by in-flight requests elsewhere and no
  // request expired).
  const auto flush = [&](Pending& p) -> bool {
    if (p.reqs.empty()) return false;
    Session* sess = p.reqs.front()->session.get();
    const auto now = steady_clock::now();
    std::vector<std::shared_ptr<detail::RequestState>> take;
    bool progressed = false;
    while (static_cast<int>(take.size()) < effective_batch(sess) &&
           !p.reqs.empty()) {
      auto r = std::move(p.reqs.front());
      p.reqs.pop_front();
      --n_pending;
      if (expire_if_due(*r, now)) {
        progressed = true;
        continue;
      }
      take.push_back(std::move(r));
    }
    if (take.empty()) return progressed;
    if (execute_window(s, sess, take, p.highwater) > 0) progressed = true;
    p.reqs.insert(p.reqs.begin(), std::make_move_iterator(take.begin()),
                  std::make_move_iterator(take.end()));
    n_pending += take.size();
    return progressed;
  };
  const auto admit = [&](std::shared_ptr<detail::RequestState> r) {
    if (expire_if_due(*r, steady_clock::now())) return;
    Pending& p = pending[class_of(*r)][r->session.get()];
    p.reqs.push_back(std::move(r));
    ++n_pending;
    p.highwater = std::max(p.highwater, p.reqs.size());
  };
  const auto drain = [&] {
    std::shared_ptr<detail::RequestState> r;
    while (shard.queue.try_pop(r)) admit(std::move(r));
  };

  // ---- Delay-gradient overload controller (cfg_.target_delay_usecs > 0).
  // CoDel-shaped: track the MINIMUM head-of-line sojourn of the standing
  // backlog over a controller interval. If even the minimum stayed above the
  // target, the backlog is not a transient burst — escalate one level
  // (normal -> brownout -> gradient shed); once it dips below, de-escalate.
  // Using the interval minimum (not the mean) is what makes bursts free:
  // a queue that fully drains at any point in the interval resets to 0.
  const bool adaptive = cfg_.target_delay_usecs > 0;
  constexpr std::int64_t kNoSample = std::numeric_limits<std::int64_t>::max();
  const auto interval = std::chrono::microseconds(
      adaptive ? std::max<std::int64_t>(4 * cfg_.target_delay_usecs,
                                        2 * cfg_.batch_usecs + 100)
               : 0);
  auto interval_end = steady_clock::now() + interval;
  std::int64_t min_sojourn_us = kNoSample;
  int level = 0;

  // Level-2 relief valve: shed half of the throughput-class queued backlog,
  // earliest-to-miss-deadline first (that work would expire unexecuted
  // anyway — shedding it now frees capacity for requests that can still make
  // their deadlines), deadline-less requests newest-first after. Latency-
  // class and in-flight stepped requests are never gradient-shed.
  const auto gradient_shed = [&] {
    auto& shed_class = pending[nclasses - 1];
    std::vector<std::shared_ptr<detail::RequestState>*> cand;
    for (auto& entry : shed_class) {
      for (auto& r : entry.second.reqs) {
        if (r->step == 0) cand.push_back(&r);
      }
    }
    if (cand.empty()) return;
    const std::size_t n_shed = std::max<std::size_t>(1, cand.size() / 2);
    std::sort(cand.begin(), cand.end(),
              [](const std::shared_ptr<detail::RequestState>* a,
                 const std::shared_ptr<detail::RequestState>* b) {
                const detail::RequestState& ra = **a;
                const detail::RequestState& rb = **b;
                if (ra.has_deadline != rb.has_deadline) return ra.has_deadline;
                if (ra.has_deadline) return ra.deadline < rb.deadline;
                return ra.t_submit > rb.t_submit;
              });
    for (std::size_t i = 0; i < n_shed; ++i) {
      gradient_sheds_.fetch_add(1, std::memory_order_relaxed);
      complete_terminal(
          **cand[i],
          Status::ResourceExhausted("overload: delay-gradient shed"));
      cand[i]->reset();  // tombstone; compacted below
    }
    for (auto& entry : shed_class) {
      auto& q = entry.second.reqs;
      q.erase(std::remove_if(
                  q.begin(), q.end(),
                  [](const std::shared_ptr<detail::RequestState>& r) {
                    return r == nullptr;
                  }),
              q.end());
    }
    n_pending -= n_shed;
  };
  const auto controller_tick = [&] {
    const auto now = steady_clock::now();
    if (n_pending == 0 && shard.queue.size_approx() == 0) {
      min_sojourn_us = 0;  // backlog fully drained inside this interval
    } else {
      auto oldest = steady_clock::time_point::max();
      for (auto& per_class : pending) {
        for (auto& entry : per_class) {
          if (!entry.second.reqs.empty()) {
            oldest = std::min(oldest, entry.second.reqs.front()->t_submit);
          }
        }
      }
      if (oldest != steady_clock::time_point::max()) {
        min_sojourn_us = std::min(
            min_sojourn_us,
            std::chrono::duration_cast<std::chrono::microseconds>(now - oldest)
                .count());
      }
    }
    if (now < interval_end) return;
    const bool over =
        min_sojourn_us != kNoSample && min_sojourn_us > cfg_.target_delay_usecs;
    if (over) {
      if (level == 0) brownouts_.fetch_add(1, std::memory_order_relaxed);
      level = std::min(2, level + 1);
      if (level == 2) gradient_shed();
    } else {
      level = std::max(0, level - 1);
    }
    shard.overload_level.store(level, std::memory_order_relaxed);
    min_sojourn_us = kNoSample;
    interval_end = now + interval;
  };

  // Flushes ready groups in (class, earliest-request-deadline, age) order
  // until none remain. The admission queue is re-drained after EVERY window:
  // that is both the priority overtake point (fresh latency work preempts a
  // formed throughput batch between regions) and the continuous-batching
  // join point (a mid-stream decode submit enters its group before the next
  // token window). Groups whose flush cannot progress (lane-starved) are
  // set aside so their siblings still flush; a completion clears the set.
  const auto flush_ready = [&] {
    std::vector<Session*> starved;
    const auto is_starved = [&](Session* sess) {
      return std::find(starved.begin(), starved.end(), sess) != starved.end();
    };
    while (true) {
      const auto now = steady_clock::now();
      Pending* best = nullptr;
      Session* best_sess = nullptr;
      steady_clock::time_point best_ddl{};
      steady_clock::time_point best_old{};
      // `best == nullptr` in the class-loop condition: any ready group in a
      // lower (more urgent) class preempts the entire next class.
      for (int ci = 0; ci < nclasses && best == nullptr; ++ci) {
        if (level >= 1 && nclasses == 2 && ci == 1) {
          // Brownout: throughput-class batches yield whenever ANY latency
          // work is pending — even a group that has not hit its batch
          // deadline yet. The latency group becomes ready within
          // batch_usecs, so the yield costs throughput at most one batch
          // window per round while the shard is overloaded.
          bool latency_waiting = false;
          for (auto& entry : pending[0]) {
            if (!entry.second.reqs.empty()) {
              latency_waiting = true;
              break;
            }
          }
          if (latency_waiting) break;
        }
        for (auto& entry : pending[ci]) {
          Pending& p = entry.second;
          if (p.reqs.empty() || is_starved(entry.first) ||
              !ready(entry.first, p, now)) {
            continue;
          }
          auto ddl = steady_clock::time_point::max();
          for (const auto& r : p.reqs) {
            if (r->has_deadline) ddl = std::min(ddl, r->deadline);
          }
          const auto old = p.reqs.front()->t_submit;
          if (best == nullptr || ddl < best_ddl ||
              (ddl == best_ddl && old < best_old)) {
            best = &p;
            best_sess = entry.first;
            best_ddl = ddl;
            best_old = old;
          }
        }
      }
      if (best == nullptr) break;
      if (flush(*best)) {
        starved.clear();  // a completion may have freed lanes
        drain();
      } else {
        starved.push_back(best_sess);
      }
      // Tick at every dequeue opportunity (the CoDel sampling point), not
      // just once per dispatcher-loop iteration: a saturating burst is
      // drained entirely inside this loop, so an outer-loop-only tick would
      // sample the queue before the backlog forms and after it is gone —
      // and never observe the standing delay in between. `best` is
      // recomputed after the tick, so a gradient shed mutating the pending
      // queues here is safe.
      if (adaptive) controller_tick();
    }
  };
  // Idle shard: pop from siblings' queues, oldest shard first from s+1. The
  // executing partition gets the steal attributed (ISSUE 5 stats).
  const auto try_steal = [&]() -> bool {
    bool stole = false;
    int budget = cfg_.max_batch;
    for (int k = 1; k < nshards && budget > 0; ++k) {
      Shard& victim = *shards_[static_cast<std::size_t>((s + k) % nshards)];
      std::shared_ptr<detail::RequestState> r;
      while (budget > 0 && victim.queue.try_pop(r)) {
        shard.stolen.fetch_add(1, std::memory_order_relaxed);
        if (runtime() == Runtime::kPool) {
          ThreadPool& pool = ThreadPool::instance();
          pool.note_steal(s % pool.partitions());
        }
        admit(std::move(r));
        stole = true;
        --budget;
      }
    }
    return stole;
  };

  while (true) {
    // Deterministic wedge (dispatcher_stall fault site, any kind): park this
    // thread mid-iteration — heartbeat frozen, backlog accumulating — until
    // the watchdog's restart_dispatcher() bumps the shard generation or
    // shutdown begins. This is exactly the failure the watchdog exists to
    // detect; the site sits OUTSIDE any session exec mutex so failover
    // re-warms never deadlock against the wedged thread.
    if (common::fault::should_inject(common::fault::Site::kDispatcherStall) !=
        common::fault::Kind::kNone) {
      while (!stop_.load(std::memory_order_acquire) && !stale()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    if (stale()) {
      // Replaced by a supervised restart: hand every locally pending request
      // back through the admission queue for the new dispatcher, then exit
      // without touching shard state again. The submitters_ guard is the
      // same no-lost-work protocol submit() uses: the new dispatcher cannot
      // conclude its shutdown drain while we are mid-handback, so either our
      // pushes land in time to be drained or we resolve them terminally
      // ourselves — a stranded request always gets exactly one status.
      submitters_.fetch_add(1, std::memory_order_seq_cst);
      const bool closed = stop_.load(std::memory_order_seq_cst);
      for (auto& per_class : pending) {
        for (auto& entry : per_class) {
          for (auto& req : entry.second.reqs) {
            if (closed || !shard.queue.try_push(req)) {
              if (req->lane >= 0) {
                req->session->release_lane(req->lane);
                req->lane = -1;
              }
              complete_terminal(
                  *req, Status::Unavailable("dispatcher restarted; request "
                                            "not rescheduled"));
            }
          }
          entry.second.reqs.clear();
        }
      }
      wake_shard(shard);
      submitters_.fetch_sub(1, std::memory_order_seq_cst);
      return;
    }
    shard.heartbeat.fetch_add(1, std::memory_order_relaxed);

    // Sample the backlog BEFORE draining/flushing (flushing empties groups,
    // so sampling after would cap the metric near max_batch). CAS-max:
    // plain check-then-store would let two shards' interleaved updates
    // regress the published high-water mark.
    const std::size_t depth = shard.queue.size_approx() + n_pending;
    std::size_t seen = queue_highwater_.load(std::memory_order_relaxed);
    while (depth > seen && !queue_highwater_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }

    std::shared_ptr<detail::RequestState> r;
    drain();
    shard.pending_pub.store(n_pending, std::memory_order_relaxed);

    if (stop_.load(std::memory_order_seq_cst)) {
      // Draining: force-flush every partial batch — repeatedly, because a
      // stepped group needs one window per remaining token step and a lane-
      // starved group must wait for a sibling shard's completions — then
      // exit once no producer is mid-submit, nothing is pending and the
      // shard's queue is provably empty. Every shard drains its own queue,
      // so stealing is unnecessary here.
      bool progressed = true;
      while (n_pending > 0 && progressed) {
        progressed = false;
        for (auto& per_class : pending) {
          for (auto& entry : per_class) {
            if (!entry.second.reqs.empty()) {
              progressed = flush(entry.second) || progressed;
            }
          }
        }
      }
      if (submitters_.load(std::memory_order_seq_cst) == 0 &&
          n_pending == 0) {
        if (!shard.queue.try_pop(r)) break;
        admit(std::move(r));
      } else {
        std::this_thread::yield();
      }
      continue;
    }

    if (adaptive) controller_tick();
    flush_ready();
    shard.pending_pub.store(n_pending, std::memory_order_relaxed);

    if (n_pending == 0) {
      if (can_steal) {
        // Consume any pending nudge before scanning, so a nudge that lands
        // mid-scan wakes the park below instead of being lost.
        shard.steal_hint.store(false, std::memory_order_relaxed);
        if (try_steal()) continue;
      }
      std::unique_lock<std::mutex> lk(shard.wake_mu);
      shard.parked.store(true, std::memory_order_relaxed);
      shard.idle_parked.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      shard.wake_cv.wait(lk, [&] {
        return shard.queue.size_approx() > 0 ||
               stop_.load(std::memory_order_acquire) || stale() ||
               (can_steal &&
                shard.steal_hint.load(std::memory_order_acquire));
      });
      shard.idle_parked.store(false, std::memory_order_relaxed);
      shard.parked.store(false, std::memory_order_relaxed);
      continue;
    }

    // Partial batches: expire never-executed requests whose own deadline
    // passed (they leave the batch without running; in-flight stepped
    // requests are immune), then sleep until the next deadline — batch or
    // per-request, whichever is sooner — or a new arrival. A group that is
    // ready but still here is lane-starved; lanes free on another shard's
    // completions, which don't wake this one, so poll on a short backoff.
    const auto now = steady_clock::now();
    steady_clock::time_point earliest = steady_clock::time_point::max();
    for (auto& per_class : pending) {
      for (auto& entry : per_class) {
        Pending& p = entry.second;
        const std::size_t before = p.reqs.size();
        p.reqs.erase(
            std::remove_if(p.reqs.begin(), p.reqs.end(),
                           [&](const std::shared_ptr<detail::RequestState>& r) {
                             return expire_if_due(*r, now);
                           }),
            p.reqs.end());
        n_pending -= before - p.reqs.size();
        if (p.reqs.empty()) continue;
        if (ready(entry.first, p, now)) {
          earliest = std::min(earliest, now + std::chrono::microseconds(200));
        } else {
          earliest = std::min(earliest, batch_deadline(p));
          for (const auto& r : p.reqs) {
            if (r->has_deadline) earliest = std::min(earliest, r->deadline);
          }
        }
      }
    }
    if (n_pending == 0) continue;
    std::unique_lock<std::mutex> lk(shard.wake_mu);
    shard.parked.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    shard.wake_cv.wait_until(lk, earliest, [&] {
      return shard.queue.size_approx() > 0 ||
             stop_.load(std::memory_order_acquire) || stale();
    });
    shard.parked.store(false, std::memory_order_relaxed);
  }
}

void RequestScheduler::shutdown() {
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) wake_shard(*shard);
  bool expected = false;
  if (joined_.compare_exchange_strong(expected, true)) {
    // restart_mu_ held across the joins: restart_dispatcher() either
    // completes before we take it (its replacement thread is in shards_ /
    // retired_ and gets joined) or takes it after stop_ is set and refuses.
    std::lock_guard<std::mutex> g(restart_mu_);
    for (auto& shard : shards_) {
      if (shard->dispatcher.joinable()) shard->dispatcher.join();
    }
    for (auto& t : retired_) {
      if (t.joinable()) t.join();
    }
    retired_.clear();
  }
}

std::uint64_t RequestScheduler::shard_heartbeat(int s) const {
  if (s < 0 || s >= shard_count()) return 0;
  return shards_[static_cast<std::size_t>(s)]->heartbeat.load(
      std::memory_order_acquire);
}

std::size_t RequestScheduler::shard_backlog(int s) const {
  if (s < 0 || s >= shard_count()) return 0;
  const Shard& shard = *shards_[static_cast<std::size_t>(s)];
  return shard.queue.size_approx() +
         shard.pending_pub.load(std::memory_order_relaxed);
}

bool RequestScheduler::shard_quarantined(int s) const {
  if (s < 0 || s >= shard_count()) return false;
  return shards_[static_cast<std::size_t>(s)]->quarantined.load(
      std::memory_order_acquire);
}

void RequestScheduler::set_shard_quarantined(int s, bool q) {
  if (s < 0 || s >= shard_count()) return;
  shards_[static_cast<std::size_t>(s)]->quarantined.store(
      q, std::memory_order_release);
}

int RequestScheduler::overload_level(int s) const {
  if (s < 0 || s >= shard_count()) return 0;
  return shards_[static_cast<std::size_t>(s)]->overload_level.load(
      std::memory_order_relaxed);
}

bool RequestScheduler::restart_dispatcher(int s) {
  if (s < 0 || s >= shard_count()) return false;
  Shard& shard = *shards_[static_cast<std::size_t>(s)];
  std::lock_guard<std::mutex> g(restart_mu_);
  if (stop_.load(std::memory_order_seq_cst)) return false;
  // Bumping the generation (a) releases a thread wedged at the
  // dispatcher_stall fault point and (b) marks the old thread stale: it
  // hands its local pending work back through the queue and exits instead
  // of racing the replacement on shard state.
  const std::uint64_t gen =
      shard.generation.fetch_add(1, std::memory_order_acq_rel) + 1;
  wake_shard(shard);  // a parked stale thread must observe the bump
  retired_.push_back(std::move(shard.dispatcher));
  shard.dispatcher = std::thread([this, s, gen] { dispatcher_main(s, gen); });
  restarts_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<ModelStats> RequestScheduler::stats() const {
  std::lock_guard<std::mutex> g(stats_mu_);
  std::vector<ModelStats> out;
  out.reserve(stats_.size());
  for (const auto& entry : stats_) out.push_back(entry.second);
  std::sort(out.begin(), out.end(),
            [](const ModelStats& a, const ModelStats& b) {
              return a.model < b.model;
            });
  return out;
}

RequestScheduler::Counters RequestScheduler::counters() const {
  Counters c;
  c.submitted = submitted_.load(std::memory_order_relaxed);
  c.completed = completed_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  c.expired = expired_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.rejected = rejected_.load(std::memory_order_relaxed);
  return c;
}

std::uint64_t RequestScheduler::steals(int s) const {
  if (s < 0 || s >= shard_count()) return 0;
  return shards_[static_cast<std::size_t>(s)]->stolen.load(
      std::memory_order_relaxed);
}

}  // namespace plt::serving
