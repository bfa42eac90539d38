#include "parlooper/interpreter.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/threading.hpp"

namespace plt::parlooper {

namespace {

struct ThreadExec {
  const LoopNestPlan& plan;
  const BodyFn& body;
  int tid;
  int nthreads;
  bool simulated = false;  // skip barriers when replaying a single thread
  const VoidFn* on_barrier = nullptr;    // trace hook (schedule precompiler)
  int live_barriers_passed = 0;          // live barriers completed so far
  int live_barriers_to_skip = 0;         // resuming the protocol: already passed
  std::int64_t coord[4] = {0, 0, 0, 0};  // index by GridAxis
  std::vector<std::int64_t> cur;         // current value per level
  std::vector<std::int64_t> ind;         // body's logical-index array

  ThreadExec(const LoopNestPlan& p, const BodyFn& b, int t, int n)
      : plan(p), body(b), tid(t), nthreads(n) {
    cur.assign(p.levels().size(), 0);
    ind.assign(static_cast<std::size_t>(p.num_logical()), 0);
  }

  // Maps a flat grid-cell id to (row, col, layer) coordinates. Cells are
  // distributed round-robin across the team, so a team smaller than the
  // grid still covers every cell (and a larger team leaves threads idle).
  void set_cell(std::int64_t cell) {
    const std::int64_t layers = plan.grid_layers(), cols = plan.grid_cols();
    coord[static_cast<int>(GridAxis::kRow)] = cell / (cols * layers);
    coord[static_cast<int>(GridAxis::kCol)] = (cell / layers) % cols;
    coord[static_cast<int>(GridAxis::kLayer)] = cell % layers;
  }

  std::int64_t level_base(std::size_t li) const {
    const CompiledLevel& lvl = plan.levels()[li];
    if (lvl.parent_level < 0) {
      return plan.loops()[static_cast<std::size_t>(lvl.term.logical)].start;
    }
    return cur[static_cast<std::size_t>(lvl.parent_level)];
  }

  void call_body() {
    for (int l = 0; l < plan.num_logical(); ++l) {
      ind[static_cast<std::size_t>(l)] =
          cur[static_cast<std::size_t>(plan.innermost_level()[static_cast<std::size_t>(l)])];
    }
    body(ind.data());
  }

  void barrier() {
    if (on_barrier != nullptr) {
      (*on_barrier)();
    } else if (!simulated && nthreads > 1) {
      if (live_barriers_to_skip > 0) {
        --live_barriers_to_skip;
      } else {
        thread_barrier();
      }
      ++live_barriers_passed;
    }
  }

  void run_level(std::size_t li) {
    if (li == plan.levels().size()) {
      call_body();
      return;
    }
    const CompiledLevel& lvl = plan.levels()[li];

    if (lvl.group_head) {
      run_collapse_group(li);
      // A barrier on the group's last member fires once the whole collapse
      // group completes, as Listing 2's barrier after the group's closing
      // brace does. (Mid-group barriers are rejected by validate_spec; they
      // could never fire a consistent number of times.)
      const std::size_t gend = li + static_cast<std::size_t>(lvl.group_size);
      if (plan.levels()[gend - 1].term.barrier_after) barrier();
      return;
    }

    if (lvl.term.grid != GridAxis::kNone) {
      // Block partition of the trip count along this grid axis.
      const std::int64_t ways = lvl.term.grid_ways;
      const std::int64_t w = coord[static_cast<int>(lvl.term.grid)];
      const std::int64_t lo = (lvl.trip * w) / ways;
      const std::int64_t hi = (lvl.trip * (w + 1)) / ways;
      const std::int64_t base = level_base(li);
      for (std::int64_t it = lo; it < hi; ++it) {
        cur[li] = base + it * lvl.step;
        run_level(li + 1);
      }
      return;
    }

    // Sequential level (executed redundantly by every thread).
    const std::int64_t base = level_base(li);
    for (std::int64_t it = 0; it < lvl.trip; ++it) {
      cur[li] = base + it * lvl.step;
      run_level(li + 1);
    }
    if (lvl.term.barrier_after) barrier();
  }

  // PAR-MODE 1: flatten the group's (constant) trip counts row-major and
  // split the flat range across threads. schedule(dynamic,c) is emulated
  // with cyclic chunk assignment — deterministic, synchronization-free, and
  // load-balancing like the OpenMP dynamic schedule it stands in for.
  void run_collapse_group(std::size_t head) {
    const CompiledLevel& h = plan.levels()[head];
    const int gs = h.group_size;
    const std::int64_t total = h.group_total;  // precompiled by the plan

    const auto exec_flat = [&](std::int64_t flat) {
      std::int64_t rem = flat;
      for (int g = gs - 1; g >= 0; --g) {
        const std::size_t li = head + static_cast<std::size_t>(g);
        const CompiledLevel& lvl = plan.levels()[li];
        const std::int64_t it = rem % lvl.trip;
        rem /= lvl.trip;
        // Note: cur[] of an earlier group level may be this level's base, so
        // bases must be resolved outermost-first; stash step indices first.
        cur[li] = it;  // temporarily store the step index
      }
      for (int g = 0; g < gs; ++g) {
        const std::size_t li = head + static_cast<std::size_t>(g);
        const CompiledLevel& lvl = plan.levels()[li];
        const std::int64_t it = cur[li];
        cur[li] = level_base(li) + it * lvl.step;
      }
      run_level(head + static_cast<std::size_t>(gs));
    };

    if (plan.parsed().dynamic_schedule) {
      const std::int64_t chunk = plan.parsed().dynamic_chunk;
      for (std::int64_t b = tid; b * chunk < total; b += nthreads) {
        const std::int64_t lo = b * chunk;
        const std::int64_t hi = std::min(total, lo + chunk);
        for (std::int64_t f = lo; f < hi; ++f) exec_flat(f);
      }
    } else {
      const std::int64_t per = (total + nthreads - 1) / nthreads;
      const std::int64_t lo = std::min<std::int64_t>(total, per * tid);
      const std::int64_t hi = std::min<std::int64_t>(total, lo + per);
      for (std::int64_t f = lo; f < hi; ++f) exec_flat(f);
    }
  }
};

// Runs one thread's full traversal (grid-cell loop included); the shared
// entry point of live execution, simulation and schedule precompilation.
void traverse_thread(ThreadExec& exec) {
  const LoopNestPlan& plan = exec.plan;
  if (plan.parsed().explicit_grid) {
    const std::int64_t cells = static_cast<std::int64_t>(plan.grid_rows()) *
                               plan.grid_cols() * plan.grid_layers();
    for (std::int64_t cell = exec.tid; cell < cells; cell += exec.nthreads) {
      exec.set_cell(cell);
      exec.run_level(0);
    }
  } else {
    exec.run_level(0);
  }
}

// Steady-state executor: walks a precompiled ThreadProgram. The body sees
// exactly the index tuples the recursive traversal would have produced, with
// real barriers at segment boundaries.
void walk_program(const ThreadProgram& prog, int num_logical,
                  const BodyFn& body, TeamMember& m, bool live_barriers) {
  const std::int64_t* ind = prog.inds.data();
  const std::size_t nseg = prog.seg_len.size();
  for (std::size_t s = 0; s < nseg; ++s) {
    const std::int64_t len = prog.seg_len[s];
    m.run([&] {
      const std::int64_t* it = ind;
      for (std::int64_t i = 0; i < len; ++i, it += num_logical) body(it);
    });
    ind += len * num_logical;
    if (live_barriers && s + 1 < nseg) thread_barrier();
  }
}

}  // namespace

ThreadProgram record_thread_program(const LoopNestPlan& plan, int tid,
                                    int nthreads) {
  ThreadProgram prog;
  const int nlog = plan.num_logical();
  std::int64_t seg = 0;
  const BodyFn recorder = [&](const std::int64_t* ind) {
    prog.inds.insert(prog.inds.end(), ind, ind + nlog);
    ++seg;
  };
  const VoidFn barrier_hook = [&] {
    prog.seg_len.push_back(seg);
    seg = 0;
  };
  ThreadExec exec(plan, recorder, tid, nthreads);
  exec.simulated = true;
  exec.on_barrier = &barrier_hook;
  traverse_thread(exec);
  prog.seg_len.push_back(seg);  // final (possibly empty) segment
  return prog;
}

std::vector<ThreadProgram> record_team_programs(const LoopNestPlan& plan,
                                                int nthreads) {
  std::vector<ThreadProgram> team;
  team.reserve(static_cast<std::size_t>(nthreads));
  std::size_t nsegs = 0;
  for (int t = 0; t < nthreads; ++t) {
    if (t > 0 && !plan.any_parallel()) {
      // Serial nests execute on thread 0 only (mirrors simulate_thread);
      // other members get an empty program with matching barrier structure.
      ThreadProgram idle;
      idle.seg_len.assign(nsegs, 0);
      team.push_back(std::move(idle));
      continue;
    }
    team.push_back(record_thread_program(plan, t, nthreads));
    if (t == 0) nsegs = team[0].seg_len.size();
  }
  return team;
}

const TeamSchedule* LoopNestPlan::team_schedule(int nthreads) const {
  if (total_iterations_ > kFlatScheduleMaxIters) return nullptr;

  // Lock-free hit path: the chain only ever grows at the head and nodes are
  // immutable once published.
  for (const TeamSchedule* s = schedules_.load(std::memory_order_acquire);
       s != nullptr; s = s->next) {
    if (s->nthreads == nthreads) return s;
  }

  std::lock_guard<std::mutex> lock(schedule_build_mu_);
  const TeamSchedule* head = schedules_.load(std::memory_order_relaxed);
  for (const TeamSchedule* s = head; s != nullptr; s = s->next) {
    if (s->nthreads == nthreads) return s;
  }

  std::vector<ThreadProgram> team = record_team_programs(*this, nthreads);
  const std::size_t nsegs = team.empty() ? 0 : team[0].seg_len.size();
  for (const ThreadProgram& prog : team) {
    PLT_ENSURE(prog.seg_len.size() == nsegs, StatusCode::kInternal,
               "flat schedule: barrier count differs across threads");
  }
  auto* sched = new TeamSchedule;
  sched->nthreads = nthreads;
  sched->threads = std::move(team);
  sched->next = head;
  schedules_.store(sched, std::memory_order_release);
  return sched;
}

void run_member(const LoopNestPlan& plan, TeamMember& m, const BodyFn& body,
                const VoidFn& init, const VoidFn& term) {
  // A serial nest (no parallel letters) runs whole on member 0; running it
  // redundantly on every member, as the raw Listing-2 code would, duplicates
  // the computation.
  const bool serial = !plan.any_parallel();
  if (serial && m.tid() != 0) return;
  const int tid = m.tid();
  const int nthreads = serial ? 1 : m.nthreads();
  if (init) m.run(init);
  if (const TeamSchedule* sched = plan.team_schedule(nthreads)) {
    walk_program(sched->threads[static_cast<std::size_t>(tid)],
                 plan.num_logical(), body, m, nthreads > 1);
  } else {
    // The recursive walk has barriers at any depth, so it runs as one unit of
    // work. If it stopped early (it threw, or the region had already failed),
    // a second walk with a no-op body finishes this member's barrier
    // protocol, waiting only at the barriers the first walk did not pass.
    const auto walk = [serial](ThreadExec& exec) {
      if (serial) {
        exec.run_level(0);
      } else {
        traverse_thread(exec);
      }
    };
    ThreadExec exec(plan, body, tid, nthreads);
    bool done = false;
    m.run([&] {
      walk(exec);
      done = true;
    });
    if (!done && nthreads > 1) {
      static const BodyFn skip = [](const std::int64_t*) {};
      ThreadExec rest(plan, skip, tid, nthreads);
      rest.live_barriers_to_skip = exec.live_barriers_passed;
      walk(rest);
    }
  }
  if (term) m.run(term);
}

void simulate_thread(const LoopNestPlan& plan, int tid, int nthreads,
                     const BodyFn& body) {
  if (!plan.any_parallel()) {
    if (tid != 0) return;  // serial nests execute on one thread
    ThreadExec exec(plan, body, 0, 1);
    exec.simulated = true;
    traverse_thread(exec);
    return;
  }
  ThreadExec exec(plan, body, tid, nthreads);
  exec.simulated = true;
  traverse_thread(exec);
}

}  // namespace plt::parlooper
