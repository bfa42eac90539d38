// wire_small and wire_mixed: traffic over loopback TCP against an in-process
// net::Server on the default scheduler, from ONE generator thread (this
// one) over at most two connections. Arrivals and inputs come from --seed.
//
// Each window runs an open loop (60% of it), then a closed loop.
//
// Open loop: arrival times are a Poisson process with a fixed count (rate x
// window, times sorted uniform), sent on schedule whatever the server does;
// each request is timed from its due time, not its send time, so a stall
// also charges the requests queued behind it, and the generator's lateness
// is reported. The headline latency comes from this phase.
//
// Closed loop: each connection keeps a fixed number of requests outstanding.
// Throughput is the goodput of this phase: OK responses within their
// request's deadline (if it has one), per second.
//
// Every OK response is compared bit for bit with the first response seen for
// the same (model, input), and that one with an in-process run of the
// session; the terminal accounting of scheduler, server and generator must
// agree exactly.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serving/model_registry.hpp"
#include "serving/scheduler.hpp"
#include "serving/session.hpp"
#include "suite.hpp"
#include "trace.hpp"

namespace plt::suite {

namespace {

constexpr int kInputs = 16;  // distinct inputs per model
constexpr int kConns = 2;
constexpr std::uint64_t kDrainNs = 10'000'000'000;  // lost after 10 s

// Records a dl.exec span around every execution the scheduler makes of the
// wrapped session. Forwards the step interface and copies the default class,
// so scheduling is the same as with the bare session.
class TracedSession final : public serving::Session {
 public:
  explicit TracedSession(std::shared_ptr<serving::Session> inner)
      : Session(inner->name(), inner->lanes(), inner->input_elems(),
                inner->output_elems(), inner->flops_per_request()),
        inner_(std::move(inner)) {
    set_default_class(inner_->default_class());
  }

  void run(int lane, const float* in, float* out) override {
    trace::Span span("dl.exec", "exec");
    inner_->run(lane, in, out);
  }
  bool steppable() const override { return inner_->steppable(); }
  int step_count(int tokens_per_step) const override {
    return inner_->step_count(tokens_per_step);
  }
  void run_step(int lane, const float* in, float* out, int step,
                int tokens_per_step) override {
    trace::Span span("dl.exec", "exec");
    inner_->run_step(lane, in, out, step, tokens_per_step);
  }

 private:
  std::shared_ptr<serving::Session> inner_;
};

struct Model {
  std::string name;
  std::function<std::shared_ptr<serving::Session>(int lanes)> make;
  std::int64_t deadline_usecs = -1;  // -1: server default (none)
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<std::uint8_t>> frames;  // encoded; id patched per send
  std::vector<std::vector<float>> first;          // first OK payload per input
  std::shared_ptr<serving::Session> session;      // undecorated
};

// The traffic of one wire workload.
struct Spec {
  std::vector<Model> models;
  std::vector<int> tape;    // model of each arrival, cycled
  double rate = 0.0;        // open-loop arrivals per second
  int latency_model = -1;   // headline latency: this model, -1 = all
};

constexpr double kOpenShare = 0.6;  // of the window; the rest is closed loop
constexpr int kClosedDepth = 8;     // closed loop: outstanding per connection

struct Tally {
  std::uint64_t sent = 0, received = 0, ok = 0, non_ok = 0, wrong = 0,
                lost = 0, bytes = 0;
};

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to the server failed");
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

class Wire final : public Workload {
 public:
  Wire(const Options& o, Spec spec)
      : spec_(std::move(spec)), traced_(!o.trace_path.empty()), rng_(o.seed) {
    for (Model& m : spec_.models) {
      m.inputs.resize(kInputs);
      m.first.resize(kInputs);
    }
  }

  ~Wire() override { teardown(); }

  void setup() override {
    tally_ = Tally{};
    registry_ = std::make_unique<serving::ModelRegistry>();
    const serving::SchedulerConfig cfg = serving::SchedulerConfig::from_env();
    for (Model& m : spec_.models) {
      m.session = m.make(cfg.max_batch);
      if (m.frames.empty()) encode_inputs(m);
      registry_->add(traced_ ? std::make_shared<TracedSession>(m.session)
                             : m.session);
    }
    scheduler_ = std::make_unique<serving::RequestScheduler>(cfg);
    server_ = std::make_unique<net::Server>(*registry_, *scheduler_);
    const Status st = server_->start();
    if (!st.ok()) throw std::runtime_error("server start: " + st.to_string());
    for (int c = 0; c < kConns; ++c) {
      conns_[c].fd = connect_to(server_->port());
      conns_[c].buf.clear();
    }
    // One request per model and connection: TCP, first-submit pinning and
    // the server's per-connection state are warm before any window.
    for (std::size_t m = 0; m < spec_.models.size(); ++m) {
      for (int c = 0; c < kConns; ++c) send(static_cast<int>(m), 0, c, trace::now_ns());
    }
    drain();
  }

  void teardown() override {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
    flights_.clear();
    if (server_) server_->stop();
    if (scheduler_) scheduler_->shutdown();
    server_.reset();
    scheduler_.reset();
    registry_.reset();
    for (Model& m : spec_.models) m.session.reset();
  }

  Window measure(double seconds) override {
    // Wake up on schedule rather than up to the default 50 us late.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    const Snapshot before = snapshot();
    const Tally t0 = tally_;
    Window w;
    lat_ms_.assign(spec_.models.size(), {});
    const std::uint64_t start = trace::now_ns();
    const double open_s = seconds * kOpenShare;
    run_open(open_s, &w.late_us);
    // Spans describe the open loop, whose latency is the gated metric; the
    // closed loop's queueing would swamp the wait decomposition.
    trace::stop();
    w.throughput_n = run_closed(seconds - open_s);
    w.throughput = static_cast<double>(w.throughput_n) / (seconds - open_s);
    w.seconds = static_cast<double>(trace::now_ns() - start) * 1e-9;

    std::vector<double> lat;
    for (std::size_t m = 0; m < lat_ms_.size(); ++m) {
      if (spec_.latency_model < 0 ||
          static_cast<int>(m) == spec_.latency_model) {
        lat.insert(lat.end(), lat_ms_[m].begin(), lat_ms_[m].end());
      }
      const Percentile p = percentile(lat_ms_[m], 0.5);
      std::printf("  %-6s open-loop latency p50 %.4f ms p90 %.4f ms (n=%zu)\n",
                  spec_.models[m].name.c_str(), p.value,
                  percentile(lat_ms_[m], 0.9).value, p.n);
    }
    w.p50 = percentile(lat, 0.50);
    w.p90 = percentile(lat, 0.90);
    w.p99 = percentile(lat, 0.99);
    w.attempted = tally_.sent - t0.sent;
    w.ok = tally_.ok - t0.ok;
    w.failed = (tally_.non_ok - t0.non_ok) + (tally_.wrong - t0.wrong) +
               (tally_.lost - t0.lost);
    last_ = delta(before, snapshot());
    last_bytes_per_op_ = static_cast<double>(tally_.bytes - t0.bytes) /
                         static_cast<double>(std::max<std::uint64_t>(1, w.attempted));
    return w;
  }

  std::uint64_t verify() override {
    std::uint64_t wrong = tally_.wrong + tally_.lost;
    const serving::RequestScheduler::Counters c = scheduler_->counters();
    const net::Server::Stats s = server_->stats();
    const std::uint64_t resolved =
        c.completed + c.failed + c.expired + c.shed + c.rejected;
    const bool exact = c.submitted == resolved && s.frames == c.submitted &&
                       tally_.sent == tally_.received &&
                       tally_.ok == c.completed &&
                       tally_.non_ok == c.failed + c.expired + c.shed + c.rejected;
    std::printf("  accounting: sent %llu received %llu (ok %llu, non-ok %llu); "
                "server frames %llu; scheduler submitted %llu = completed "
                "%llu + failed %llu + expired %llu + shed %llu + rejected "
                "%llu: %s\n",
                static_cast<unsigned long long>(tally_.sent),
                static_cast<unsigned long long>(tally_.received),
                static_cast<unsigned long long>(tally_.ok),
                static_cast<unsigned long long>(tally_.non_ok),
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.completed),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.expired),
                static_cast<unsigned long long>(c.shed),
                static_cast<unsigned long long>(c.rejected),
                exact ? "exact" : "MISMATCH");
    if (!exact) ++wrong;

    // Reference outputs: an in-process run of each session, with injected
    // faults suppressed (the reference is not serving traffic).
    common::fault::SuppressGuard no_faults;
    std::uint64_t checked = 0, mismatched = 0;
    for (Model& m : spec_.models) {
      std::vector<float> ref(static_cast<std::size_t>(m.session->output_elems()));
      std::lock_guard<std::mutex> g(m.session->exec_mutex());
      for (int i = 0; i < kInputs; ++i) {
        const std::vector<float>& got = m.first[static_cast<std::size_t>(i)];
        if (got.empty()) continue;
        m.session->run(0, m.inputs[static_cast<std::size_t>(i)].data(), ref.data());
        ++checked;
        if (std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)) != 0) {
          ++mismatched;
        }
      }
    }
    std::printf("  check: %llu (model, input) outputs against in-process "
                "runs, %llu differ; %llu responses differed from the first "
                "for their input, %llu lost\n",
                static_cast<unsigned long long>(checked),
                static_cast<unsigned long long>(mismatched),
                static_cast<unsigned long long>(tally_.wrong),
                static_cast<unsigned long long>(tally_.lost));
    return wrong + mismatched;
  }

  void layer_metrics(const Roofs&, Metrics* out) override {
    const Snapshot& d = last_;
    add(out, "serving.completed", static_cast<double>(d.c.completed), "count");
    add(out, "serving.failed", static_cast<double>(d.c.failed), "count");
    add(out, "serving.expired", static_cast<double>(d.c.expired), "count");
    add(out, "serving.shed", static_cast<double>(d.c.shed), "count");
    add(out, "serving.rejected", static_cast<double>(d.c.rejected), "count");
    add(out, "serving.mean_batch",
        d.batches ? static_cast<double>(d.batched) / static_cast<double>(d.batches) : 0.0,
        "req/batch");
    add(out, "serving.decode_occupancy",
        d.steps ? static_cast<double>(d.step_reqs) / static_cast<double>(d.steps) : 0.0,
        "req/step");
    add(out, "serving.queue_depth_highwater",
        static_cast<double>(scheduler_->queue_depth_highwater()), "count");
    add(out, "net.frames", static_cast<double>(d.s.frames), "count");
    add(out, "net.responses", static_cast<double>(d.s.responses), "count");
    add(out, "net.protocol_errors", static_cast<double>(d.s.protocol_errors),
        "count");
    add(out, "net.dup_rejected", static_cast<double>(d.s.dup_rejected), "count");
    add(out, "net.bytes_per_op", last_bytes_per_op_, "B");
    add_idle_kernel_metrics(out);
  }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> buf;  // received bytes not yet decoded
  };
  struct Flight {
    std::uint64_t due_ns;
    int model, input, conn;
  };
  // Counters the per-layer metrics take deltas of.
  struct Snapshot {
    serving::RequestScheduler::Counters c;
    net::Server::Stats s;
    std::uint64_t batches = 0, batched = 0, steps = 0, step_reqs = 0;
  };

  void encode_inputs(Model& m) {
    for (int i = 0; i < kInputs; ++i) {
      std::vector<float>& in = m.inputs[static_cast<std::size_t>(i)];
      in.resize(static_cast<std::size_t>(m.session->input_elems()));
      fill_uniform(in.data(), in.size(), rng_, -1.0f, 1.0f);
      net::RequestFrame f;
      f.name = m.name;
      f.deadline_usecs = m.deadline_usecs;
      f.payload = in;
      m.frames.emplace_back();
      net::encode_request(f, &m.frames.back());
    }
  }

  Snapshot snapshot() const {
    Snapshot s;
    s.c = scheduler_->counters();
    s.s = server_->stats();
    for (const serving::ModelStats& m : scheduler_->stats()) {
      s.batches += m.batches;
      s.batched += m.batched_requests_sum;
      s.steps += m.decode_steps;
      s.step_reqs += m.decode_step_requests_sum;
    }
    return s;
  }

  static Snapshot delta(const Snapshot& a, const Snapshot& b) {
    Snapshot d;
    d.c.completed = b.c.completed - a.c.completed;
    d.c.failed = b.c.failed - a.c.failed;
    d.c.expired = b.c.expired - a.c.expired;
    d.c.shed = b.c.shed - a.c.shed;
    d.c.rejected = b.c.rejected - a.c.rejected;
    d.s.frames = b.s.frames - a.s.frames;
    d.s.responses = b.s.responses - a.s.responses;
    d.s.protocol_errors = b.s.protocol_errors - a.s.protocol_errors;
    d.s.dup_rejected = b.s.dup_rejected - a.s.dup_rejected;
    d.batches = b.batches - a.batches;
    d.batched = b.batched - a.batched;
    d.steps = b.steps - a.steps;
    d.step_reqs = b.step_reqs - a.step_reqs;
    return d;
  }

  // Sends the pre-encoded frame of (model, input) with a fresh request id.
  void send(int model, int input, int conn, std::uint64_t due_ns) {
    std::vector<std::uint8_t>& frame =
        spec_.models[static_cast<std::size_t>(model)]
            .frames[static_cast<std::size_t>(input)];
    const std::uint64_t id = ++next_id_;
    for (int b = 0; b < 8; ++b) {
      frame[8 + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(id >> (8 * b));  // little-endian u64
    }
    ++tally_.sent;
    flights_.emplace(id, Flight{due_ns, model, input, conn});
    const int fd = conns_[conn].fd;
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        pollfd p{fd, POLLOUT, 0};
        ::poll(&p, 1, 100);
      } else {
        return;  // connection gone: the flight is counted lost by drain()
      }
    }
    tally_.bytes += frame.size();
  }

  // Waits for responses until until_ns (or the first readable batch) and
  // handles every complete one.
  void pump(std::uint64_t until_ns) {
    const std::uint64_t now = trace::now_ns();
    const std::uint64_t wait = until_ns > now ? until_ns - now : 0;
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    pollfd fds[kConns];
    for (int c = 0; c < kConns; ++c) fds[c] = pollfd{conns_[c].fd, POLLIN, 0};
    if (::ppoll(fds, kConns, &ts, nullptr) <= 0) return;
    for (int c = 0; c < kConns; ++c) {
      if (fds[c].revents != 0) read_conn(c);
    }
  }

  void read_conn(int c) {
    Conn& conn = conns_[c];
    std::uint8_t chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      conn.buf.insert(conn.buf.end(), chunk, chunk + n);
      tally_.bytes += static_cast<std::uint64_t>(n);
    }
    const std::uint64_t now = trace::now_ns();
    std::size_t pos = 0;
    net::ResponseFrame resp;
    std::size_t used = 0;
    std::string error;
    while (pos < conn.buf.size()) {
      const net::DecodeResult r = net::decode_response(
          conn.buf.data() + pos, conn.buf.size() - pos, &resp, &used, &error);
      if (r == net::DecodeResult::kNeedMore) break;
      if (r == net::DecodeResult::kError) {
        std::printf("  protocol error from server: %s\n", error.c_str());
        ++tally_.wrong;
        pos = conn.buf.size();
        break;
      }
      pos += used;
      handle(resp, now);
    }
    conn.buf.erase(conn.buf.begin(),
                   conn.buf.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  void handle(const net::ResponseFrame& r, std::uint64_t now) {
    const auto it = flights_.find(r.request_id);
    if (it == flights_.end()) {
      ++tally_.wrong;  // a response nobody asked for
      return;
    }
    const Flight f = it->second;
    flights_.erase(it);
    ++tally_.received;
    trace::record("wire.request", "op", f.due_ns, now, r.request_id);
    Model& m = spec_.models[static_cast<std::size_t>(f.model)];
    if (r.code == net::WireCode::kOk) {
      std::vector<float>& first = m.first[static_cast<std::size_t>(f.input)];
      const bool sized =
          r.payload.size() == static_cast<std::size_t>(m.session->output_elems());
      if (first.empty() && sized) first = r.payload;
      if (!sized || std::memcmp(first.data(), r.payload.data(),
                                r.payload.size() * sizeof(float)) != 0) {
        ++tally_.wrong;
      } else {
        ++tally_.ok;
        const double ms = static_cast<double>(now - f.due_ns) * 1e-6;
        if (open_) lat_ms_[static_cast<std::size_t>(f.model)].push_back(ms);
        const bool in_time = m.deadline_usecs <= 0 ||
                             ms * 1e3 <= static_cast<double>(m.deadline_usecs);
        if (closed_ && now < closed_end_ns_ && in_time) ++closed_done_;
      }
    } else {
      ++tally_.non_ok;
    }
    if (closed_ && now < closed_end_ns_) send_next(f.conn, now);
  }

  void send_next(int conn, std::uint64_t due_ns) {
    const int model = spec_.tape[arrivals_++ % spec_.tape.size()];
    send(model, static_cast<int>(rng_.bounded(kInputs)), conn, due_ns);
  }

  void run_open(double seconds, std::vector<double>* late_us) {
    const std::size_t n =
        static_cast<std::size_t>(std::llround(spec_.rate * seconds));
    std::vector<std::uint64_t> due(n);
    for (auto& d : due) {
      d = static_cast<std::uint64_t>(rng_.next_double() * seconds * 1e9);
    }
    std::sort(due.begin(), due.end());
    const std::uint64_t start = trace::now_ns() + 1'000'000;
    open_ = true;
    std::size_t i = 0;
    while (i < n) {
      std::uint64_t now = trace::now_ns();
      while (i < n && start + due[i] <= now) {
        late_us->push_back(static_cast<double>(now - (start + due[i])) * 1e-3);
        send_next(static_cast<int>(i % kConns), start + due[i]);
        ++i;
        now = trace::now_ns();
      }
      if (i < n) pump(start + due[i]);
    }
    drain();
    open_ = false;
  }

  std::size_t run_closed(double seconds) {
    const std::uint64_t now = trace::now_ns();
    closed_ = true;
    closed_done_ = 0;
    closed_end_ns_ = now + static_cast<std::uint64_t>(seconds * 1e9);
    for (int c = 0; c < kConns; ++c) {
      for (int d = 0; d < kClosedDepth; ++d) send_next(c, now);
    }
    while (trace::now_ns() < closed_end_ns_) pump(closed_end_ns_);
    const std::size_t done = closed_done_;
    closed_ = false;
    drain();
    return done;
  }

  // Waits for every outstanding response; what has not arrived after
  // kDrainNs is counted lost.
  void drain() {
    const std::uint64_t deadline = trace::now_ns() + kDrainNs;
    while (!flights_.empty() && trace::now_ns() < deadline) pump(deadline);
    tally_.lost += flights_.size();
    flights_.clear();
  }

  Spec spec_;
  bool traced_;
  Xoshiro256 rng_;
  std::unique_ptr<serving::ModelRegistry> registry_;
  std::unique_ptr<serving::RequestScheduler> scheduler_;
  std::unique_ptr<net::Server> server_;  // declared after what it references
  Conn conns_[kConns];
  std::unordered_map<std::uint64_t, Flight> flights_;
  std::uint64_t next_id_ = 0;
  std::size_t arrivals_ = 0;
  Tally tally_;
  std::vector<std::vector<double>> lat_ms_;
  bool open_ = false;    // responses feed the open-loop latency sinks
  bool closed_ = false;  // responses trigger the next closed-loop send
  std::uint64_t closed_end_ns_ = 0;
  std::size_t closed_done_ = 0;
  Snapshot last_;
  double last_bytes_per_op_ = 0.0;
};

}  // namespace

void add_idle_serving_metrics(Metrics* out) {
  for (const char* n :
       {"serving.completed", "serving.failed", "serving.expired",
        "serving.shed", "serving.rejected"}) {
    add(out, n, 0.0, "count");
  }
  add(out, "serving.mean_batch", 0.0, "req/batch");
  add(out, "serving.decode_occupancy", 0.0, "req/step");
  add(out, "serving.queue_depth_highwater", 0.0, "count");
  for (const char* n : {"net.frames", "net.responses", "net.protocol_errors",
                        "net.dup_rejected"}) {
    add(out, n, 0.0, "count");
  }
  add(out, "net.bytes_per_op", 0.0, "B");
}

// The bench_net tiny mix: compute per request is tens of microseconds, so
// the net codec and epoll loop, the scheduler's batching window and the
// pool's park/wake dominate; kernel changes should read flat. The open loop
// runs at 1000 req/s, the closed loop keeps 2 connections x 8 outstanding.
std::unique_ptr<Workload> make_wire_small(const Options& o) {
  Spec s;
  Model mlp, bert, llm;
  mlp.name = "mlp";
  mlp.make = [](int lanes) {
    serving::MlpServeConfig c;
    c.features = 16;
    c.layers = 8;
    c.tokens = 8;
    c.bm = c.bn = c.bk = 8;
    return serving::make_mlp_session("mlp", c, lanes, kWeightSeed);
  };
  bert.name = "bert";
  bert.make = [](int lanes) {
    dl::BertConfig c;
    c.hidden = 16;
    c.heads = 2;
    c.intermediate = 32;
    c.layers = 1;
    c.seq_len = 8;
    c.bm = c.bn = c.bk = 8;
    return serving::make_bert_session("bert", c, lanes, kWeightSeed);
  };
  llm.name = "llm";
  llm.make = [](int lanes) {
    dl::LlmConfig c;
    c.hidden = 16;
    c.heads = 2;
    c.layers = 2;
    c.ffn = 32;
    c.vocab = 128;
    c.max_seq = 32;
    c.bm = c.bn = c.bk = 8;
    return serving::make_llm_session("llm", c, 4, 16, lanes, kWeightSeed);
  };
  s.models = {std::move(mlp), std::move(bert), std::move(llm)};
  s.tape = {2, 1, 2, 0};  // llm:bert:mlp = 2:1:1
  s.rate = 1000.0;
  return std::make_unique<Wire>(o, std::move(s));
}

// A latency class and a throughput class, 1:1. The LLM (hidden 64, 4
// layers, prompt 16, 16 tokens decoded in steps; about 1.3 ms of one core)
// sets the headline latency; BERT (hidden 64, 2 layers, seq 64; about 0.9 ms,
// in 16 KB frames, so the server's partial-read path runs) carries a
// deadline, and the closed-loop goodput counts only responses within it. The
// deadline is 250 ms: at 50 ms a host stall occasionally expired a request,
// and no operation may fail in a workload. The open-loop rate, 400 req/s, is
// a fifth to a quarter of the closed-loop saturation on a 4-core host; at
// twice the rate the latency spread between runs on a shared host exceeded
// 20%. Kernels plus the scheduler's class-aware flush and continuous
// batching do the work: a scheduling-policy change shows here but not in
// the offline workloads.
std::unique_ptr<Workload> make_wire_mixed(const Options& o) {
  Spec s;
  Model llm, bert;
  llm.name = "llm";
  llm.make = [](int lanes) {
    dl::LlmConfig c;
    c.hidden = 64;
    c.heads = 4;
    c.layers = 4;
    c.ffn = 256;
    c.vocab = 512;
    c.max_seq = 32;
    c.bm = c.bn = c.bk = 16;
    return serving::make_llm_session("llm", c, 16, 16, lanes, kWeightSeed);
  };
  bert.name = "bert";
  bert.deadline_usecs = 250'000;
  bert.make = [](int lanes) {
    dl::BertConfig c;
    c.hidden = 64;
    c.heads = 4;
    c.intermediate = 256;
    c.layers = 2;
    c.seq_len = 64;
    return serving::make_bert_session("bert", c, lanes, kWeightSeed);
  };
  s.models = {std::move(llm), std::move(bert)};
  s.tape = {0, 1};
  s.rate = 400.0;
  s.latency_model = 0;
  return std::make_unique<Wire>(o, std::move(s));
}

}  // namespace plt::suite
