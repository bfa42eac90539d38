#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace plt::suite::trace {

namespace {

struct Event {
  const char* name;
  const char* cat;
  std::uint64_t t0, t1, id, parent, req;
};

struct Buffer {
  std::vector<Event> events;
  std::uint64_t dropped = 0;
  int tid = 0;
};

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::size_t g_capacity = 0;  // written by start() before g_on is raised
std::mutex g_mu;             // guards g_buffers
std::vector<std::unique_ptr<Buffer>> g_buffers;
const std::uint64_t g_epoch = now_ns();

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_open = 0;  // id of the innermost open span

Buffer& buffer() {
  if (t_buffer == nullptr) {
    auto b = std::make_unique<Buffer>();
    b->events.reserve(g_capacity);
    std::lock_guard<std::mutex> g(g_mu);
    b->tid = static_cast<int>(g_buffers.size()) + 1;
    t_buffer = b.get();
    g_buffers.push_back(std::move(b));
  }
  return *t_buffer;
}

void push(const Event& e) {
  Buffer& b = buffer();
  if (b.events.size() < b.events.capacity()) {
    b.events.push_back(e);
  } else {
    ++b.dropped;
  }
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void start(std::size_t per_thread) {
  g_capacity = per_thread;
  g_on.store(true, std::memory_order_release);
}

void stop() { g_on.store(false, std::memory_order_release); }

// Acquire pairs with start()'s release, so a thread that sees tracing on
// also sees g_capacity.
bool on() { return g_on.load(std::memory_order_acquire); }

Span::Span(const char* name, const char* cat, std::uint64_t req)
    : name_(name), cat_(cat), req_(req) {
  if (!on()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open;
  t_open = id_;
  t0_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::uint64_t t1 = now_ns();
  t_open = parent_;
  push(Event{name_, cat_, t0_, t1, id_, parent_, req_});
}

void record(const char* name, const char* cat, std::uint64_t t0_ns,
            std::uint64_t t1_ns, std::uint64_t req) {
  if (!on()) return;
  push(Event{name, cat, t0_ns, t1_ns,
             g_next_id.fetch_add(1, std::memory_order_relaxed), 0, req});
}

std::uint64_t recorded() {
  std::lock_guard<std::mutex> g(g_mu);
  std::uint64_t n = 0;
  for (const auto& b : g_buffers) n += b->events.size();
  return n;
}

std::uint64_t dropped() {
  std::lock_guard<std::mutex> g(g_mu);
  std::uint64_t n = 0;
  for (const auto& b : g_buffers) n += b->dropped;
  return n;
}

bool write_chrome(const std::string& path, const std::string& other_data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  std::lock_guard<std::mutex> g(g_mu);
  for (const auto& b : g_buffers) {
    for (const Event& e : b->events) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu, \"req\": %llu}}",
                   first ? "" : ",\n", e.name, e.cat,
                   static_cast<double>(e.t0 - g_epoch) * 1e-3,
                   static_cast<double>(e.t1 - e.t0) * 1e-3, b->tid,
                   static_cast<unsigned long long>(e.id),
                   static_cast<unsigned long long>(e.parent),
                   static_cast<unsigned long long>(e.req));
      first = false;
    }
  }
  std::fprintf(f, "\n],\n\"otherData\": %s\n}\n", other_data.c_str());
  return std::fclose(f) == 0;
}

}  // namespace plt::suite::trace
