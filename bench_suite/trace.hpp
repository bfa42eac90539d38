// Span recorder for the traced run. Spans are recorded from bench code only,
// around the calls the benchmark makes into each layer (spans inside the
// program are a later change). Each span carries a name, a category, start
// and end, its own id, the id of the span open on the same thread when it
// began (its parent) and a request id; spans of one request share the id.
//
// Spans go into per-thread buffers reserved when tracing starts on that
// thread and are written at exit as Chrome trace-event JSON (chrome://tracing
// or Perfetto load it; trace_summary.py summarizes it). While tracing is off
// a Span costs one atomic load.
#pragma once

#include <cstdint>
#include <string>

namespace plt::suite::trace {

// Monotonic clock shared by spans and the load generator, in ns.
std::uint64_t now_ns();

// Turns recording on; each thread's buffer holds `per_thread` spans, later
// spans are counted as dropped.
void start(std::size_t per_thread);
void stop();
bool on();

// Scoped span: starts at construction, ends at destruction. The category is
// "op" for a caller-visible operation, "exec" for the call that executes it.
class Span {
 public:
  Span(const char* name, const char* cat, std::uint64_t req = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t req_;
  std::uint64_t t0_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

// A span whose times were taken elsewhere (the load generator's due and
// receive times); it has no parent.
void record(const char* name, const char* cat, std::uint64_t t0_ns,
            std::uint64_t t1_ns, std::uint64_t req);

std::uint64_t recorded();
std::uint64_t dropped();

// Writes every recorded span plus `other_data` (a JSON object) as the
// trace's "otherData". Call once recording has stopped and every thread that
// recorded has finished its work. False when the file cannot be written.
bool write_chrome(const std::string& path, const std::string& other_data);

}  // namespace plt::suite::trace
