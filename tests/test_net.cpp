// Network front-end tests: wire-protocol codec edge cases (truncated
// headers, oversized length prefixes, version mismatches), the 1:1
// StatusCode <-> WireCode mapping, per-tenant token-bucket quotas, and
// loopback end-to-end serving — payload bitwise-identical to in-process
// submit, every failure mode (deadline, shed, quarantine, quota, protocol
// error, injected write faults) surfaced as the right wire status, and a
// reload storm swapping models under live traffic with zero dropped
// requests. Designed to run TSan/ASan-clean (the CI sanitizer jobs run this
// binary).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "net/client.hpp"
#include "net/quota.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serving/model_registry.hpp"
#include "serving/scheduler.hpp"
#include "serving/session.hpp"

namespace plt::net {
namespace {

namespace fault = plt::common::fault;

serving::MlpServeConfig tiny_mlp() {
  serving::MlpServeConfig c;
  c.features = 32;
  c.layers = 2;
  c.tokens = 8;
  c.bm = c.bn = c.bk = 8;
  return c;
}

std::vector<float> make_input(const serving::Session& s, std::uint64_t seed) {
  std::vector<float> in(static_cast<std::size_t>(s.input_elems()));
  Xoshiro256 rng(seed);
  fill_uniform(in.data(), in.size(), rng, -1.0f, 1.0f);
  return in;
}

// In-process reference: lane 0, calling thread. Lanes are identical replicas
// and serial nest walks are bitwise-equal to parallel ones, so this is the
// value every wire response must match byte for byte.
std::vector<float> run_reference(serving::Session& s,
                                 const std::vector<float>& in) {
  std::vector<float> out(static_cast<std::size_t>(s.output_elems()));
  s.run(0, in.data(), out.data());
  return out;
}

RequestFrame sample_request() {
  RequestFrame f;
  f.request_id = 0x1122334455667788ull;
  f.tenant_id = 42;
  f.cls = 1;
  f.deadline_usecs = 123456;
  f.name = "mlp";
  f.payload = {1.5f, -2.25f, 0.0f, 1e-30f};
  return f;
}

// send_request() only puts bytes on the socket; the server's event loop
// submits them asynchronously. Tests that stage queue states must wait for
// the scheduler's counters to reflect the staged state before acting on it.
// `submitted` counts at submit ENTRY (before the queue push), so waiting on
// it means "the loop thread reached this request", not "it resolved" —
// tests that need resolution wait on a terminal counter (e.g. `shed`).
bool await_counter(const serving::RequestScheduler& sched,
                   std::uint64_t serving::RequestScheduler::Counters::*field,
                   std::uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sched.counters().*field < want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Arms a fault spec for the test body and guarantees disarm on every exit
// path (EXPECT failures do not throw, but ASSERT returns early).
struct FaultScope {
  FaultScope(const std::string& spec, std::uint64_t seed) {
    fault::configure(spec, seed);
  }
  ~FaultScope() { fault::reset(); }
};

// Once armed, blocks inside run() until released: parks the dispatcher so
// tests can deterministically pile work up behind it (same idiom as
// test_serving). Unarmed it passes through, so the first-touch warmup that
// ModelRegistry::add runs on a partitioned pool does not block; tests arm
// it after registering.
class BlockingSession final : public serving::Session {
 public:
  explicit BlockingSession(const std::string& name)
      : Session(name, /*lanes=*/4, /*input_elems=*/4, /*output_elems=*/4,
                /*flops=*/1.0) {}

  std::atomic<bool> entered{false};

  void arm() { armed_.store(true, std::memory_order_release); }

  void run(int, const float* in, float* out) override {
    if (armed_.load(std::memory_order_acquire)) {
      entered.store(true, std::memory_order_release);
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return released_; });
    }
    for (int i = 0; i < 4; ++i) out[i] = in[i] + 1.0f;
  }

  void release() {
    {
      std::lock_guard<std::mutex> g(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  void await_entered() {
    while (!entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

// Passthrough that throws on demand — drives the quarantine wire status.
class FailingSession final : public serving::Session {
 public:
  explicit FailingSession(const std::string& name)
      : Session(name, /*lanes=*/4, 4, 4, 1.0) {}

  std::atomic<bool> fail{false};

  void run(int, const float* in, float* out) override {
    if (fail.load(std::memory_order_acquire)) {
      throw RuntimeError(StatusCode::kInternal, "scripted net failure");
    }
    for (int i = 0; i < 4; ++i) out[i] = in[i];
  }
};

// Raw blocking socket helpers for the byte-level tests (dribbled sends,
// garbage frames) that the cooked Client cannot express.
int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Blocking read until one full response decodes (or the peer closes —
// returns false).
bool raw_recv_response(int fd, ResponseFrame* resp) {
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[4096];
  while (true) {
    std::size_t consumed = 0;
    std::string error;
    const DecodeResult res =
        decode_response(buf.data(), buf.size(), resp, &consumed, &error);
    if (res == DecodeResult::kOk) return true;
    if (res == DecodeResult::kError) return false;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

// --- wire codec -------------------------------------------------------------

TEST(WireCodec, RequestRoundTrip) {
  const RequestFrame f = sample_request();
  std::vector<std::uint8_t> bytes;
  encode_request(f, &bytes);
  EXPECT_EQ(bytes.size(), kRequestHeaderBytes + f.name.size() +
                              f.payload.size() * 4);

  RequestFrame out;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(decode_request(bytes.data(), bytes.size(), &out, &consumed, &error),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.request_id, f.request_id);
  EXPECT_EQ(out.tenant_id, f.tenant_id);
  EXPECT_EQ(out.cls, f.cls);
  EXPECT_EQ(out.deadline_usecs, f.deadline_usecs);
  EXPECT_EQ(out.name, f.name);
  ASSERT_EQ(out.payload.size(), f.payload.size());
  EXPECT_EQ(std::memcmp(out.payload.data(), f.payload.data(),
                        f.payload.size() * sizeof(float)),
            0);
}

TEST(WireCodec, ResponseRoundTripOkAndError) {
  ResponseFrame ok;
  ok.request_id = 7;
  ok.code = WireCode::kOk;
  ok.payload = {3.25f, -0.5f};
  std::vector<std::uint8_t> bytes;
  encode_response(ok, &bytes);

  ResponseFrame out;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(
      decode_response(bytes.data(), bytes.size(), &out, &consumed, &error),
      DecodeResult::kOk);
  EXPECT_EQ(out.request_id, 7u);
  EXPECT_EQ(out.code, WireCode::kOk);
  EXPECT_TRUE(out.message.empty());
  ASSERT_EQ(out.payload.size(), 2u);
  EXPECT_EQ(out.payload[0], 3.25f);

  ResponseFrame err;
  err.request_id = 8;
  err.code = WireCode::kDeadlineExceeded;
  err.message = "deadline passed while queued";
  bytes.clear();
  encode_response(err, &bytes);
  ASSERT_EQ(
      decode_response(bytes.data(), bytes.size(), &out, &consumed, &error),
      DecodeResult::kOk);
  EXPECT_EQ(out.code, WireCode::kDeadlineExceeded);
  EXPECT_EQ(out.message, err.message);
  EXPECT_TRUE(out.payload.empty());
}

// Two frames encoded back-to-back into one buffer decode one at a time with
// exact consumed offsets — the pipelining contract the server and client
// read loops rely on.
TEST(WireCodec, BackToBackFramesDecodeSequentially) {
  RequestFrame a = sample_request();
  RequestFrame b = sample_request();
  b.request_id = 99;
  b.payload = {1.0f};
  std::vector<std::uint8_t> bytes;
  encode_request(a, &bytes);
  const std::size_t a_len = bytes.size();
  encode_request(b, &bytes);

  RequestFrame out;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(decode_request(bytes.data(), bytes.size(), &out, &consumed, &error),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, a_len);
  EXPECT_EQ(out.request_id, a.request_id);
  ASSERT_EQ(decode_request(bytes.data() + consumed, bytes.size() - consumed,
                           &out, &consumed, &error),
            DecodeResult::kOk);
  EXPECT_EQ(out.request_id, 99u);
  EXPECT_EQ(out.payload.size(), 1u);
}

// Every strict prefix of a valid frame — including a truncated header — is
// kNeedMore, never an error and never a partial decode.
TEST(WireCodec, EveryTruncationNeedsMore) {
  std::vector<std::uint8_t> bytes;
  encode_request(sample_request(), &bytes);
  RequestFrame out;
  std::size_t consumed = 0;
  std::string error;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(decode_request(bytes.data(), len, &out, &consumed, &error),
              DecodeResult::kNeedMore)
        << "prefix length " << len;
  }

  ResponseFrame resp;
  resp.request_id = 1;
  resp.code = WireCode::kUnavailable;
  resp.message = "shutting down";
  bytes.clear();
  encode_response(resp, &bytes);
  ResponseFrame rout;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(decode_response(bytes.data(), len, &rout, &consumed, &error),
              DecodeResult::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(WireCodec, BadMagicAndVersionAndTypeRejected) {
  std::vector<std::uint8_t> bytes;
  encode_request(sample_request(), &bytes);
  RequestFrame out;
  std::size_t consumed = 0;
  std::string error;

  auto mutated = bytes;
  mutated[0] ^= 0xFF;  // magic
  EXPECT_EQ(
      decode_request(mutated.data(), mutated.size(), &out, &consumed, &error),
      DecodeResult::kError);
  EXPECT_NE(error.find("bad magic"), std::string::npos);

  mutated = bytes;
  mutated[4] = 0x7F;  // version
  EXPECT_EQ(
      decode_request(mutated.data(), mutated.size(), &out, &consumed, &error),
      DecodeResult::kError);
  EXPECT_NE(error.find("version mismatch"), std::string::npos);

  mutated = bytes;
  mutated[6] = 2;  // response type in a request decoder
  EXPECT_EQ(
      decode_request(mutated.data(), mutated.size(), &out, &consumed, &error),
      DecodeResult::kError);
  EXPECT_NE(error.find("frame type"), std::string::npos);
}

// An adversarial length prefix is rejected from the header bytes alone: the
// buffer holds ONLY the header, yet the decoder must say kError (a kNeedMore
// would mean it believed the 4 GB length and would buffer toward it).
TEST(WireCodec, OversizedLengthPrefixRejectedFromHeaderAlone) {
  std::vector<std::uint8_t> bytes;
  encode_request(sample_request(), &bytes);
  bytes.resize(kRequestHeaderBytes);  // header only
  RequestFrame out;
  std::size_t consumed = 0;
  std::string error;

  auto mutated = bytes;
  const std::uint32_t huge = 0xFFFFFFF0u;  // ~4 GB, multiple of 4
  for (int i = 0; i < 4; ++i) {
    mutated[28 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((huge >> (8 * i)) & 0xFF);
  }
  EXPECT_EQ(decode_request(mutated.data(), mutated.size(), &out, &consumed,
                           &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("exceeds cap"), std::string::npos);

  // payload_len not a multiple of 4 (not a float32 tensor).
  mutated = bytes;
  mutated[28] = 3;
  mutated[29] = mutated[30] = mutated[31] = 0;
  EXPECT_EQ(decode_request(mutated.data(), mutated.size(), &out, &consumed,
                           &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("multiple of 4"), std::string::npos);

  // name_len of 0 and of > kMaxNameLen.
  mutated = bytes;
  mutated[26] = mutated[27] = 0;
  EXPECT_EQ(decode_request(mutated.data(), mutated.size(), &out, &consumed,
                           &error),
            DecodeResult::kError);
  mutated[26] = 0xFF;
  mutated[27] = 0xFF;
  EXPECT_EQ(decode_request(mutated.data(), mutated.size(), &out, &consumed,
                           &error),
            DecodeResult::kError);

  // Response side: oversized message and payload caps.
  ResponseFrame resp;
  resp.request_id = 1;
  std::vector<std::uint8_t> rbytes;
  encode_response(resp, &rbytes);
  rbytes.resize(kResponseHeaderBytes);
  rbytes[18] = 0xFF;  // msg_len = 0xFFFF > kMaxMessageLen
  rbytes[19] = 0xFF;
  ResponseFrame rout;
  EXPECT_EQ(decode_response(rbytes.data(), rbytes.size(), &rout, &consumed,
                            &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("exceeds cap"), std::string::npos);
}

// Satellite: status_code_name + the 1:1 StatusCode <-> WireCode mapping.
TEST(WireCodec, StatusCodeNamesAndWireMappingRoundTrip) {
  const StatusCode terminal[] = {
      StatusCode::kOk,          StatusCode::kInvalidArgument,
      StatusCode::kDeadlineExceeded, StatusCode::kUnavailable,
      StatusCode::kResourceExhausted, StatusCode::kInternal,
  };
  for (const StatusCode c : terminal) {
    const WireCode w = wire_code_from_status(c);
    StatusCode back;
    ASSERT_TRUE(status_from_wire_code(static_cast<std::uint16_t>(w), &back))
        << status_code_name(c);
    EXPECT_EQ(back, c);  // exact round trip
    // The wire code's display name IS the status code's display name.
    EXPECT_STREQ(wire_code_name(w), status_code_name(c));
  }
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "OK");
  EXPECT_STREQ(status_code_name(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(status_code_name(StatusCode::kInFlight), "IN_FLIGHT");

  // kInFlight is non-terminal: it never crosses the wire, and serializing it
  // anyway reads as a server bug (kInternal), not a new wire code.
  EXPECT_EQ(wire_code_from_status(StatusCode::kInFlight), WireCode::kInternal);

  StatusCode ignored;
  EXPECT_FALSE(status_from_wire_code(999, &ignored));
  EXPECT_FALSE(status_from_wire_code(6, &ignored));  // kInFlight's raw value
}

// --- tenant quotas ----------------------------------------------------------

TEST(TenantQuota, DisabledAdmitsEverything) {
  TenantQuota q(0.0);
  EXPECT_FALSE(q.enabled());
  const auto now = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(q.admit(1, now));
  EXPECT_EQ(q.rejected(), 0u);
}

// Synthetic time points make the bucket arithmetic exact: burst admits, the
// next request rejects, refill at qps tokens/sec re-admits.
TEST(TenantQuota, BurstCapThenRefillAtQps) {
  TenantQuota q(/*qps=*/1000.0, /*burst=*/3.0);
  EXPECT_TRUE(q.enabled());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(q.admit(1, t0));
  EXPECT_TRUE(q.admit(1, t0));
  EXPECT_TRUE(q.admit(1, t0));
  EXPECT_FALSE(q.admit(1, t0));  // burst spent
  // 2 ms at 1000 qps accrues 2 tokens (capped at burst 3).
  const auto t1 = t0 + std::chrono::milliseconds(2);
  EXPECT_TRUE(q.admit(1, t1));
  EXPECT_TRUE(q.admit(1, t1));
  EXPECT_FALSE(q.admit(1, t1));
  EXPECT_EQ(q.admitted(), 5u);
  EXPECT_EQ(q.rejected(), 2u);
}

TEST(TenantQuota, TenantsHaveIndependentBuckets) {
  TenantQuota q(/*qps=*/10.0, /*burst=*/1.0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(q.admit(1, t0));
  EXPECT_FALSE(q.admit(1, t0));  // tenant 1 spent
  EXPECT_TRUE(q.admit(2, t0));   // tenant 2 untouched
  EXPECT_TRUE(q.admit(3, t0));
}

// --- loopback end-to-end ----------------------------------------------------

// Payloads served over the socket are bitwise-identical to in-process
// execution, for monolithic (MLP) and stepped (LLM decode) sessions, across
// latency/throughput/default request classes.
TEST(NetServing, LoopbackBitwiseIdenticalToInProcess) {
  serving::SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_usecs = 100;
  cfg.shards = 1;
  const int lanes = cfg.max_batch;

  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("mlp", tiny_mlp(), lanes, 7));
  dl::LlmConfig llm;
  llm.hidden = 32;
  llm.heads = 2;
  llm.layers = 1;
  llm.ffn = 64;
  llm.vocab = 64;
  llm.max_seq = 32;
  llm.bm = llm.bn = llm.bk = 8;
  reg.add(serving::make_llm_session("llm", llm, /*prompt=*/4, /*gen=*/8,
                                    lanes, 8));

  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  ASSERT_GT(server.port(), 0);

  const auto sessions = reg.sessions();
  constexpr int kRequests = 24;
  std::vector<std::vector<float>> ins, want;
  for (int i = 0; i < kRequests; ++i) {
    auto& s = *sessions[static_cast<std::size_t>(i) % sessions.size()];
    ins.push_back(make_input(s, 100 + static_cast<std::uint64_t>(i)));
    want.push_back(run_reference(s, ins.back()));
  }

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < kRequests; ++i) {
    auto& s = *sessions[static_cast<std::size_t>(i) % sessions.size()];
    RequestFrame req;
    req.request_id = static_cast<std::uint64_t>(i) + 1;
    req.name = s.name();
    req.cls = static_cast<std::uint16_t>(i % 3);  // latency/throughput/default
    req.payload = ins[static_cast<std::size_t>(i)];
    ResponseFrame resp;
    ASSERT_TRUE(client.call(req, &resp).ok()) << "request " << i;
    ASSERT_EQ(resp.code, WireCode::kOk) << resp.message;
    EXPECT_EQ(resp.request_id, req.request_id);
    ASSERT_EQ(resp.payload.size(), want[static_cast<std::size_t>(i)].size());
    EXPECT_EQ(std::memcmp(resp.payload.data(),
                          want[static_cast<std::size_t>(i)].data(),
                          resp.payload.size() * sizeof(float)),
              0)
        << "wire output diverged from in-process execution for request " << i;
  }

  server.stop();
  sched.shutdown();
  const auto st = server.stats();
  EXPECT_EQ(st.frames, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(st.responses, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(st.protocol_errors, 0u);
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(c.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
}

// Malformed-at-the-API-level requests (unknown model, wrong tensor size, bad
// class) are answered INVALID_ARGUMENT on the SAME connection, which stays
// usable — only byte-level protocol errors poison a stream.
TEST(NetServing, ApiRejectsAnswerInvalidArgumentAndKeepConnection) {
  serving::SchedulerConfig cfg;
  cfg.shards = 1;
  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("mlp", tiny_mlp(), 4, 7));
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  const auto mlp = reg.find("mlp");

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  ResponseFrame resp;

  RequestFrame unknown;
  unknown.request_id = 1;
  unknown.name = "nope";
  unknown.payload = {1.0f};
  ASSERT_TRUE(client.call(unknown, &resp).ok());
  EXPECT_EQ(resp.code, WireCode::kInvalidArgument);
  EXPECT_NE(resp.message.find("unknown model"), std::string::npos);

  RequestFrame short_payload;
  short_payload.request_id = 2;
  short_payload.name = "mlp";
  short_payload.payload = {1.0f, 2.0f};  // mlp wants 256 floats
  ASSERT_TRUE(client.call(short_payload, &resp).ok());
  EXPECT_EQ(resp.code, WireCode::kInvalidArgument);
  EXPECT_NE(resp.message.find("model expects"), std::string::npos);

  RequestFrame bad_cls;
  bad_cls.request_id = 3;
  bad_cls.name = "mlp";
  bad_cls.cls = 9;
  bad_cls.payload = make_input(*mlp, 1);
  ASSERT_TRUE(client.call(bad_cls, &resp).ok());
  EXPECT_EQ(resp.code, WireCode::kInvalidArgument);
  EXPECT_NE(resp.message.find("request class"), std::string::npos);

  // The connection survived all three rejects and still serves.
  RequestFrame good;
  good.request_id = 4;
  good.name = "mlp";
  good.payload = make_input(*mlp, 2);
  ASSERT_TRUE(client.call(good, &resp).ok());
  EXPECT_EQ(resp.code, WireCode::kOk);

  server.stop();
  sched.shutdown();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  // API rejects never touched the scheduler.
  EXPECT_EQ(sched.counters().submitted, 1u);
}

// Deadline expiry while queued surfaces as DEADLINE_EXCEEDED on the wire.
// The dispatcher is parked inside a blocking request, so the dealined
// request is deterministically still queued when its 1 us budget passes.
TEST(NetServing, DeadlineExpirySurfacesOnTheWire) {
  auto blocker = std::make_shared<BlockingSession>("blocker");
  serving::SchedulerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_usecs = 0;
  cfg.shards = 1;
  serving::ModelRegistry reg;
  reg.add(blocker);
  blocker->arm();
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  RequestFrame park;
  park.request_id = 1;
  park.name = "blocker";
  park.payload = {0.0f, 0.0f, 0.0f, 0.0f};
  park.deadline_usecs = 0;  // no deadline
  ASSERT_TRUE(client.send_request(park).ok());
  blocker->await_entered();

  RequestFrame rushed = park;
  rushed.request_id = 2;
  rushed.deadline_usecs = 1;
  ASSERT_TRUE(client.send_request(rushed).ok());
  // Wait until the loop thread has actually queued the rushed request, then
  // let its 1 us budget lapse before unparking the dispatcher. (Entry-level
  // `submitted` is sufficient here: the queue has room, so a submit that
  // entered has pushed by the time the dispatcher next drains.)
  ASSERT_TRUE(await_counter(
      sched, &serving::RequestScheduler::Counters::submitted, 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  blocker->release();

  int ok = 0, expired = 0;
  for (int i = 0; i < 2; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.recv_response(&resp).ok());
    if (resp.request_id == 1) {
      EXPECT_EQ(resp.code, WireCode::kOk);
      ++ok;
    } else {
      EXPECT_EQ(resp.code, WireCode::kDeadlineExceeded);
      EXPECT_NE(resp.message.find("deadline"), std::string::npos);
      ++expired;
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(expired, 1);

  server.stop();
  sched.shutdown();
  const auto c = sched.counters();
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.expired, 1u);
}

// Admission shedding under a saturated queue surfaces as RESOURCE_EXHAUSTED:
// the dispatcher is parked, the 4-slot admission queue fills, and every
// further submit sheds after the submit timeout.
TEST(NetServing, LoadShedSurfacesAsResourceExhausted) {
  auto blocker = std::make_shared<BlockingSession>("blocker");
  serving::SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_usecs = 0;
  cfg.shards = 1;
  cfg.queue_capacity = 4;
  cfg.submit_timeout_usecs = 2000;
  serving::ModelRegistry reg;
  reg.add(blocker);
  blocker->arm();
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  RequestFrame req;
  req.name = "blocker";
  req.payload = {1.0f, 2.0f, 3.0f, 4.0f};
  req.request_id = 1;
  ASSERT_TRUE(client.send_request(req).ok());
  blocker->await_entered();  // dispatcher parked; queue is empty

  constexpr int kFlood = 8;  // 4 fit the queue, 4 must shed
  for (int i = 0; i < kFlood; ++i) {
    req.request_id = static_cast<std::uint64_t>(i) + 2;
    ASSERT_TRUE(client.send_request(req).ok());
  }
  // The loop thread submits the flood in frame order: 4 fill the queue, the
  // next 4 each stall past the 2 ms submit timeout and shed. Wait for the
  // SHED terminal counter, not `submitted` (which counts at submit entry):
  // releasing while the last overflow submit is still inside its retry
  // window would free a queue slot and let it sneak in.
  ASSERT_TRUE(await_counter(
      sched, &serving::RequestScheduler::Counters::shed, 4));
  blocker->release();

  int ok = 0, shed = 0;
  for (int i = 0; i < kFlood + 1; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.recv_response(&resp).ok());
    if (resp.code == WireCode::kOk) {
      ASSERT_EQ(resp.payload.size(), 4u);
      EXPECT_EQ(resp.payload[2], 4.0f);  // in[2] + 1
      ++ok;
    } else {
      EXPECT_EQ(resp.code, WireCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 5);    // the parked request + the 4 that fit the queue
  EXPECT_EQ(shed, 4);  // exactly the overflow

  server.stop();
  sched.shutdown();
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, static_cast<std::uint64_t>(kFlood) + 1);
  EXPECT_EQ(c.completed, 5u);
  EXPECT_EQ(c.shed, 4u);
}

// A session whose batch throws is quarantined: the poisoned request answers
// INTERNAL, subsequent requests answer UNAVAILABLE ("quarantined") without
// executing, and other sessions keep serving.
TEST(NetServing, QuarantineSurfacesAsUnavailable) {
  auto failing = std::make_shared<FailingSession>("failing");
  serving::SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.batch_usecs = 0;
  cfg.shards = 1;
  cfg.quarantine = true;
  serving::ModelRegistry reg;
  reg.add(failing);
  reg.add(serving::make_mlp_session("mlp", tiny_mlp(), 2, 7));
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  const auto mlp = reg.find("mlp");

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  ResponseFrame resp;

  failing->fail.store(true, std::memory_order_release);
  RequestFrame poison;
  poison.request_id = 1;
  poison.name = "failing";
  poison.payload = {1.0f, 2.0f, 3.0f, 4.0f};
  ASSERT_TRUE(client.call(poison, &resp).ok());
  EXPECT_EQ(resp.code, WireCode::kInternal);
  EXPECT_NE(resp.message.find("scripted net failure"), std::string::npos);

  poison.request_id = 2;
  ASSERT_TRUE(client.call(poison, &resp).ok());
  EXPECT_EQ(resp.code, WireCode::kUnavailable);
  EXPECT_NE(resp.message.find("quarantined"), std::string::npos);

  RequestFrame good;
  good.request_id = 3;
  good.name = "mlp";
  good.payload = make_input(*mlp, 3);
  ASSERT_TRUE(client.call(good, &resp).ok());
  EXPECT_EQ(resp.code, WireCode::kOk);

  server.stop();
  sched.shutdown();
  const auto c = sched.counters();
  EXPECT_EQ(c.failed, 1u);
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.completed, 1u);
}

// Per-tenant quota rejects RESOURCE_EXHAUSTED from the event loop BEFORE the
// scheduler: submitted == requests admitted, sent == submitted +
// quota_rejected, and tenants have independent buckets.
TEST(NetServing, QuotaRejectsBeforeTheScheduler) {
  serving::SchedulerConfig cfg;
  cfg.shards = 1;
  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("mlp", tiny_mlp(), 4, 7));
  serving::RequestScheduler sched(cfg);
  ServerConfig net_cfg;
  net_cfg.tenant_qps = 1;  // refill far slower than the test runs
  net_cfg.tenant_burst = 2;
  Server server(reg, sched, net_cfg);
  ASSERT_TRUE(server.start().ok());
  const auto mlp = reg.find("mlp");
  const auto in = make_input(*mlp, 5);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  constexpr int kGreedy = 6;
  int ok = 0, rejected = 0;
  for (int i = 0; i < kGreedy; ++i) {
    RequestFrame req;
    req.request_id = static_cast<std::uint64_t>(i) + 1;
    req.tenant_id = 7;
    req.name = "mlp";
    req.payload = in;
    ResponseFrame resp;
    ASSERT_TRUE(client.call(req, &resp).ok());
    if (resp.code == WireCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp.code, WireCode::kResourceExhausted);
      EXPECT_NE(resp.message.find("over quota"), std::string::npos);
      ++rejected;
    }
  }
  EXPECT_GE(ok, 2);        // the burst
  EXPECT_GE(rejected, 3);  // the overflow (>= : a slow run may refill one)
  EXPECT_EQ(ok + rejected, kGreedy);

  // A different tenant has its own untouched bucket.
  RequestFrame other;
  other.request_id = 100;
  other.tenant_id = 8;
  other.name = "mlp";
  other.payload = in;
  ResponseFrame resp;
  ASSERT_TRUE(client.call(other, &resp).ok());
  EXPECT_EQ(resp.code, WireCode::kOk);
  ++ok;

  server.stop();
  sched.shutdown();
  const auto st = server.stats();
  const auto c = sched.counters();
  // Exact accounting including quota rejections: every frame either reached
  // the scheduler or was quota-rejected, and everything submitted resolved.
  EXPECT_EQ(c.submitted, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(st.quota_rejected, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(st.frames, c.submitted + st.quota_rejected);
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
}

// A request frame dribbled onto the socket a few bytes at a time crosses
// many recv() boundaries; the server's incremental decoder reassembles it
// and serves the exact payload.
TEST(NetServing, PartialReadsReassembleAcrossRecvBoundaries) {
  serving::SchedulerConfig cfg;
  cfg.shards = 1;
  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("mlp", tiny_mlp(), 4, 7));
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  const auto mlp = reg.find("mlp");
  const auto in = make_input(*mlp, 11);
  const auto want = run_reference(*mlp, in);

  RequestFrame req;
  req.request_id = 77;
  req.name = "mlp";
  req.payload = in;
  std::vector<std::uint8_t> bytes;
  encode_request(req, &bytes);

  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  // 13-byte chunks with pauses: dozens of separate epoll readable events,
  // none aligned with any frame boundary.
  for (std::size_t off = 0; off < bytes.size(); off += 13) {
    const std::size_t n = std::min<std::size_t>(13, bytes.size() - off);
    ASSERT_EQ(::send(fd, bytes.data() + off, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  ResponseFrame resp;
  ASSERT_TRUE(raw_recv_response(fd, &resp));
  EXPECT_EQ(resp.request_id, 77u);
  ASSERT_EQ(resp.code, WireCode::kOk) << resp.message;
  ASSERT_EQ(resp.payload.size(), want.size());
  EXPECT_EQ(std::memcmp(resp.payload.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
  ::close(fd);
  server.stop();
  sched.shutdown();
}

// Garbage bytes (bad magic) poison the stream: the server answers one
// best-effort protocol-error response, then closes the connection.
TEST(NetServing, ProtocolErrorRespondsThenCloses) {
  serving::SchedulerConfig cfg;
  cfg.shards = 1;
  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("mlp", tiny_mlp(), 4, 7));
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());

  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  std::uint8_t garbage[64];
  std::memset(garbage, 0xAB, sizeof(garbage));
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));

  ResponseFrame resp;
  ASSERT_TRUE(raw_recv_response(fd, &resp));
  EXPECT_EQ(resp.request_id, 0u);  // unparseable frame: no id to echo
  EXPECT_EQ(resp.code, WireCode::kInvalidArgument);
  EXPECT_NE(resp.message.find("protocol error"), std::string::npos);
  EXPECT_NE(resp.message.find("bad magic"), std::string::npos);

  // The stream is dead: the next read is EOF.
  std::uint8_t one;
  EXPECT_EQ(::recv(fd, &one, 1, 0), 0);
  ::close(fd);

  server.stop();
  sched.shutdown();
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  EXPECT_EQ(sched.counters().submitted, 0u);
}

// net_write:full chaos forces every send() to hand the kernel one byte — the
// response must still arrive complete and bitwise-correct.
TEST(NetServing, InjectedShortWritesStillDeliverFullResponses) {
  serving::SchedulerConfig cfg;
  cfg.shards = 1;
  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("mlp", tiny_mlp(), 4, 7));
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  const auto mlp = reg.find("mlp");
  const auto in = make_input(*mlp, 21);
  const auto want = run_reference(*mlp, in);

  FaultScope chaos("net_write:full:1.0", 11);
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  RequestFrame req;
  req.request_id = 5;
  req.name = "mlp";
  req.payload = in;
  ResponseFrame resp;
  ASSERT_TRUE(client.call(req, &resp).ok());
  ASSERT_EQ(resp.code, WireCode::kOk) << resp.message;
  ASSERT_EQ(resp.payload.size(), want.size());
  EXPECT_EQ(std::memcmp(resp.payload.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
  EXPECT_GT(fault::injected(fault::Site::kNetWrite), 100u);  // ~1 per byte

  server.stop();
  sched.shutdown();
}

// net_write:fail chaos resets the connection mid-response; the server counts
// the fault, survives, and serves new connections once the chaos is disarmed.
TEST(NetServing, InjectedWriteResetKillsConnectionNotServer) {
  serving::SchedulerConfig cfg;
  cfg.shards = 1;
  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("mlp", tiny_mlp(), 4, 7));
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  const auto mlp = reg.find("mlp");
  const auto in = make_input(*mlp, 31);

  // Armed for the whole test; reconfiguring while the server/dispatcher
  // threads are live is documented harness misuse (the fields race), so the
  // real reset happens in the FaultScope dtor AFTER stop()/shutdown() join
  // them, and the mid-test disarm below uses the atomic SuppressGuard.
  FaultScope chaos("net_write:fail:1.0", 12);
  {
    Client doomed;
    ASSERT_TRUE(doomed.connect("127.0.0.1", server.port()).ok());
    RequestFrame req;
    req.request_id = 6;
    req.name = "mlp";
    req.payload = in;
    ResponseFrame resp;
    const Status st = doomed.call(req, &resp);
    EXPECT_FALSE(st.ok());  // connection reset before the response flushed
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  }
  EXPECT_GE(server.stats().write_faults, 1u);

  // Chaos suppressed: the server is intact and a fresh connection serves.
  fault::SuppressGuard quiet;
  Client fresh;
  ASSERT_TRUE(fresh.connect("127.0.0.1", server.port()).ok());
  RequestFrame req;
  req.request_id = 7;
  req.name = "mlp";
  req.payload = in;
  ResponseFrame resp;
  ASSERT_TRUE(fresh.call(req, &resp).ok());
  EXPECT_EQ(resp.code, WireCode::kOk);

  server.stop();
  sched.shutdown();
  // The doomed request still resolved exactly once in the scheduler.
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, 2u);
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
}

// The max_conns cap closes surplus connections at accept; the connection
// inside the cap keeps serving.
TEST(NetServing, MaxConnsCapClosesTheDoor) {
  serving::SchedulerConfig cfg;
  cfg.shards = 1;
  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("mlp", tiny_mlp(), 4, 7));
  serving::RequestScheduler sched(cfg);
  ServerConfig net_cfg;
  net_cfg.max_conns = 1;
  Server server(reg, sched, net_cfg);
  ASSERT_TRUE(server.start().ok());
  const auto mlp = reg.find("mlp");

  Client inside;
  ASSERT_TRUE(inside.connect("127.0.0.1", server.port()).ok());
  RequestFrame req;
  req.request_id = 1;
  req.name = "mlp";
  req.payload = make_input(*mlp, 1);
  ResponseFrame resp;
  ASSERT_TRUE(inside.call(req, &resp).ok());  // pins the one slot

  Client outside;
  ASSERT_TRUE(outside.connect("127.0.0.1", server.port()).ok());  // TCP-level
  req.request_id = 2;
  EXPECT_FALSE(outside.call(req, &resp).ok());  // server closed it at accept

  // The admitted connection still serves.
  req.request_id = 3;
  ASSERT_TRUE(inside.call(req, &resp).ok());
  EXPECT_EQ(resp.code, WireCode::kOk);

  server.stop();
  sched.shutdown();
  EXPECT_GE(server.stats().conn_rejected, 1u);
}

// --- hot reload -------------------------------------------------------------

// Registry snapshot semantics: old snapshots stay valid after a reload (in-
// flight work drains against them), kept sessions keep their object
// identity, and the version advances per publish.
TEST(ModelRegistryReload, SnapshotSwapKeepsOldSnapshotAlive) {
  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("a", tiny_mlp(), 2, 1));
  reg.add(serving::make_mlp_session("b", tiny_mlp(), 2, 2));
  const auto before = reg.snapshot();
  const auto a_before = reg.find("a");
  const std::uint64_t v_before = reg.version();

  reg.reload([&](const std::vector<std::shared_ptr<serving::Session>>& cur) {
    std::vector<std::shared_ptr<serving::Session>> next;
    for (const auto& s : cur) {
      if (s->name() == "a") next.push_back(s);  // keep a, drop b
    }
    next.push_back(serving::make_mlp_session("c", tiny_mlp(), 2, 3));
    return next;
  });

  EXPECT_EQ(reg.version(), v_before + 1);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.find("a").get(), a_before.get());  // identity kept
  EXPECT_EQ(reg.find("b"), nullptr);
  EXPECT_NE(reg.find("c"), nullptr);

  // The pre-reload snapshot is immutable and fully usable: b is still there
  // and still runs (an in-flight batch would drain exactly like this).
  EXPECT_EQ(before->by_name.size(), 2u);
  const auto& b_old = before->by_name.at("b");
  const auto in = make_input(*b_old, 4);
  std::vector<float> out(static_cast<std::size_t>(b_old->output_elems()));
  b_old->run(0, in.data(), out.data());

  EXPECT_THROW(
      reg.reload([](const std::vector<std::shared_ptr<serving::Session>>&) {
        return std::vector<std::shared_ptr<serving::Session>>{nullptr};
      }),
      std::invalid_argument);
  EXPECT_EQ(reg.size(), 2u);  // failed reload left the table unchanged
}

// The acceptance gate: >= 20 reload() swaps of a model under continuous wire
// traffic. Zero transport failures, zero INTERNAL, zero dropped responses;
// every OK payload is bitwise-identical to the reference output of exactly
// one published weight version.
TEST(NetServing, ReloadStormServesEveryVersionBitwiseCorrect) {
  constexpr int kSwaps = 22;
  constexpr int kTrafficThreads = 2;

  serving::SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_usecs = 100;
  cfg.shards = 1;
  const int lanes = cfg.max_batch;

  // Reference outputs per weight version for one fixed probe input. Seed s
  // builds version s; the registry starts at version seed 1 and reload v
  // publishes seed v+1.
  std::vector<float> probe;
  std::vector<std::vector<float>> version_want;
  for (int s = 1; s <= kSwaps + 1; ++s) {
    const auto ref = serving::make_mlp_session(
        "ref", tiny_mlp(), /*lanes=*/1, static_cast<std::uint64_t>(s));
    if (probe.empty()) probe = make_input(*ref, 999);
    version_want.push_back(run_reference(*ref, probe));
  }
  // Distinct seeds must give distinct outputs, or "matches some version"
  // would be vacuous.
  ASSERT_NE(std::memcmp(version_want[0].data(), version_want[1].data(),
                        version_want[0].size() * sizeof(float)),
            0);

  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("m", tiny_mlp(), lanes, 1));
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok_count{0};
  std::atomic<int> transport_errors{0};
  std::atomic<int> wrong_status{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < kTrafficThreads; ++t) {
    traffic.emplace_back([&, t] {
      Client client;
      if (!client.connect("127.0.0.1", server.port()).ok()) {
        transport_errors.fetch_add(1);
        return;
      }
      std::uint64_t id = static_cast<std::uint64_t>(t) << 32;
      while (!stop.load(std::memory_order_acquire)) {
        RequestFrame req;
        req.request_id = ++id;
        req.name = "m";
        req.payload = probe;
        ResponseFrame resp;
        if (!client.call(req, &resp).ok()) {
          transport_errors.fetch_add(1);
          return;
        }
        if (resp.code != WireCode::kOk) {
          // ANY non-OK during a clean reload storm is a failure: reloads
          // must be invisible to traffic.
          wrong_status.fetch_add(1);
          continue;
        }
        bool matched = false;
        for (const auto& want : version_want) {
          if (resp.payload.size() == want.size() &&
              std::memcmp(resp.payload.data(), want.data(),
                          want.size() * sizeof(float)) == 0) {
            matched = true;
            break;
          }
        }
        if (!matched) mismatches.fetch_add(1);
        ok_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Swap storm: each reload replaces "m" with freshly-seeded weights while
  // the traffic threads hammer it.
  for (int v = 0; v < kSwaps; ++v) {
    const std::uint64_t seed = static_cast<std::uint64_t>(v) + 2;
    reg.reload(
        [&](const std::vector<std::shared_ptr<serving::Session>>& cur) {
          std::vector<std::shared_ptr<serving::Session>> next;
          for (const auto& s : cur) {
            if (s->name() != "m") next.push_back(s);
          }
          next.push_back(serving::make_mlp_session("m", tiny_mlp(), lanes,
                                                   seed));
          return next;
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Let traffic drain against the final version, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (auto& th : traffic) th.join();

  server.stop();
  sched.shutdown();

  EXPECT_GE(reg.version(), static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_EQ(wrong_status.load(), 0);  // zero INTERNAL / shed / anything
  EXPECT_EQ(mismatches.load(), 0)
      << "an OK payload matched NO published weight version";
  EXPECT_GT(ok_count.load(), static_cast<std::uint64_t>(kSwaps))
      << "traffic did not actually overlap the swaps";

  // Zero dropped: every admitted request resolved, every resolution OK.
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, ok_count.load());
  EXPECT_EQ(c.completed, c.submitted);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(c.expired + c.shed + c.rejected, 0u);
}

// --- health + drain (wire v2) ------------------------------------------------

TEST(WireCodec, HealthFramesRoundTripAndTruncationNeedsMore) {
  HealthFrame probe;
  probe.request_id = 0xABCDEF0123456789ull;
  std::vector<std::uint8_t> req_bytes;
  encode_health_request(probe, &req_bytes);

  HealthFrame probe2;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(decode_health_request(req_bytes.data(), req_bytes.size(), &probe2,
                                  &consumed, &error),
            DecodeResult::kOk)
      << error;
  EXPECT_EQ(consumed, req_bytes.size());
  EXPECT_EQ(probe2.request_id, probe.request_id);

  HealthResponseFrame h;
  h.request_id = probe.request_id;
  h.draining = true;
  h.submitted = 100;
  h.completed = 90;
  h.failed = 1;
  h.expired = 2;
  h.shed = 3;
  h.rejected = 4;
  ShardHealth s0;
  s0.queue_depth = 17;
  s0.quarantined = true;
  s0.overload_level = 2;
  s0.heartbeat = 0x1111222233334444ull;
  h.shards.push_back(s0);
  h.shards.push_back(ShardHealth{});
  std::vector<std::uint8_t> bytes;
  encode_health_response(h, &bytes);

  // Every strict prefix is a valid partial frame, never an error.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    HealthResponseFrame partial;
    EXPECT_EQ(decode_health_response(bytes.data(), len, &partial, &consumed,
                                     &error),
              DecodeResult::kNeedMore)
        << "prefix length " << len;
  }

  HealthResponseFrame got;
  ASSERT_EQ(decode_health_response(bytes.data(), bytes.size(), &got, &consumed,
                                   &error),
            DecodeResult::kOk)
      << error;
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(got.request_id, h.request_id);
  EXPECT_TRUE(got.draining);
  EXPECT_EQ(got.submitted, 100u);
  EXPECT_EQ(got.completed, 90u);
  EXPECT_EQ(got.failed, 1u);
  EXPECT_EQ(got.expired, 2u);
  EXPECT_EQ(got.shed, 3u);
  EXPECT_EQ(got.rejected, 4u);
  ASSERT_EQ(got.shards.size(), 2u);
  EXPECT_EQ(got.shards[0].queue_depth, 17u);
  EXPECT_TRUE(got.shards[0].quarantined);
  EXPECT_EQ(got.shards[0].overload_level, 2);
  EXPECT_EQ(got.shards[0].heartbeat, s0.heartbeat);
  EXPECT_FALSE(got.shards[1].quarantined);
}

// A live server answers health probes with the scheduler's terminal counters
// and one record per shard; the draining flag flips after begin_drain() while
// probes keep being served.
TEST(NetServing, HealthProbeReportsCountersShardsAndDraining) {
  serving::SchedulerConfig cfg;
  cfg.shards = 2;
  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("mlp", tiny_mlp(), 4, 7));
  auto blocker = std::make_shared<BlockingSession>("blocker");
  reg.add(blocker);
  blocker->arm();
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());

  HealthResponseFrame h;
  ASSERT_TRUE(client.health(&h, /*request_id=*/7).ok());
  EXPECT_EQ(h.request_id, 7u);
  EXPECT_FALSE(h.draining);
  ASSERT_EQ(h.shards.size(), 2u);
  EXPECT_EQ(h.submitted, 0u);

  const auto mlp = reg.find("mlp");
  RequestFrame req;
  req.request_id = 1;
  req.name = "mlp";
  req.payload = make_input(*mlp, 3);
  ResponseFrame resp;
  ASSERT_TRUE(client.call(req, &resp).ok());
  ASSERT_EQ(resp.code, WireCode::kOk) << resp.message;

  ASSERT_TRUE(client.health(&h, 8).ok());
  EXPECT_EQ(h.submitted, 1u);
  EXPECT_EQ(h.completed, 1u);
  for (const auto& sh : h.shards) {
    EXPECT_FALSE(sh.quarantined);
    EXPECT_EQ(sh.overload_level, 0);
  }

  // Draining servers still answer probes — that is how an orchestrator
  // watches the flush — with the flag set. A drain with nothing in flight
  // completes at once and closes every connection, so one request is held
  // in flight on a second connection until the probes are done.
  Client busy;
  ASSERT_TRUE(busy.connect("127.0.0.1", server.port()).ok());
  RequestFrame held;
  held.request_id = 2;
  held.name = "blocker";
  held.payload = {1, 2, 3, 4};
  ASSERT_TRUE(busy.send_request(held).ok());
  blocker->await_entered();
  server.begin_drain();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool saw_draining = false;
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(client.health(&h, 9).ok());
    if (h.draining) {
      saw_draining = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_draining);

  blocker->release();
  ASSERT_TRUE(busy.recv_response(&resp).ok());
  EXPECT_EQ(resp.request_id, 2u);
  EXPECT_EQ(resp.code, WireCode::kOk) << resp.message;

  server.stop();
  sched.shutdown();
  EXPECT_GE(server.stats().health_frames, 3u);
}

// The ISSUE drain scenario: begin_drain() under live pipelined mixed-class
// traffic. The listen port is released immediately (a replacement can bind),
// NEW submits answer UNAVAILABLE "draining", and every in-flight request
// still resolves with exactly one terminal status and a whole frame.
TEST(NetServing, DrainUnderLoadFlushesInFlightAndReleasesPort) {
  auto blocker = std::make_shared<BlockingSession>("blocker");
  serving::ModelRegistry reg;
  reg.add(blocker);
  blocker->arm();
  serving::SchedulerConfig cfg;
  cfg.shards = 1;
  cfg.max_batch = 4;
  cfg.batch_usecs = 0;
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  const int port = server.port();

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", port).ok());
  constexpr int kInFlight = 6;
  for (int i = 1; i <= kInFlight; ++i) {
    RequestFrame req;
    req.request_id = static_cast<std::uint64_t>(i);
    req.name = "blocker";
    req.cls = static_cast<std::uint16_t>(i % 2);  // mixed latency/throughput
    req.payload = {1, 2, 3, 4};
    ASSERT_TRUE(client.send_request(req).ok());
  }
  // All six are owned by the scheduler (first batch parked inside run(), the
  // rest pending behind it) before the drain begins.
  ASSERT_TRUE(await_counter(
      sched, &serving::RequestScheduler::Counters::submitted, kInFlight));
  blocker->await_entered();

  server.begin_drain();
  EXPECT_TRUE(server.draining());

  // The listen port is released while in-flight work still flushes: a
  // replacement server can bind it. Poll — the drain hand-off happens on the
  // loop thread.
  int rebind = -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    rebind = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(rebind, 0);
    const int one = 1;
    ::setsockopt(rebind, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::bind(rebind, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      break;
    }
    ::close(rebind);
    rebind = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(rebind, 0) << "listen port was not released during drain";
  if (rebind >= 0) ::close(rebind);

  // A NEW submit on the still-open connection answers UNAVAILABLE
  // "draining" — and because the in-flight batch is parked, that reject is
  // the first response on the stream.
  RequestFrame late;
  late.request_id = 100;
  late.name = "blocker";
  late.payload = {1, 2, 3, 4};
  ASSERT_TRUE(client.send_request(late).ok());
  ResponseFrame resp;
  ASSERT_TRUE(client.recv_response(&resp).ok());
  EXPECT_EQ(resp.request_id, 100u);
  EXPECT_EQ(resp.code, WireCode::kUnavailable);
  EXPECT_NE(resp.message.find("draining"), std::string::npos);

  // Release the parked batch: the drain must now flush every in-flight
  // response — whole frames, exactly one per request — and exit the loop.
  blocker->release();
  std::vector<bool> seen(kInFlight + 1, false);
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client.recv_response(&resp).ok()) << "response " << i;
    ASSERT_GE(resp.request_id, 1u);
    ASSERT_LE(resp.request_id, static_cast<std::uint64_t>(kInFlight));
    EXPECT_FALSE(seen[static_cast<std::size_t>(resp.request_id)])
        << "duplicate terminal status for request " << resp.request_id;
    seen[static_cast<std::size_t>(resp.request_id)] = true;
    EXPECT_EQ(resp.code, WireCode::kOk) << resp.message;
    ASSERT_EQ(resp.payload.size(), 4u);
    EXPECT_EQ(resp.payload[0], 2.0f);  // in[0] + 1
  }

  server.stop();
  sched.shutdown();
  const auto st = server.stats();
  EXPECT_GE(st.drain_rejected, 1u);
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, static_cast<std::uint64_t>(kInFlight));
  EXPECT_EQ(c.completed, static_cast<std::uint64_t>(kInFlight));
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
}

// --- client hardening ---------------------------------------------------------

// A peer that accepts but never answers can no longer wedge the client:
// SO_RCVTIMEO surfaces as kDeadlineExceeded (which is never retried — the
// caller's clock, not the transport's).
TEST(NetClient, TimeoutOnSilentPeerReturnsDeadlineExceeded) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 8), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const int port = ntohs(addr.sin_port);

  ClientConfig cc;
  cc.timeout_usecs = 50000;  // 50 ms
  cc.max_retries = 3;        // must NOT fire: deadline is not retryable
  Client client(cc);
  ASSERT_TRUE(client.connect("127.0.0.1", port).ok());

  RequestFrame req;
  req.request_id = 1;
  req.name = "nobody";
  req.payload = {1.0f};
  ResponseFrame resp;
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = client.call(req, &resp);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.to_string();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_FALSE(client.connected());  // a torn stream is unrecoverable
  ::close(lfd);
}

// conn_accept chaos: the server slams the door on the first two accepted
// connections; call() reconnects and replays the SAME request id until a
// healthy accept goes through, and the request executes exactly once.
TEST(NetClient, RetriesThroughConnAcceptFaultsWithSameRequestId) {
  FaultScope chaos("conn_accept:fail:1.0:2", 17);
  serving::SchedulerConfig cfg;
  cfg.shards = 1;
  serving::ModelRegistry reg;
  reg.add(serving::make_mlp_session("mlp", tiny_mlp(), 4, 7));
  serving::RequestScheduler sched(cfg);
  Server server(reg, sched, ServerConfig{});
  ASSERT_TRUE(server.start().ok());
  const auto mlp = reg.find("mlp");

  ClientConfig cc;
  cc.timeout_usecs = 2000000;
  cc.max_retries = 5;
  cc.backoff_usecs = 500;
  Client client(cc);
  // The TCP handshake completes against the backlog even when the server
  // closes the socket straight after accepting — the failure surfaces on
  // the first round trip, which is what the retry loop covers.
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());

  RequestFrame req;
  req.request_id = 99;
  req.name = "mlp";
  req.payload = make_input(*mlp, 5);
  ResponseFrame resp;
  const Status st = client.call(req, &resp);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(resp.code, WireCode::kOk) << resp.message;
  EXPECT_EQ(resp.request_id, 99u);
  EXPECT_GE(client.retries(), 1u);
  EXPECT_EQ(fault::injected(fault::Site::kConnAccept), 2u);

  server.stop();
  sched.shutdown();
  EXPECT_GE(server.stats().conn_rejected, 2u);
  // Replays never double-executed: one submit, one completion.
  EXPECT_EQ(sched.counters().submitted, 1u);
  EXPECT_EQ(sched.counters().completed, 1u);
}

// Consecutive transport failures open the circuit breaker; while open,
// call() fails fast without touching the socket.
TEST(NetClient, CircuitBreakerOpensAfterConsecutiveTransportFailures) {
  // Grab a loopback port with nothing listening on it: bind, read it back,
  // close. (Racy in principle, deterministic in practice for a test run.)
  const int tmp = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(tmp, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(tmp, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(tmp, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const int dead_port = ntohs(addr.sin_port);
  ::close(tmp);

  ClientConfig cc;
  cc.breaker_fails = 2;
  cc.breaker_cooldown_usecs = 60000000;  // 60 s: stays open for the test
  Client client(cc);
  EXPECT_FALSE(client.connect("127.0.0.1", dead_port).ok());
  EXPECT_FALSE(client.breaker_open());  // one failure: below the threshold
  EXPECT_FALSE(client.connect("127.0.0.1", dead_port).ok());
  EXPECT_TRUE(client.breaker_open());
  EXPECT_EQ(client.breaker_trips(), 1u);

  RequestFrame req;
  req.request_id = 1;
  req.name = "x";
  req.payload = {1.0f};
  ResponseFrame resp;
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = client.call(req, &resp);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("circuit breaker open"), std::string::npos)
      << st.to_string();
  // Fail-fast means no connect attempt, no socket timeout: microseconds,
  // bounded loosely here.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(client.breaker_trips(), 1u);  // an open breaker does not re-trip
}

// --- bounded quota map --------------------------------------------------------

// At the max_tenants cap the LRU bucket is evicted — preferring one whose
// idle accrual has refilled it (lossless: its tenant returns to a fresh full
// bucket, the exact state it was evicted in). Synthetic time points make the
// scan deterministic.
TEST(TenantQuota, BoundedMapEvictsLruIdleFullBucketFirst) {
  TenantQuota q(/*qps=*/1000.0, /*burst=*/1.0, /*max_tenants=*/4);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t t = 1; t <= 4; ++t) {
    EXPECT_TRUE(q.admit(t, t0));
  }
  EXPECT_EQ(q.tracked_tenants(), 4u);
  EXPECT_EQ(q.evicted(), 0u);

  // One second later every bucket has refilled: the LRU tail (tenant 1) is
  // idle-full and is the lossless victim.
  const auto t1 = t0 + std::chrono::seconds(1);
  EXPECT_TRUE(q.admit(5, t1));
  EXPECT_EQ(q.evicted(), 1u);
  EXPECT_EQ(q.tracked_tenants(), 4u);

  // The evicted tenant returns to a fresh full bucket — admitted exactly as
  // if the bucket had never been dropped (and evicting for it keeps the map
  // at the cap).
  EXPECT_TRUE(q.admit(1, t1));
  EXPECT_EQ(q.evicted(), 2u);
  EXPECT_EQ(q.tracked_tenants(), 4u);

  // With zero idle time none of the scanned buckets is full (every token
  // was just spent): the absolute LRU tail is taken instead — the map stays
  // bounded no matter what.
  TenantQuota cold(/*qps=*/1000.0, /*burst=*/1.0, /*max_tenants=*/2);
  EXPECT_TRUE(cold.admit(1, t0));
  EXPECT_TRUE(cold.admit(2, t0));
  EXPECT_TRUE(cold.admit(3, t0));
  EXPECT_EQ(cold.evicted(), 1u);
  EXPECT_EQ(cold.tracked_tenants(), 2u);
}

}  // namespace
}  // namespace plt::net
