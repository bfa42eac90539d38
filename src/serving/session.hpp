// Serving sessions: a uniform run(lane, in, out) interface over the dl
// models (MLP stack, BERT encoder, block-sparse FC, LLM decoder, ResNet-50)
// so the request scheduler can multiplex heterogeneous traffic onto the one
// process-wide thread pool.
//
// Lanes. The dl models keep mutable scratch (staging panels, saved
// activations, KV caches) inside the model object, so one instance cannot
// serve two requests concurrently. A session therefore owns `lanes`
// independent replicas, every one constructed from the same RNG seed:
// identical weights, identical plans, identical kernel-cache entries. Any
// lane produces bitwise-identical output for the same input, which is what
// lets the scheduler prove batched == sequential execution byte for byte.
//
// Construction is the expensive, once-per-model step: it packs weights,
// builds every LoopNest plan and resolves the kernel-cache entries (a
// warmup request runs through each lane), so steady-state serving touches
// only cached plans and compiled kernels — the paper's near-zero-overhead
// dispatch story lifted from per-nest to per-request.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dl/bert.hpp"
#include "dl/llm.hpp"
#include "dl/resnet.hpp"
#include "dl/sparse_fc.hpp"

namespace plt::serving {

// Priority class carried by every request (serving/scheduler.hpp Request).
// On a shard, a ready kLatency batch always flushes before a ready
// kThroughput batch — a formed-but-unflushed throughput batch can be
// overtaken between regions (never mid-region, so determinism is untouched).
// kSessionDefault resolves to Session::default_class() at submit time.
enum class RequestClass : int {
  kLatency = 0,
  kThroughput = 1,
  kSessionDefault = 2,
};

inline const char* request_class_name(RequestClass c) {
  switch (c) {
    case RequestClass::kLatency: return "latency";
    case RequestClass::kThroughput: return "throughput";
    case RequestClass::kSessionDefault: return "session-default";
  }
  return "?";
}

class Session {
 public:
  virtual ~Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& name() const { return name_; }
  int lanes() const { return lanes_; }
  std::int64_t input_elems() const { return input_elems_; }
  std::int64_t output_elems() const { return output_elems_; }
  double flops_per_request() const { return flops_; }

  // Pool partition this session's weights/scratch live on; -1 = unpinned.
  // The sharded scheduler routes the session's batches to this partition.
  int partition() const { return partition_.load(std::memory_order_acquire); }

  // Pins the session to pool partition p (normalized modulo the pool's
  // partition count, so partition() always names a real sub-team). With
  // first_touch (the default and the ModelRegistry behaviour), a warmup
  // pass re-runs on that partition's sub-team, so lazily-built state —
  // per-token-count plans, decode scratch, flat schedules, TPP kernels —
  // is allocated and first-touched by the threads that will serve the
  // session's traffic (first-touch NUMA policy places those pages on the
  // partition's node). Idempotent per target.
  void pin_partition(int p, bool first_touch = true);

  // Pins to p only if still unpinned; returns the resulting partition. Used
  // by the scheduler on first submit (cheap: no warmup on the submit path).
  // Unlike pin_partition, p is stored raw — under non-pool runtimes it acts
  // as a shard-routing hint beyond the (single) real partition.
  int pin_partition_if_unpinned(int p);

  // Serializes batch execution on this session: a dispatcher that stole the
  // session's requests must not run its lanes concurrently with the home
  // dispatcher. Uncontended in steady state (one home dispatcher).
  std::mutex& exec_mutex() { return exec_mu_; }

  // Health / quarantine. A session whose batch execution threw is marked
  // unhealthy by the scheduler (first failure wins for the reason); with
  // quarantine enabled the scheduler then rejects new submits kUnavailable
  // while every other session keeps serving. mark_healthy() re-admits it
  // (operator action — the lanes themselves are stateless across requests).
  bool healthy() const { return healthy_.load(std::memory_order_acquire); }
  void mark_unhealthy(const std::string& reason);
  void mark_healthy();
  std::string health_reason() const;

  // Default priority class for requests submitted kSessionDefault. LLM
  // sessions default kLatency (decode tail latency is the product metric);
  // every other model family defaults kThroughput.
  RequestClass default_class() const {
    return static_cast<RequestClass>(
        default_class_.load(std::memory_order_acquire));
  }
  void set_default_class(RequestClass cls);

  // Runs one request on the given lane. Distinct lanes are safe to run
  // concurrently; the same lane must not be entered twice at once. Called
  // by the scheduler from inside a pool region (nested nests degrade to a
  // serial walk) and by clients directly for sequential reference runs.
  virtual void run(int lane, const float* in, float* out) = 0;

  // --- continuous batching (stepped execution) ------------------------------
  //
  // A steppable session splits run() into step_count(tokens_per_step)
  // resumable calls: for the LLM family, step 0 prefills the prompt into the
  // lane's KV cache and decodes the first `tokens_per_step` tokens; every
  // later step decodes the next `tokens_per_step` tokens against the SAME
  // lane's live cache. The lane is therefore the request's decode state: a
  // stepped request holds one lane exclusively (acquire_lane/release_lane)
  // across all of its steps, and the step sequence on one lane is bitwise-
  // identical to one monolithic run() — the dispatcher only interleaves
  // *other requests' lanes* between token boundaries.
  virtual bool steppable() const { return false; }
  // Number of resumable steps for the given granularity; 1 = monolithic
  // (tokens_per_step <= 0 always means "execute as one run()").
  virtual int step_count(int tokens_per_step) const {
    (void)tokens_per_step;
    return 1;
  }
  // Runs step `step` (0-based, < step_count(tokens_per_step)) of one request
  // on the request's sticky lane. The default forwards step 0 to run().
  virtual void run_step(int lane, const float* in, float* out, int step,
                        int tokens_per_step);

  // Lane ownership for stepped requests. acquire_lane returns an exclusive
  // lane index (-1 when every lane is held by an in-flight request — the
  // caller retries after a completion frees one); release_lane returns it.
  // Thread-safe: dispatchers on distinct shards acquire concurrently.
  int acquire_lane();
  void release_lane(int lane);

 protected:
  Session(std::string name, int lanes, std::int64_t input_elems,
          std::int64_t output_elems, double flops)
      : name_(std::move(name)),
        lanes_(lanes < 1 ? 1 : lanes),
        input_elems_(input_elems),
        output_elems_(output_elems),
        flops_(flops) {}

  // Runs one synthetic request through every lane so plans, flat schedules
  // and TPP kernels are resolved before the first real request arrives.
  void warmup();

  // For sessions whose flop count is only known after the model is built.
  void set_flops(double f) { flops_ = f; }

 private:
  std::string name_;
  int lanes_;
  std::int64_t input_elems_;
  std::int64_t output_elems_;
  double flops_;
  std::atomic<int> partition_{-1};
  std::mutex exec_mu_;
  std::atomic<bool> healthy_{true};
  mutable std::mutex health_mu_;  // guards health_reason_
  std::string health_reason_;
  std::atomic<int> default_class_{static_cast<int>(RequestClass::kThroughput)};
  std::mutex lane_mu_;           // guards lane_busy_
  std::vector<char> lane_busy_;  // sized lazily to lanes() on first acquire
};

// Stack of `layers` fully-connected layers, all `features` wide, over
// `tokens` rows (the Fig. 3 MLP shape, served per request).
struct MlpServeConfig {
  std::int64_t features = 128;
  std::int64_t layers = 2;
  std::int64_t tokens = 32;
  std::int64_t bm = 32, bn = 32, bk = 32;  // must divide features
  DType dtype = DType::F32;
  std::string loop_spec = "BCa";
};
std::shared_ptr<Session> make_mlp_session(const std::string& name,
                                          const MlpServeConfig& cfg, int lanes,
                                          std::uint64_t seed);

// BERT encoder inference: in/out are [tokens][hidden]. dropout is forced to
// 0 (inference), so forward consumes no RNG and stays deterministic.
std::shared_ptr<Session> make_bert_session(const std::string& name,
                                           dl::BertConfig cfg, int lanes,
                                           std::uint64_t seed);

// Single block-sparse FC layer (the Fig. 10 inference building block):
// in [tokens][in_features] -> out [tokens][out_features].
std::shared_ptr<Session> make_sparse_fc_session(const std::string& name,
                                                const dl::SparseFcConfig& cfg,
                                                int lanes, std::uint64_t seed);

// LLM request: prefill `prompt_len` embedding rows, then autoregressively
// decode `gen_tokens` steps (each step feeds back the previous output, as in
// LlmModel::generate). in: [prompt_len][hidden]; out: [gen_tokens][hidden]
// (the decoded embeddings). Per-lane KV caches are fully overwritten by each
// request, so sessions are stateless across requests. The session is
// steppable (continuous batching: one prefill step, then one decode region
// per PLT_SERVE_DECODE_STEP_TOKENS generated tokens) and defaults its
// requests to RequestClass::kLatency.
std::shared_ptr<Session> make_llm_session(const std::string& name,
                                          dl::LlmConfig cfg,
                                          std::int64_t prompt_len,
                                          std::int64_t gen_tokens, int lanes,
                                          std::uint64_t seed);

// ResNet-50 classification: in NCHW [N][3][image][image] -> out [N][1000].
std::shared_ptr<Session> make_resnet_session(const std::string& name,
                                             const dl::ResNetConfig& cfg,
                                             int lanes, std::uint64_t seed);

}  // namespace plt::serving
