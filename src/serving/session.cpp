#include "serving/session.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/threading.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace plt::serving {

namespace {

// Moves the calling thread onto partition p's cores for the duration of a
// scope and restores its previous affinity after. On partition 0 the caller
// participates in run_on() regions as tid 0 (and IS the whole sub-team when
// the partition has one member), so its warmup share would otherwise be
// first-touched wherever the registering thread happens to run.
class ScopedPartitionAffinity {
 public:
  explicit ScopedPartitionAffinity(int p) {
#if defined(__linux__)
    saved_ok_ = ::pthread_getaffinity_np(::pthread_self(), sizeof(saved_),
                                         &saved_) == 0;
#endif
    ThreadPool::instance().pin_caller_to_partition(p);
  }
  ~ScopedPartitionAffinity() {
#if defined(__linux__)
    if (saved_ok_) {
      ::pthread_setaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
    }
#endif
  }

 private:
#if defined(__linux__)
  cpu_set_t saved_;
#endif
  bool saved_ok_ = false;
};

}  // namespace

void Session::warmup() {
  // The warmup fault site fires BEFORE suppression: it models a model that
  // fails to build. The guard then keeps the real kernel runs below from
  // drawing kernel_exec events — construction is not serving chaos.
  common::fault::fire_point(common::fault::Site::kSessionWarmup);
  common::fault::SuppressGuard no_chaos;
  std::vector<float> in(static_cast<std::size_t>(input_elems_));
  std::vector<float> out(static_cast<std::size_t>(output_elems_));
  Xoshiro256 rng(0xC0FFEEull);
  fill_uniform(in.data(), in.size(), rng, -0.1f, 0.1f);
  for (int l = 0; l < lanes_; ++l) run(l, in.data(), out.data());
}

void Session::mark_unhealthy(const std::string& reason) {
  {
    std::lock_guard<std::mutex> g(health_mu_);
    if (health_reason_.empty()) health_reason_ = reason;  // first failure wins
  }
  healthy_.store(false, std::memory_order_release);
}

void Session::mark_healthy() {
  {
    std::lock_guard<std::mutex> g(health_mu_);
    health_reason_.clear();
  }
  healthy_.store(true, std::memory_order_release);
}

std::string Session::health_reason() const {
  std::lock_guard<std::mutex> g(health_mu_);
  return health_reason_;
}

void Session::set_default_class(RequestClass cls) {
  PLT_CHECK(cls != RequestClass::kSessionDefault,
            "serving: a session default class must be latency or throughput");
  default_class_.store(static_cast<int>(cls), std::memory_order_release);
}

void Session::run_step(int lane, const float* in, float* out, int step,
                       int tokens_per_step) {
  (void)tokens_per_step;
  PLT_CHECK(step == 0, "serving: session is not steppable (single step)");
  run(lane, in, out);
}

int Session::acquire_lane() {
  std::lock_guard<std::mutex> g(lane_mu_);
  if (lane_busy_.empty()) lane_busy_.assign(static_cast<std::size_t>(lanes_), 0);
  for (std::size_t l = 0; l < lane_busy_.size(); ++l) {
    if (!lane_busy_[l]) {
      lane_busy_[l] = 1;
      return static_cast<int>(l);
    }
  }
  return -1;
}

void Session::release_lane(int lane) {
  std::lock_guard<std::mutex> g(lane_mu_);
  if (lane >= 0 && static_cast<std::size_t>(lane) < lane_busy_.size()) {
    lane_busy_[static_cast<std::size_t>(lane)] = 0;
  }
}

void Session::pin_partition(int p, bool first_touch) {
  if (p < 0) return;
  // Stored RAW, like pin_partition_if_unpinned: the scheduler homes the
  // session on shard (p % nshards), and a sharded scheduler may run more
  // shards than the pool has partitions (every executor wraps p modulo the
  // real partition count before dispatch). Normalizing here would collapse
  // the shard-homing domain to the partition count — on a 1-partition pool
  // that would make it impossible to re-home a session off shard 0, which
  // is exactly what watchdog failover must do. Only the warmup below needs
  // the real partition index.
  partition_.store(p, std::memory_order_release);
  p %= std::max(1, pool_partitions());
  if (!first_touch || runtime() != Runtime::kPool) return;
  if (ThreadPool::instance().partitions() <= 1) return;
  // Warmup on the owning partition: lanes are spread over its sub-team so
  // every member faults in (and thereby places) the lazily-built per-lane
  // state it will touch when serving real batches. Nests inside run() are
  // nested regions and degrade to serial walks, exactly as during serving.
  std::lock_guard<std::mutex> guard(exec_mu_);
  // A lane a stepped request holds carries its live decode state (the LLM
  // KV cache) between windows: warm only the free lanes. Lanes are handed
  // out under exec_mu_, so none is taken while this pass runs.
  std::vector<int> free_lanes;
  {
    std::lock_guard<std::mutex> g(lane_mu_);
    for (int l = 0; l < lanes_; ++l) {
      if (lane_busy_.empty() || !lane_busy_[static_cast<std::size_t>(l)]) {
        free_lanes.push_back(l);
      }
    }
  }
  if (free_lanes.empty()) return;
  std::vector<float> in(static_cast<std::size_t>(input_elems_));
  std::vector<float> out(static_cast<std::size_t>(output_elems_));
  Xoshiro256 rng(0xC0FFEEull);
  fill_uniform(in.data(), in.size(), rng, -0.1f, 0.1f);
  // The affinity scope moves this thread onto partition p's cores for the
  // warmup, so placement is correct even when a busy partition degrades
  // parallel_region_on to a serial run on the caller (and for the caller's
  // own tid-0 share on partition 0): every first-touch happens on node p
  // either way. One pass suffices — the lazily-built state is idempotent.
  ScopedPartitionAffinity on_node(p);
  common::fault::SuppressGuard no_chaos;  // first-touch warmup, not serving
  parallel_region_on(p, [&](int tid, int nthreads) {
    std::vector<float> local_out(out);  // lanes run concurrently
    for (std::size_t i = static_cast<std::size_t>(tid); i < free_lanes.size();
         i += static_cast<std::size_t>(nthreads)) {
      run(free_lanes[i], in.data(), local_out.data());
    }
  });
}

int Session::pin_partition_if_unpinned(int p) {
  // Stored as given, NOT normalized: under non-pool runtimes (one fictive
  // partition) the scheduler uses this value to spread sessions over its
  // shards, and every executor wraps it modulo the real partition count.
  // The pool-runtime caller (shard_of) already passes a normalized index.
  int expected = -1;
  if (partition_.compare_exchange_strong(expected, p,
                                         std::memory_order_acq_rel)) {
    return p;
  }
  return expected;
}

namespace {

// --- MLP --------------------------------------------------------------------

class MlpSession final : public Session {
 public:
  MlpSession(const std::string& name, const MlpServeConfig& cfg, int lanes,
             std::uint64_t seed)
      : Session(name, lanes, cfg.tokens * cfg.features,
                cfg.tokens * cfg.features,
                2.0 * static_cast<double>(cfg.tokens) * cfg.features *
                    cfg.features * cfg.layers),
        cfg_(cfg) {
    PLT_CHECK(cfg.layers >= 1, "serving: MLP needs at least one layer");
    dl::FcConfig fc;
    fc.in_features = fc.out_features = cfg.features;
    fc.tokens = cfg.tokens;
    fc.bm = cfg.bm;
    fc.bn = cfg.bn;
    fc.bk = cfg.bk;
    fc.dtype = cfg.dtype;
    fc.act = dl::FcActivation::kRelu;
    fc.loop_spec = cfg.loop_spec;
    for (int l = 0; l < this->lanes(); ++l) {
      Xoshiro256 rng(seed);  // every lane sees the same weight stream
      Lane lane;
      for (std::int64_t i = 0; i < cfg.layers; ++i) {
        lane.layers.push_back(std::make_unique<dl::FcLayer>(fc, rng));
      }
      lane.ping.assign(static_cast<std::size_t>(input_elems()), 0.0f);
      lane.pong.assign(static_cast<std::size_t>(input_elems()), 0.0f);
      lanes_.push_back(std::move(lane));
    }
    warmup();
  }

  void run(int lane_id, const float* in, float* out) override {
    Lane& lane = lanes_[static_cast<std::size_t>(lane_id)];
    const float* src = in;
    for (std::size_t i = 0; i < lane.layers.size(); ++i) {
      float* dst = i + 1 == lane.layers.size()
                       ? out
                       : (i % 2 == 0 ? lane.ping.data() : lane.pong.data());
      lane.layers[i]->forward(src, dst);
      src = dst;
    }
  }

 private:
  struct Lane {
    std::vector<std::unique_ptr<dl::FcLayer>> layers;
    std::vector<float> ping, pong;
  };
  MlpServeConfig cfg_;
  std::vector<Lane> lanes_;
};

// --- BERT -------------------------------------------------------------------

class BertSession final : public Session {
 public:
  BertSession(const std::string& name, const dl::BertConfig& cfg, int lanes,
              std::uint64_t seed)
      : Session(name, lanes, cfg.tokens() * cfg.hidden,
                cfg.tokens() * cfg.hidden, 0.0) {
    for (int l = 0; l < this->lanes(); ++l) {
      Xoshiro256 rng(seed);
      models_.push_back(std::make_unique<dl::BertEncoder>(cfg, rng));
    }
    set_flops(models_[0]->forward_flops());
    warmup();
  }

  void run(int lane, const float* in, float* out) override {
    // dropout_p == 0: forward consumes no randomness, the rng is inert.
    Xoshiro256 rng(0);
    models_[static_cast<std::size_t>(lane)]->forward(in, out, rng);
  }

 private:
  std::vector<std::unique_ptr<dl::BertEncoder>> models_;
};

// --- block-sparse FC --------------------------------------------------------

class SparseFcSession final : public Session {
 public:
  SparseFcSession(const std::string& name, const dl::SparseFcConfig& cfg,
                  int lanes, std::uint64_t seed)
      : Session(name, lanes, cfg.tokens * cfg.in_features,
                cfg.tokens * cfg.out_features, 0.0) {
    Xoshiro256 rng(seed);
    dl::Tensor weight({cfg.out_features, cfg.in_features});
    dl::Tensor bias({cfg.out_features});
    weight.randn_uniform(rng, -0.1f, 0.1f);
    bias.randn_uniform(rng, -0.01f, 0.01f);
    for (int l = 0; l < this->lanes(); ++l) {
      layers_.push_back(
          std::make_unique<dl::SparseFcLayer>(cfg, weight, bias));
    }
    set_flops(layers_[0]->effective_flops());
    warmup();
  }

  void run(int lane, const float* in, float* out) override {
    layers_[static_cast<std::size_t>(lane)]->forward(in, out);
  }

 private:
  std::vector<std::unique_ptr<dl::SparseFcLayer>> layers_;
};

// --- LLM (prefill + decode) -------------------------------------------------

class LlmSession final : public Session {
 public:
  LlmSession(const std::string& name, const dl::LlmConfig& cfg,
             std::int64_t prompt_len, std::int64_t gen_tokens, int lanes,
             std::uint64_t seed)
      : Session(name, lanes, prompt_len * cfg.hidden, gen_tokens * cfg.hidden,
                llm_flops(cfg, prompt_len, gen_tokens)),
        prompt_len_(prompt_len),
        gen_tokens_(gen_tokens) {
    PLT_CHECK(prompt_len >= 1 && gen_tokens >= 1,
              "serving: LLM needs prompt_len >= 1 and gen_tokens >= 1");
    PLT_CHECK(prompt_len + gen_tokens <= cfg.max_seq,
              "serving: prompt + generation exceeds max_seq");
    for (int l = 0; l < this->lanes(); ++l) {
      Xoshiro256 rng(seed);
      lanes_.push_back(
          std::make_unique<dl::DecoderStack>(cfg, prompt_len, rng));
    }
    warmup();
  }

  // Monolithic run() is literally the stepped pipeline executed in one call:
  // prefill, then every decode token, through the same DecoderStack::step
  // that run_step() calls per window (one team region per call). Stepped
  // execution replays the exact same per-lane operation sequence split at
  // token boundaries, so "stepped == monolithic" holds bitwise by
  // construction — the scheduler tests assert it end to end anyway.
  void run(int lane_id, const float* in, float* out) override {
    lanes_[static_cast<std::size_t>(lane_id)]->step(in, prompt_len_, 0,
                                                    gen_tokens_, out);
  }

  bool steppable() const override { return true; }

  int step_count(int tokens_per_step) const override {
    if (tokens_per_step <= 0) return 1;  // monolithic decode
    const std::int64_t tps = tokens_per_step;
    return static_cast<int>((gen_tokens_ + tps - 1) / tps);
  }

  // Step 0 prefills the prompt and seeds the first decode token from its
  // last position, exactly as LlmModel::generate does; every step then
  // decodes its token range against the lane's KV caches, which carry the
  // autoregressive state between steps.
  void run_step(int lane_id, const float* in, float* out, int step,
                int tokens_per_step) override {
    if (tokens_per_step <= 0) {
      run(lane_id, in, out);
      return;
    }
    const std::int64_t begin =
        static_cast<std::int64_t>(step) * tokens_per_step;
    const std::int64_t end =
        std::min<std::int64_t>(gen_tokens_, begin + tokens_per_step);
    lanes_[static_cast<std::size_t>(lane_id)]->step(
        step == 0 ? in : nullptr, prompt_len_, begin, end, out);
  }

 private:
  static double llm_flops(const dl::LlmConfig& cfg, std::int64_t prompt,
                          std::int64_t gen) {
    const double h = static_cast<double>(cfg.hidden);
    const double tokens = static_cast<double>(prompt + gen);
    const double per_layer = 2.0 * tokens * h * h * 4.0 +
                             2.0 * tokens * h * static_cast<double>(cfg.ffn) * 2.0 +
                             4.0 * tokens * tokens * h;
    return per_layer * static_cast<double>(cfg.layers);
  }

  std::int64_t prompt_len_;
  std::int64_t gen_tokens_;
  std::vector<std::unique_ptr<dl::DecoderStack>> lanes_;
};

// --- ResNet-50 --------------------------------------------------------------

class ResNetSession final : public Session {
 public:
  ResNetSession(const std::string& name, const dl::ResNetConfig& cfg,
                int lanes, std::uint64_t seed)
      : Session(name, lanes, cfg.N * 3 * cfg.image * cfg.image, cfg.N * 1000,
                0.0) {
    for (int l = 0; l < this->lanes(); ++l) {
      Xoshiro256 rng(seed);
      models_.push_back(std::make_unique<dl::ResNet50>(cfg, rng));
    }
    set_flops(models_[0]->forward_flops());
    warmup();
  }

  void run(int lane, const float* in, float* out) override {
    models_[static_cast<std::size_t>(lane)]->forward(in, out);
  }

 private:
  std::vector<std::unique_ptr<dl::ResNet50>> models_;
};

}  // namespace

std::shared_ptr<Session> make_mlp_session(const std::string& name,
                                          const MlpServeConfig& cfg, int lanes,
                                          std::uint64_t seed) {
  return std::make_shared<MlpSession>(name, cfg, lanes, seed);
}

std::shared_ptr<Session> make_bert_session(const std::string& name,
                                           dl::BertConfig cfg, int lanes,
                                           std::uint64_t seed) {
  cfg.dropout_p = 0.0f;  // inference: keeps forward RNG-free + deterministic
  return std::make_shared<BertSession>(name, cfg, lanes, seed);
}

std::shared_ptr<Session> make_sparse_fc_session(const std::string& name,
                                                const dl::SparseFcConfig& cfg,
                                                int lanes, std::uint64_t seed) {
  return std::make_shared<SparseFcSession>(name, cfg, lanes, seed);
}

std::shared_ptr<Session> make_llm_session(const std::string& name,
                                          dl::LlmConfig cfg,
                                          std::int64_t prompt_len,
                                          std::int64_t gen_tokens, int lanes,
                                          std::uint64_t seed) {
  auto s = std::make_shared<LlmSession>(name, cfg, prompt_len, gen_tokens,
                                        lanes, seed);
  // Decode traffic is the tail-latency-critical class by default; submitters
  // can still override per request (Request::cls) or per session.
  s->set_default_class(RequestClass::kLatency);
  return s;
}

std::shared_ptr<Session> make_resnet_session(const std::string& name,
                                             const dl::ResNetConfig& cfg,
                                             int lanes, std::uint64_t seed) {
  return std::make_shared<ResNetSession>(name, cfg, lanes, seed);
}

}  // namespace plt::serving
