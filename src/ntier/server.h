// One component server (Apache / Tomcat / MySQL instance).
//
// A visit holds a worker-pool slot for its entire lifetime (CPU phases plus
// downstream waits — a blocked Tomcat thread still occupies maxThreads and
// still contributes multithreading overhead, which is why over-sized pools
// hurt). Downstream sub-requests go out along the server's out-edges, each
// through that edge's optional connection pool and the target tier's load
// balancer.
//
// Topology: a server owns 0..kMaxFanOut out-edges (set_out_edges). A visit
// calls every edge its request plans calls for: edges concurrently, the calls
// along one edge sequentially, and the post-CPU phase starts only after every
// edge settles (synchronous join); any failed edge fails the visit once the
// others drain. A chain hop is simply a one-edge fan-out. Every call — on any
// edge — follows the one sub-request retry policy: a per-attempt deadline
// and bounded retries with jittered backoff. With the policy disabled no
// deadline is armed and a failure fails the edge at once.
//
// Hot-path storage: visits and (visit, edge) calls live in generation-counted
// slabs owned by the server, not in per-visit shared_ptrs. Every
// continuation captures [this, handle] — 16 bytes, inside std::function's
// inline buffer — so the steady-state request path performs no heap
// allocation on any topology. A freed slot bumps its generation, which makes
// every outstanding handle stale: crash() frees all live visits, instantly
// invalidating pre-crash continuations, and an attempt settled by its
// response or its deadline is re-keyed so the loser of the race is a no-op.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "metrics/welford.h"
#include "ntier/request.h"
#include "ntier/server_config.h"
#include "ntier/slot_pool.h"
#include "sim/engine.h"

namespace dcm::ntier {

class Tier;          // downstream dispatch target
class LoadBalancer;  // visit-outcome listener (passive health tracking)

/// One out-edge of a server: a synchronous call target and its optional
/// caller-side connection pool.
struct OutEdge {
  Tier* target = nullptr;
  int edge_id = 0;        // service-graph edge id (indexes downstream_calls)
  int pool_capacity = 0;  // >0: per-server connection pool held across each call
  bool managed = false;   // pool resized by set_downstream_connections
};

/// Deadline + bounded retry applied to each inter-tier sub-request. All
/// fields are per-attempt; backoff between attempt k and k+1 is
/// backoff_base · multiplier^k, jittered ±jitter_fraction from the server's
/// own deterministic Rng stream. Disabled by default: single attempts, no
/// deadline events, no extra rng draws.
struct SubRequestRetryPolicy {
  double timeout_seconds = 0.0;  // 0 = no deadline
  int max_retries = 0;
  double backoff_base_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double jitter_fraction = 0.2;
};

class Server {
 public:
  Server(sim::Engine& engine, ServerConfig config, int depth, Rng rng);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Installs the server's out-edges (none = leaf). Call once, before the
  /// first visit. Edges with pool_capacity > 0 get a per-server connection
  /// pool; the managed edge's pool (at most one) is what connection_pool()
  /// and set_downstream_connections operate on.
  void set_out_edges(const std::vector<OutEdge>& edges);

  /// Processes one visit; `done(ok)` fires at visit completion (ok=false if
  /// rejected here or anywhere downstream — a failed sub-request fails the
  /// whole visit).
  void process(const RequestPtr& request, DoneFn done);

  // --- soft-resource actuation (APP-agent) ---
  void set_thread_pool_size(int size);
  void set_downstream_connections(int size);

  /// Deadline/retry discipline for inter-tier sub-requests on every edge
  /// (resilience mechanism; the tier propagates one policy to all servers).
  void set_subrequest_retry(SubRequestRetryPolicy policy) { retry_ = policy; }
  const SubRequestRetryPolicy& subrequest_retry() const { return retry_; }
  uint64_t subrequest_timeouts() const { return subrequest_timeouts_; }
  uint64_t subrequest_retries() const { return subrequest_retries_; }

  /// Passive health tracking: the listener (non-owning; nullptr, the
  /// default, = none) hears report_result(this, ok) right before every
  /// done(ok) — on rejection, on completion and for each visit a crash
  /// fails. The tier installs its balancer on every server when health
  /// checks are enabled, so visit outcomes feed it without a per-visit
  /// wrapper around `done`.
  void set_result_listener(LoadBalancer* listener) { result_listener_ = listener; }

  /// Failure injection: abrupt crash. Every in-flight and queued visit
  /// fails (done(false) fires for each), pools are force-freed, and CPU
  /// work is dropped. Responses from downstream calls that were pending at
  /// crash time are ignored when they arrive. The server object remains
  /// usable (a restarted process) — callers decide whether to re-register
  /// it with a balancer.
  void crash();
  bool crashed_since_start() const { return epoch_ > 0; }

  /// Dead-process switch: an offline server refuses every visit immediately
  /// (done(false), counted as rejected). `Vm::fail()` flips this so a
  /// silently-crashed VM left in a balancer fails requests fast instead of
  /// serving them — health checks and retries are what recover from it.
  void set_online(bool online) { online_ = online; }
  bool online() const { return online_; }

  // --- observability ---
  const std::string& name() const { return config_.name; }
  int depth() const { return depth_; }
  int in_flight() const { return workers_.in_use(); }
  int queue_length() const { return workers_.queue_length(); }
  int thread_pool_size() const { return workers_.capacity(); }
  int downstream_connection_limit() const {
    return managed_pool_ ? managed_pool_->capacity() : 0;
  }
  int downstream_connections_in_use() const {
    return managed_pool_ ? managed_pool_->in_use() : 0;
  }

  uint64_t completed() const { return completed_; }
  uint64_t rejected() const { return rejected_; }
  /// Sum of visit response times (seconds) — arrival to completion.
  double response_time_sum() const { return response_time_sum_; }
  /// ∫ busy-workers dt — time-weighted concurrency.
  double concurrency_integral() const { return workers_.in_use_integral(); }
  /// ∫ CPU-utilisation dt.
  double cpu_util_integral() const { return cpu_.util_integral(); }

  const SlotPool& worker_pool() const { return workers_; }
  /// The managed out-edge's pool (what set_downstream_connections resizes),
  /// or nullptr when the server has none.
  const SlotPool* connection_pool() const { return managed_pool_; }
  const CpuScheduler& cpu() const { return cpu_; }

  /// Fault injection: scales this server's CPU capacity (1.0 = healthy,
  /// 0.25 = a VM degraded to a quarter of its speed).
  void set_cpu_capacity_factor(double factor);

  /// Invoked whenever in_flight returns to zero (used by draining VMs).
  void set_idle_callback(std::function<void()> cb) { idle_callback_ = std::move(cb); }

 private:
  /// Generation-counted free-list slab. A Handle is an 8-byte ticket that
  /// goes stale (get returns nullptr) once its slot is freed or re-keyed.
  template <typename T>
  class Slab {
   public:
    struct Handle {
      uint32_t index = 0;
      uint32_t gen = 0;
    };

    Handle alloc() {
      uint32_t idx = free_head_;
      if (idx != kNil) {
        free_head_ = slots_[idx].next_free;
      } else {
        idx = static_cast<uint32_t>(slots_.size());
        slots_.emplace_back();
      }
      slots_[idx].live = true;
      return {idx, slots_[idx].gen};
    }
    /// Resets the slot's value and makes every outstanding handle stale.
    void free(Handle h) {
      Slot& slot = slots_[h.index];
      slot.live = false;
      ++slot.gen;
      slot.value = T{};
      slot.next_free = free_head_;
      free_head_ = h.index;
    }
    /// Keeps the slot live but makes every outstanding copy of `h` stale.
    Handle rekey(Handle h) { return {h.index, ++slots_[h.index].gen}; }
    /// nullptr if `h` is stale. Invalidated by alloc (slab growth) —
    /// refetch after any call that can start new work on this server.
    T* get(Handle h) {
      Slot& slot = slots_[h.index];
      return (slot.live && slot.gen == h.gen) ? &slot.value : nullptr;
    }

    uint32_t size() const { return static_cast<uint32_t>(slots_.size()); }
    /// The live value at `index`, or nullptr.
    T* at(uint32_t index) { return slots_[index].live ? &slots_[index].value : nullptr; }
    Handle handle(uint32_t index) const { return {index, slots_[index].gen}; }

   private:
    static constexpr uint32_t kNil = 0xffffffffu;
    struct Slot {
      T value;
      uint32_t gen = 0;
      uint32_t next_free = kNil;
      bool live = false;
    };
    std::vector<Slot> slots_;
    uint32_t free_head_ = kNil;
  };

  struct VisitState {
    uint64_t visit_id = 0;
    RequestPtr request;
    DoneFn done;
    sim::SimTime arrived = 0;
    double demand = 0.0;  // sampled total CPU demand for this visit
    bool holds_worker = false;
    // Join over the visit's edge calls.
    int pending_edges = 0;
    bool edge_failed = false;
    // Tracing scratch (written only when request->trace is non-null; CPU
    // phases are strictly sequential, so one slot suffices).
    sim::SimTime cpu_submitted = 0;
    double cpu_work = 0.0;
  };
  using VisitHandle = Slab<VisitState>::Handle;

  /// The calls one visit makes along one out-edge: issued one at a time,
  /// each attempt settled by exactly one of {response, deadline}. The slot
  /// lives from the edge's first call to its settlement (or, after a crash,
  /// until its last pending continuation finds the visit gone).
  struct CallState {
    VisitHandle visit;
    int edge = 0;   // index into edges_
    int calls = 0;  // calls this visit makes along the edge
    int index = 0;  // current call
    int attempt = 0;
    bool conn_held = false;
    bool awaiting_conn = false;  // queued on the edge pool
    sim::EventHandle timeout;
    // Tracing scratch.
    sim::SimTime conn_requested = 0;
    sim::SimTime started = 0;
  };
  using CallHandle = Slab<CallState>::Handle;

  struct Edge {
    Tier* target = nullptr;
    int edge_id = 0;
    std::unique_ptr<SlotPool> pool;
  };

  int planned_calls(const RequestContext& request, const Edge& edge) const;
  void on_worker_granted(VisitHandle h);
  void start_visit(VisitHandle h);
  void on_cpu_done_finish(VisitHandle h);  // CPU-only / post phase done
  void on_cpu_done_pre(VisitHandle h);     // pre phase done: issue edge calls
  void start_call(CallHandle ch, CallState& c, const VisitState& v);
  void on_conn_granted(CallHandle ch);
  void dispatch_call(CallHandle ch, CallState& c, const VisitState& v);
  void on_call_response(CallHandle ch, bool ok);
  void on_call_timeout(CallHandle ch);
  void on_backoff_done(CallHandle ch);
  /// The call's visit, or nullptr after freeing the call (the server
  /// crashed while the call was pending).
  VisitState* live_visit_or_free(CallHandle ch, const CallState& c);
  void on_call_result(CallHandle ch, CallState& c, VisitState& v, bool ok);
  void settle_edge(VisitHandle h, bool ok);
  void finish_visit(VisitHandle h, bool ok);
  void report_result(bool ok);
  void begin_cpu_span(VisitState& visit, double work);
  void end_cpu_span(VisitState& visit);
  void sync_thread_count();

  sim::Engine* engine_;
  ServerConfig config_;
  int depth_;
  Rng rng_;
  // Precomputed lognormal(1.0, demand_cv) parameters (see constructor).
  double demand_ln_mu_ = 0.0;
  double demand_ln_sigma_ = 0.0;

  SlotPool workers_;
  CpuScheduler cpu_;
  std::vector<Edge> edges_;
  SlotPool* managed_pool_ = nullptr;  // the managed edge's pool
  SubRequestRetryPolicy retry_;

  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t subrequest_timeouts_ = 0;
  uint64_t subrequest_retries_ = 0;
  double response_time_sum_ = 0.0;
  bool online_ = true;
  LoadBalancer* result_listener_ = nullptr;
  std::function<void()> idle_callback_;

  uint64_t epoch_ = 0;  // crash count (crashed_since_start)
  uint64_t next_visit_id_ = 0;

  Slab<VisitState> visits_;
  Slab<CallState> calls_;
  std::vector<std::pair<uint64_t, uint32_t>> crash_scratch_;  // (visit_id, slot)
};

}  // namespace dcm::ntier
