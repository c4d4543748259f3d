// Closed-loop workload generators.
//
// Both of the paper's generators are closed loops over emulated users:
//   * JMeter training mode — zero think time, so the number of users *is*
//     the request-processing concurrency offered to the system (Sec. V-A).
//   * RUBBoS client mode — ~3 s mean think time between consecutive
//     requests of the same user (Sec. II-A).
// make_jmeter()/make_rubbos_clients() build the two against a servlet
// catalog, planning each request over the app's service graph; a custom
// RequestFactory supports instrumented or non-standard request plans. The user
// count can be changed at runtime (set_user_count), which is what the trace
// player uses to emulate the revised RUBBoS client.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ntier/app.h"
#include "sim/distributions.h"
#include "workload/client_stats.h"
#include "workload/servlet.h"

namespace dcm::trace {
class Tracer;
}

namespace dcm::workload {

/// Builds the next request a user issues. `arena` is the owning engine's
/// run-scoped arena (never null from the generators); factories should pass
/// it to make_request_context so per-request storage recycles instead of
/// hitting the global heap.
using RequestFactory = std::function<ntier::RequestPtr(sim::Arena* arena, uint64_t id,
                                                       Rng& rng, sim::SimTime now)>;

/// Factory deriving each request's plan from a service graph: one weighted
/// servlet draw, then per-node demand scales assigned by node role
/// (web/app/db map to the servlet's per-tier scales, lb/cache nodes are 1.0)
/// and per-edge call counts from the edge spec (fixed, or the sampled
/// servlet's query count for servlet-calls edges). The catalog must outlive
/// the factory; the graph is copied into it.
RequestFactory graph_request_factory(const ServletCatalog& catalog,
                                     const ntier::ServiceGraph& graph);

/// Client-side deadline + bounded retry (resilience mechanism). Disabled by
/// default, the degenerate case of the one attempt path: no deadline is
/// armed and a failure ends the cycle, so no extra events or rng draws.
/// Backoff before re-issue k→k+1 is
/// backoff_base · multiplier^k, jittered ±jitter_fraction from the
/// generator's own deterministic rng stream. Response time is measured from
/// the first issue to the final success (what the user experienced).
struct RetryPolicy {
  double timeout_seconds = 0.0;  // 0 = no deadline
  int max_retries = 0;
  double backoff_base_seconds = 0.5;
  double backoff_multiplier = 2.0;
  double jitter_fraction = 0.2;

  bool enabled() const { return timeout_seconds > 0.0 || max_retries > 0; }
};

struct ClosedLoopConfig {
  int users = 1;
  /// Think time between a user's consecutive requests; nullptr = zero.
  std::unique_ptr<sim::Distribution> think_time;
  /// New users start staggered uniformly over this span (avoids an
  /// artificial synchronised burst when ramping).
  sim::SimTime start_stagger = sim::kNanosPerSecond;
  uint64_t seed = 42;
};

class ClosedLoopGenerator {
 public:
  ClosedLoopGenerator(sim::Engine& engine, ntier::NTierApp& app, RequestFactory factory,
                      ClosedLoopConfig config);

  ClosedLoopGenerator(const ClosedLoopGenerator&) = delete;
  ClosedLoopGenerator& operator=(const ClosedLoopGenerator&) = delete;

  /// Begins issuing requests. Idempotent.
  void start();
  /// Parks all users after their in-flight request completes.
  void stop();

  /// Ramp the emulated user population up or down at runtime.
  void set_user_count(int users);
  int user_count() const { return target_users_; }
  int live_users() const { return live_users_; }

  /// Deadline/retry discipline applied to every request. Set before start().
  void set_retry_policy(RetryPolicy policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Head-samples new requests through `tracer` (nullptr = tracing off, the
  /// default — the generator then issues byte-for-byte the same event
  /// sequence as before). Set before start().
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  ClientStats& stats() { return stats_; }
  const ClientStats& stats() const { return stats_; }

  /// Slots allocated so far: bounded by the peak number of live users, since
  /// a parked user's slot is recycled for the next user spawned.
  size_t user_slot_count() const { return users_.size(); }

 private:
  void spawn_user(sim::SimTime initial_delay);
  /// `prior_think` is the think-time (seconds) the user just finished, so a
  /// newly sampled trace can record it as a leading kThink span; < 0 means
  /// "first request, no preceding think".
  void user_cycle(int user_index, double prior_think = -1.0);
  void issue_attempt(int user_index);
  void on_response(int user_index, uint32_t generation, bool ok);
  void on_deadline(int user_index, uint32_t generation);
  void on_attempt_failed(int user_index);
  void finish_cycle(int user_index);

  /// One user's in-flight request, across all of its attempts. Keeping it
  /// here instead of in the continuations shrinks the response and deadline
  /// callbacks to [this, user_index, generation] and the backoff to
  /// [this, user_index] — inside std::function's and EventFn's inline
  /// buffers — so issuing,
  /// timing out and retrying a request perform no heap allocation. Each
  /// attempt bumps `generation`, and a continuation carrying an older one
  /// is a no-op: exactly one of {response, deadline} settles an attempt,
  /// and a late response never reaches a later attempt or a later user of
  /// the recycled slot (the generation is never reset).
  struct UserSlot {
    ntier::RequestPtr request;  // null between cycles
    sim::SimTime first_issued = 0;
    sim::EventHandle deadline;
    uint32_t generation = 0;
    int servlet = -1;
    int attempt = 0;
    bool settled = true;
  };

  sim::Engine* engine_;
  ntier::NTierApp* app_;
  RequestFactory factory_;
  std::unique_ptr<sim::Distribution> think_time_;
  sim::SimTime start_stagger_;
  Rng rng_;
  RetryPolicy retry_;
  trace::Tracer* tracer_ = nullptr;

  bool running_ = false;
  int target_users_ = 0;
  int live_users_ = 0;  // users currently looping (in-flight or thinking)
  std::vector<UserSlot> users_;
  std::vector<int> free_users_;  // slots of parked users, reused by spawn_user
  ClientStats stats_;
};

/// Zero-think-time generator: `users` == offered concurrency. Requests are
/// planned over the app's service graph (graph_request_factory).
std::unique_ptr<ClosedLoopGenerator> make_jmeter(sim::Engine& engine, ntier::NTierApp& app,
                                                 const ServletCatalog& catalog, int users,
                                                 uint64_t seed = 42);

/// Zero-think-time generator over a custom request factory (e.g. the
/// graph_request_factory of a non-chain topology).
std::unique_ptr<ClosedLoopGenerator> make_jmeter(sim::Engine& engine, ntier::NTierApp& app,
                                                 RequestFactory factory, int users,
                                                 uint64_t seed = 42);

/// Realistic RUBBoS clients with exponential think time (default mean 3 s),
/// planned over the app's service graph like make_jmeter.
std::unique_ptr<ClosedLoopGenerator> make_rubbos_clients(sim::Engine& engine,
                                                         ntier::NTierApp& app,
                                                         const ServletCatalog& catalog, int users,
                                                         double mean_think_seconds = 3.0,
                                                         uint64_t seed = 42);

/// RUBBoS clients over a custom request factory.
std::unique_ptr<ClosedLoopGenerator> make_rubbos_clients(sim::Engine& engine,
                                                         ntier::NTierApp& app,
                                                         RequestFactory factory, int users,
                                                         double mean_think_seconds = 3.0,
                                                         uint64_t seed = 42);

}  // namespace dcm::workload
