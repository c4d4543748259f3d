#include "workload/closed_loop.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "trace/tracer.h"

namespace dcm::workload {

RequestFactory graph_request_factory(const ServletCatalog& catalog,
                                     const ntier::ServiceGraph& graph) {
  struct EdgePlan {
    int fixed_calls = 0;
    bool servlet_calls = false;
  };
  std::vector<ntier::NodeRole> roles;
  roles.reserve(graph.node_count());
  for (size_t i = 0; i < graph.node_count(); ++i) roles.push_back(graph.node(i).role);
  std::vector<EdgePlan> edges;
  edges.reserve(graph.edge_count());
  for (size_t i = 0; i < graph.edge_count(); ++i) {
    edges.push_back({graph.edge(i).fixed_calls, graph.edge(i).servlet_calls});
  }
  return [&catalog, roles = std::move(roles), edges = std::move(edges)](
             sim::Arena* arena, uint64_t id, Rng& rng, sim::SimTime now) {
    // Exactly one weighted draw per request: the plan never shifts any
    // random stream, whatever the topology.
    const size_t servlet_index = catalog.sample(rng);
    const Servlet& s = catalog.servlet(servlet_index);
    auto req = ntier::make_request_context(arena);
    req->id = id;
    req->servlet = static_cast<int>(servlet_index);
    req->created = now;
    for (const ntier::NodeRole role : roles) {
      double scale = 1.0;
      switch (role) {
        case ntier::NodeRole::kWeb: scale = s.web_scale; break;
        case ntier::NodeRole::kApp: scale = s.app_scale; break;
        case ntier::NodeRole::kDb: scale = s.db_scale; break;
        case ntier::NodeRole::kLb:
        case ntier::NodeRole::kCache: scale = 1.0; break;
      }
      req->demand_scale.push_back(scale);
    }
    for (const EdgePlan& e : edges) {
      req->downstream_calls.push_back(e.servlet_calls ? s.db_queries : e.fixed_calls);
    }
    return req;
  };
}

ClosedLoopGenerator::ClosedLoopGenerator(sim::Engine& engine, ntier::NTierApp& app,
                                         RequestFactory factory, ClosedLoopConfig config)
    : engine_(&engine),
      app_(&app),
      factory_(std::move(factory)),
      think_time_(std::move(config.think_time)),
      start_stagger_(config.start_stagger),
      rng_(config.seed),
      target_users_(config.users) {
  DCM_CHECK(config.users >= 0);
  DCM_CHECK(start_stagger_ >= 0);
  DCM_CHECK(factory_ != nullptr);
}

void ClosedLoopGenerator::start() {
  if (running_) return;
  running_ = true;
  while (live_users_ < target_users_) spawn_user(rng_.uniform_int(0, start_stagger_));
}

void ClosedLoopGenerator::stop() { running_ = false; }

void ClosedLoopGenerator::set_user_count(int users) {
  DCM_CHECK(users >= 0);
  target_users_ = users;
  if (!running_) return;
  // Deficit: spawn staggered newcomers. Excess: loops park themselves at
  // their next cycle boundary (see user_cycle).
  while (live_users_ < target_users_) spawn_user(rng_.uniform_int(0, start_stagger_));
}

void ClosedLoopGenerator::spawn_user(sim::SimTime initial_delay) {
  // A newcomer takes a parked user's slot when there is one, so users_ stays
  // bounded by the peak live population however long the run ramps.
  int user_index;
  if (free_users_.empty()) {
    user_index = static_cast<int>(users_.size());
    users_.emplace_back();
  } else {
    user_index = free_users_.back();
    free_users_.pop_back();
  }
  ++live_users_;
  engine_->schedule_after(initial_delay, [this, user_index] { user_cycle(user_index); });
}

void ClosedLoopGenerator::user_cycle(int user_index, double prior_think) {
  if (!running_ || live_users_ > target_users_) {
    --live_users_;
    free_users_.push_back(user_index);
    return;
  }
  const sim::SimTime issued = engine_->now();
  auto request = factory_(&engine_->arena(), app_->next_request_id(), rng_, issued);
  if (tracer_ != nullptr) {
    request->trace = tracer_->maybe_sample(request->id, request->servlet, issued);
    if (request->trace != nullptr && prior_think > 0.0) {
      request->trace->add_span(trace::SpanKind::kThink, trace::kClientTier,
                               issued - sim::from_seconds(prior_think), issued,
                               prior_think);
    }
  }
  UserSlot& slot = users_[static_cast<size_t>(user_index)];
  slot.first_issued = issued;
  slot.servlet = request->servlet;
  slot.attempt = 0;
  slot.request = std::move(request);
  issue_attempt(user_index);
}

void ClosedLoopGenerator::issue_attempt(int user_index) {
  UserSlot& slot = users_[static_cast<size_t>(user_index)];
  const uint32_t generation = ++slot.generation;
  slot.settled = false;
  if (trace::TraceContext* tr = slot.request->trace.get()) tr->attempts = slot.attempt + 1;
  app_->submit(slot.request, [this, user_index, generation](bool ok) {
    on_response(user_index, generation, ok);
  });
  // The submit can settle the attempt synchronously (the front tier has no
  // server in service) — arm the deadline only if it is still pending. No
  // user is spawned inside submit, so `slot` is still valid here.
  if (retry_.timeout_seconds <= 0.0 || slot.settled) return;
  slot.deadline = engine_->schedule_after(
      sim::from_seconds(retry_.timeout_seconds),
      [this, user_index, generation] { on_deadline(user_index, generation); });
}

void ClosedLoopGenerator::on_response(int user_index, uint32_t generation, bool ok) {
  UserSlot& slot = users_[static_cast<size_t>(user_index)];
  // Deadline already expired, or a later attempt (or user) owns the slot:
  // drop the late response.
  if (slot.generation != generation || slot.settled) return;
  slot.settled = true;
  slot.deadline.cancel();
  if (!ok) {
    on_attempt_failed(user_index);
    return;
  }
  const sim::SimTime now = engine_->now();
  stats_.record_completion(now, sim::to_seconds(now - slot.first_issued), slot.servlet);
  if (trace::TraceContext* tr = slot.request->trace.get()) tr->finalize(now, true);
  finish_cycle(user_index);
}

void ClosedLoopGenerator::on_deadline(int user_index, uint32_t generation) {
  UserSlot& slot = users_[static_cast<size_t>(user_index)];
  if (slot.generation != generation || slot.settled) return;  // response won the race
  slot.settled = true;
  const sim::SimTime now = engine_->now();
  stats_.record_timeout(now);
  if (trace::TraceContext* tr = slot.request->trace.get()) {
    tr->add_span(trace::SpanKind::kTimeoutWait, trace::kClientTier,
                 now - sim::from_seconds(retry_.timeout_seconds), now);
  }
  on_attempt_failed(user_index);
}

void ClosedLoopGenerator::on_attempt_failed(int user_index) {
  UserSlot& slot = users_[static_cast<size_t>(user_index)];
  trace::TraceContext* tr = slot.request->trace.get();
  if (slot.attempt < retry_.max_retries) {
    stats_.record_retry();
    const double base =
        retry_.backoff_base_seconds * std::pow(retry_.backoff_multiplier, slot.attempt);
    const double jitter =
        retry_.jitter_fraction > 0.0
            ? 1.0 + retry_.jitter_fraction * (2.0 * rng_.next_double() - 1.0)
            : 1.0;
    const double delay = std::max(0.0, base * jitter);
    if (tr != nullptr) {
      tr->add_span(trace::SpanKind::kBackoff, trace::kClientTier, engine_->now(),
                   engine_->now() + sim::from_seconds(delay));
    }
    ++slot.attempt;
    // The slot stays settled through the backoff, so nothing but this
    // continuation can touch it before the re-issue.
    engine_->schedule_after(sim::from_seconds(delay),
                            [this, user_index] { issue_attempt(user_index); });
    return;
  }
  stats_.record_error(engine_->now());
  if (tr != nullptr) tr->finalize(engine_->now(), false);
  finish_cycle(user_index);
}

void ClosedLoopGenerator::finish_cycle(int user_index) {
  // Drop the request as the cycle ends: a thinking user pins no request
  // memory.
  users_[static_cast<size_t>(user_index)].request.reset();
  const double think = think_time_ ? think_time_->sample(rng_) : 0.0;
  // Always reschedule through the engine — a zero think time must not
  // recurse synchronously.
  engine_->schedule_after(sim::from_seconds(think),
                          [this, user_index, think] { user_cycle(user_index, think); });
}

std::unique_ptr<ClosedLoopGenerator> make_jmeter(sim::Engine& engine, ntier::NTierApp& app,
                                                 const ServletCatalog& catalog, int users,
                                                 uint64_t seed) {
  ClosedLoopConfig config;
  config.users = users;
  config.think_time = nullptr;
  config.seed = seed;
  return std::make_unique<ClosedLoopGenerator>(
      engine, app, graph_request_factory(catalog, *app.graph()), std::move(config));
}

std::unique_ptr<ClosedLoopGenerator> make_jmeter(sim::Engine& engine, ntier::NTierApp& app,
                                                 RequestFactory factory, int users,
                                                 uint64_t seed) {
  ClosedLoopConfig config;
  config.users = users;
  config.think_time = nullptr;
  config.seed = seed;
  return std::make_unique<ClosedLoopGenerator>(engine, app, std::move(factory),
                                               std::move(config));
}

std::unique_ptr<ClosedLoopGenerator> make_rubbos_clients(sim::Engine& engine,
                                                         ntier::NTierApp& app,
                                                         const ServletCatalog& catalog, int users,
                                                         double mean_think_seconds,
                                                         uint64_t seed) {
  ClosedLoopConfig config;
  config.users = users;
  config.think_time = sim::make_exponential(mean_think_seconds);
  config.seed = seed;
  return std::make_unique<ClosedLoopGenerator>(
      engine, app, graph_request_factory(catalog, *app.graph()), std::move(config));
}

std::unique_ptr<ClosedLoopGenerator> make_rubbos_clients(sim::Engine& engine,
                                                         ntier::NTierApp& app,
                                                         RequestFactory factory, int users,
                                                         double mean_think_seconds,
                                                         uint64_t seed) {
  ClosedLoopConfig config;
  config.users = users;
  config.think_time = sim::make_exponential(mean_think_seconds);
  config.seed = seed;
  return std::make_unique<ClosedLoopGenerator>(engine, app, std::move(factory),
                                               std::move(config));
}

}  // namespace dcm::workload
