#include "ntier/server.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "ntier/tier.h"

namespace dcm::ntier {

Server::Server(sim::Engine& engine, ServerConfig config, int depth, Rng rng)
    : engine_(&engine),
      config_(std::move(config)),
      depth_(depth),
      rng_(rng),
      workers_(engine, config_.name, ".workers", config_.max_threads),
      cpu_(engine, config_.cpu) {
  DCM_CHECK(depth_ >= 0);
  DCM_CHECK(config_.pre_fraction >= 0.0 && config_.pre_fraction <= 1.0);
  if (config_.demand_cv > 0.0) {
    // Hoisted lognormal_mean_cv(1.0, cv) constants: same formulas, computed
    // once — per-visit draws keep only the Box–Muller normal and the exp.
    const double sigma2 = std::log(1.0 + config_.demand_cv * config_.demand_cv);
    demand_ln_mu_ = -0.5 * sigma2;  // log(mean)=log(1)=0 exactly
    demand_ln_sigma_ = std::sqrt(sigma2);
  }
}

void Server::set_out_edges(const std::vector<OutEdge>& edges) {
  DCM_CHECK_MSG(edges_.empty(), "out-edges already installed");
  DCM_CHECK_MSG(edges.size() <= kMaxFanOut, "more than kMaxFanOut out-edges");
  edges_.reserve(edges.size());
  for (const auto& spec : edges) {
    DCM_CHECK(spec.target != nullptr);
    DCM_CHECK(spec.edge_id >= 0);
    Edge e;
    e.target = spec.target;
    e.edge_id = spec.edge_id;
    if (spec.pool_capacity > 0) {
      // Lazily named: no string work on the VM-launch path.
      e.pool = std::make_unique<SlotPool>(*engine_, config_.name, ".conns", spec.pool_capacity);
    }
    if (spec.managed) {
      DCM_CHECK_MSG(e.pool != nullptr, "managed out-edge needs a connection pool");
      DCM_CHECK_MSG(managed_pool_ == nullptr, "at most one managed out-edge");
      managed_pool_ = e.pool.get();
    }
    edges_.push_back(std::move(e));
  }
}

// --- request path ----------------------------------------------------------

void Server::sync_thread_count() { cpu_.set_thread_count(workers_.in_use()); }

int Server::planned_calls(const RequestContext& request, const Edge& edge) const {
  const auto id = static_cast<size_t>(edge.edge_id);
  return request.downstream_calls.size() > id ? request.downstream_calls[id] : 0;
}

void Server::process(const RequestPtr& request, DoneFn done) {
  DCM_CHECK(request != nullptr);
  if (!online_ || workers_.queue_length() >= config_.max_queue) {
    ++rejected_;
    report_result(false);
    done(false);
    return;
  }
  const VisitHandle h = visits_.alloc();
  VisitState& v = *visits_.get(h);
  v.visit_id = next_visit_id_++;
  v.request = request;
  v.done = std::move(done);
  v.arrived = engine_->now();
  workers_.acquire([this, h] { on_worker_granted(h); });
}

void Server::on_worker_granted(VisitHandle h) {
  VisitState* v = visits_.get(h);
  if (v == nullptr) return;  // crashed while queued
  if (trace::TraceContext* tr = v->request->trace.get()) {
    tr->add_span(trace::SpanKind::kPoolWait, depth_, v->arrived, engine_->now());
  }
  v->holds_worker = true;
  // start_visit reports the new busy-worker count fused with its CPU submit
  // (one advance/refresh/reschedule instead of two — same end state).
  start_visit(h);
}

void Server::begin_cpu_span(VisitState& visit, double work) {
  if (visit.request->trace == nullptr) return;
  visit.cpu_submitted = engine_->now();
  visit.cpu_work = work;
}

void Server::end_cpu_span(VisitState& visit) {
  trace::TraceContext* tr = visit.request->trace.get();
  if (tr == nullptr) return;
  const sim::SimTime now = engine_->now();
  const sim::SimTime nominal_end =
      std::min(now, visit.cpu_submitted + sim::from_seconds(visit.cpu_work));
  tr->add_span(trace::SpanKind::kService, depth_, visit.cpu_submitted, nominal_end,
               visit.cpu_work);
  // Anything past the nominal demand is run-queue wait / multithreading
  // inflation — the S*(N) − S0 share of the visit.
  if (now > nominal_end) tr->add_span(trace::SpanKind::kCpuWait, depth_, nominal_end, now);
}

void Server::start_visit(VisitHandle h) {
  VisitState* v = visits_.get(h);
  const auto& req = *v->request;
  const double scale =
      req.demand_scale.size() > static_cast<size_t>(depth_)
          ? req.demand_scale[static_cast<size_t>(depth_)]
          : 1.0;
  const double variability =
      config_.demand_cv > 0.0 ? rng_.lognormal(demand_ln_mu_, demand_ln_sigma_) : 1.0;
  v->demand = config_.cpu.params.s0 * scale * variability;

  const int busy_workers = workers_.in_use();
  const bool calls_downstream = std::any_of(
      edges_.begin(), edges_.end(), [&](const Edge& e) { return planned_calls(req, e) > 0; });
  if (!calls_downstream) {
    begin_cpu_span(*v, v->demand);
    cpu_.submit_with_thread_count(busy_workers, v->demand, [this, h] { on_cpu_done_finish(h); });
    return;
  }
  const double pre = v->demand * config_.pre_fraction;
  begin_cpu_span(*v, pre);
  cpu_.submit_with_thread_count(busy_workers, pre, [this, h] { on_cpu_done_pre(h); });
}

void Server::on_cpu_done_finish(VisitHandle h) {
  VisitState* v = visits_.get(h);
  if (v == nullptr) return;  // crash dropped this visit (and its CPU job)
  end_cpu_span(*v);
  finish_visit(h, true);
}

void Server::on_cpu_done_pre(VisitHandle h) {
  VisitState* v = visits_.get(h);
  if (v == nullptr) return;
  end_cpu_span(*v);
  int pending = 0;
  for (const Edge& e : edges_) {
    if (planned_calls(*v->request, e) > 0) ++pending;
  }
  v->pending_edges = pending;
  // Count first, then issue: an edge that settles synchronously (downstream
  // rejects) decrements the full count and can never fire the join before
  // the remaining edges have been issued.
  for (size_t i = 0; i < edges_.size(); ++i) {
    v = visits_.get(h);
    if (v == nullptr) return;
    const int calls = planned_calls(*v->request, edges_[i]);
    if (calls == 0) continue;
    const CallHandle ch = calls_.alloc();
    CallState& c = *calls_.get(ch);
    c.visit = h;
    c.edge = static_cast<int>(i);
    c.calls = calls;
    start_call(ch, c, *v);
  }
}

// --- edge calls --------------------------------------------------------------
//
// The CallState/VisitState references these functions take are valid only
// until the next pool release or downstream dispatch: either can start work
// that grows a slab, so a handler refetches through its handles after one.

void Server::start_call(CallHandle ch, CallState& c, const VisitState& v) {
  c.attempt = 0;
  c.conn_requested = engine_->now();
  SlotPool* pool = edges_[static_cast<size_t>(c.edge)].pool.get();
  if (pool == nullptr) {
    dispatch_call(ch, c, v);
    return;
  }
  c.awaiting_conn = true;
  pool->acquire([this, ch] { on_conn_granted(ch); });
}

void Server::on_conn_granted(CallHandle ch) {
  CallState& c = *calls_.get(ch);
  const VisitState& v = *visits_.get(c.visit);
  c.awaiting_conn = false;
  c.conn_held = true;
  if (trace::TraceContext* tr = v.request->trace.get()) {
    tr->add_edge_span(trace::SpanKind::kConnWait, depth_,
                      edges_[static_cast<size_t>(c.edge)].edge_id, c.conn_requested,
                      engine_->now());
  }
  dispatch_call(ch, c, v);
}

void Server::dispatch_call(CallHandle ch, CallState& c, const VisitState& v) {
  c.started = engine_->now();
  edges_[static_cast<size_t>(c.edge)].target->dispatch(
      v.request, [this, ch](bool ok) { on_call_response(ch, ok); });
  // The dispatch can settle the attempt synchronously (downstream rejects),
  // which re-keys the call — arm the deadline only if it is still pending.
  if (retry_.timeout_seconds <= 0.0) return;
  if (CallState* armed = calls_.get(ch)) {
    armed->timeout = engine_->schedule_after(sim::from_seconds(retry_.timeout_seconds),
                                             [this, ch] { on_call_timeout(ch); });
  }
}

Server::VisitState* Server::live_visit_or_free(CallHandle ch, const CallState& c) {
  VisitState* v = visits_.get(c.visit);
  if (v == nullptr) calls_.free(ch);
  return v;
}

void Server::on_call_response(CallHandle ch, bool ok) {
  CallState* c = calls_.get(ch);
  if (c == nullptr) return;  // deadline already expired; drop the late response
  c->timeout.cancel();
  ch = calls_.rekey(ch);
  VisitState* v = live_visit_or_free(ch, *c);
  if (v == nullptr) return;  // server crashed while the call was in flight
  if (trace::TraceContext* tr = v->request->trace.get()) {
    tr->add_edge_span(trace::SpanKind::kDownstream, depth_,
                      edges_[static_cast<size_t>(c->edge)].edge_id, c->started, engine_->now());
  }
  on_call_result(ch, *c, *v, ok);
}

void Server::on_call_timeout(CallHandle ch) {
  CallState* c = calls_.get(ch);
  if (c == nullptr) return;  // response won the race
  ch = calls_.rekey(ch);     // the late response will find a stale handle
  VisitState* v = live_visit_or_free(ch, *c);
  if (v == nullptr) return;
  ++subrequest_timeouts_;
  if (trace::TraceContext* tr = v->request->trace.get()) {
    tr->add_edge_span(trace::SpanKind::kTimeoutWait, depth_,
                      edges_[static_cast<size_t>(c->edge)].edge_id, c->started, engine_->now());
  }
  on_call_result(ch, *c, *v, false);
}

void Server::on_backoff_done(CallHandle ch) {
  CallState& c = *calls_.get(ch);
  if (const VisitState* v = live_visit_or_free(ch, c)) dispatch_call(ch, c, *v);
}

void Server::on_call_result(CallHandle ch, CallState& c, VisitState& v, bool ok) {
  if (!ok && c.attempt < retry_.max_retries) {
    ++subrequest_retries_;
    // Exponential backoff with deterministic jitter; the connection stays
    // held across attempts (a blocked app thread keeps its pool slot).
    const double base =
        retry_.backoff_base_seconds * std::pow(retry_.backoff_multiplier, c.attempt);
    const double jitter =
        retry_.jitter_fraction > 0.0
            ? 1.0 + retry_.jitter_fraction * (2.0 * rng_.next_double() - 1.0)
            : 1.0;
    const double delay = std::max(0.0, base * jitter);
    if (trace::TraceContext* tr = v.request->trace.get()) {
      tr->add_span(trace::SpanKind::kBackoff, depth_, engine_->now(),
                   engine_->now() + sim::from_seconds(delay));
    }
    ++c.attempt;
    engine_->schedule_after(sim::from_seconds(delay), [this, ch] { on_backoff_done(ch); });
    return;
  }
  CallState* call = &c;
  const VisitState* visit = &v;
  if (call->conn_held) {
    call->conn_held = false;
    edges_[static_cast<size_t>(call->edge)].pool->release();
    call = calls_.get(ch);
    visit = visits_.get(call->visit);
  }
  if (ok && ++call->index < call->calls) {
    start_call(ch, *call, *visit);
    return;
  }
  const VisitHandle h = call->visit;
  calls_.free(ch);
  settle_edge(h, ok);
}

void Server::settle_edge(VisitHandle h, bool ok) {
  VisitState* v = visits_.get(h);
  if (v == nullptr) return;
  if (!ok) v->edge_failed = true;
  if (--v->pending_edges > 0) return;
  // Join: every edge settled. Fail-fast semantics resolved here so a failed
  // edge still waits for its siblings (their workers/pools drain normally)
  // before the visit fails.
  if (v->edge_failed) {
    finish_visit(h, false);
    return;
  }
  const double post = v->demand * (1.0 - config_.pre_fraction);
  begin_cpu_span(*v, post);
  cpu_.submit(post, [this, h] { on_cpu_done_finish(h); });
}

void Server::finish_visit(VisitHandle h, bool ok) {
  VisitState* v = visits_.get(h);
  if (v == nullptr) return;
  if (ok) {
    ++completed_;
    response_time_sum_ += sim::to_seconds(engine_->now() - v->arrived);
  } else {
    ++rejected_;
  }
  DoneFn done = std::move(v->done);
  const bool held_worker = v->holds_worker;
  // Free before releasing the worker: the release can synchronously admit a
  // queued visit, which may reuse this very slot. The bumped generation is
  // what marks any continuation still holding `h` as stale.
  visits_.free(h);
  if (held_worker) {
    workers_.release();
    sync_thread_count();
  }
  report_result(ok);
  done(ok);
  if (workers_.in_use() == 0 && idle_callback_) {
    // Copy first: the callback may reset idle_callback_ (a draining VM
    // does), which must not destroy the std::function mid-execution.
    auto cb = idle_callback_;
    cb();
  }
}

void Server::report_result(bool ok) {
  if (result_listener_ != nullptr) result_listener_->report_result(this, ok);
}

void Server::crash() {
  ++epoch_;
  cpu_.abort_all();
  workers_.reset();
  for (auto& e : edges_) {
    if (e.pool) e.pool->reset();
  }
  cpu_.set_thread_count(0);

  // The pool resets dropped the grants of calls queued on an edge pool; free
  // those calls here. Every other live call still has a response, deadline
  // or backoff event pending and frees itself once that finds its visit gone.
  for (uint32_t i = 0; i < calls_.size(); ++i) {
    const CallState* c = calls_.at(i);
    if (c != nullptr && c->awaiting_conn) calls_.free(calls_.handle(i));
  }

  // Fail every visit that was in flight or queued, in visit-id order (the
  // deterministic order the old id-keyed map iterated in). Freeing the slot
  // first makes every pre-crash continuation stale; firing done(false) here
  // is the only signal that runs.
  crash_scratch_.clear();
  for (uint32_t i = 0; i < visits_.size(); ++i) {
    if (const VisitState* v = visits_.at(i)) crash_scratch_.emplace_back(v->visit_id, i);
  }
  std::sort(crash_scratch_.begin(), crash_scratch_.end());
  for (const auto& [id, idx] : crash_scratch_) {
    VisitState* v = visits_.at(idx);
    if (v == nullptr || v->visit_id != id) continue;  // slot was reused
    ++rejected_;
    DoneFn done = std::move(v->done);
    visits_.free(visits_.handle(idx));
    report_result(false);
    if (done) done(false);
  }
  if (idle_callback_) {
    auto cb = idle_callback_;
    cb();
  }
}

void Server::set_thread_pool_size(int size) {
  workers_.resize(size);
  sync_thread_count();
}

void Server::set_downstream_connections(int size) {
  DCM_CHECK_MSG(managed_pool_ != nullptr, "server has no managed connection pool");
  managed_pool_->resize(size);
}

void Server::set_cpu_capacity_factor(double factor) {
  cpu_.set_capacity_factor(factor);
}

}  // namespace dcm::ntier
