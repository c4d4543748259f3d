#include "probe.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>

#include "bus/broker.h"
#include "bus/consumer.h"
#include "common/rng.h"
#include "control/controller_registry.h"
#include "core/topologies.h"
#include "fault/fault_injector.h"
#include "ntier/load_balancer.h"
#include "ntier/monitor_agent.h"
#include "ntier/slot_pool.h"
#include "trace/attribution.h"
#include "trace/tracer.h"
#include "workload/closed_loop.h"
#include "workload/trace_player.h"

namespace dcm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps driver loops from being optimised away.
volatile uint64_t g_sink = 0;

uint64_t xorshift(uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

std::string count_mismatch(const char* what, uint64_t probe, uint64_t facade) {
  return std::string("probe/facade mismatch on ") + what + ": probe " + std::to_string(probe) +
         ", facade " + std::to_string(facade);
}

control::ControllerMenu controller_menu(const core::ExperimentConfig& config,
                                        const ntier::ServiceGraph& graph) {
  // Same managed-pair derivation and resilience overrides as run_experiment.
  control::ControllerMenu menu = config.controller.menu();
  if (config.controller.kind == core::ControllerSpec::Kind::kDcm) {
    if (menu.dcm.app_tier == 1 && menu.dcm.db_tier == 2) {
      const int app_node = graph.first_node_with_role(ntier::NodeRole::kApp);
      const int db_node = graph.first_node_with_role(ntier::NodeRole::kDb);
      if (app_node >= 0 && db_node >= 0 && app_node < db_node) {
        menu.dcm.app_tier = static_cast<size_t>(app_node);
        menu.dcm.db_tier = static_cast<size_t>(db_node);
      }
    }
    if (config.resilience.enabled) {
      menu.dcm.watchdog_periods = config.resilience.watchdog_periods;
      menu.dcm.min_fit_r2 = config.resilience.min_fit_r2;
    }
  }
  return menu;
}

ntier::ServiceGraph graph_of(const core::ExperimentConfig& config) {
  return core::build_service_graph(config.topology, config.hardware, config.soft,
                                   config.max_vms_per_tier);
}

}  // namespace

void ProbeCounts::add(const ProbeCounts& o) {
  events += o.events;
  sim_seconds += o.sim_seconds;
  tier_seconds += o.tier_seconds;
  arena_kb = std::max(arena_kb, o.arena_kb);
  cpu_jobs += o.cpu_jobs;
  cpu_busy_s += o.cpu_busy_s;
  busy_worker_s += o.busy_worker_s;
  provisioned_vm_s += o.provisioned_vm_s;
  live_user_s += o.live_user_s;
  pool_acquires += o.pool_acquires;
  pool_wait_s += o.pool_wait_s;
  visits += o.visits;
  rejected += o.rejected;
  subreq_timeouts += o.subreq_timeouts;
  subreq_retries += o.subreq_retries;
  bus_records += o.bus_records;
  requests += o.requests;
  completed += o.completed;
  errors += o.errors;
  client_timeouts += o.client_timeouts;
  client_retries += o.client_retries;
  for (const auto& [kind, ticks] : o.control_ticks) control_ticks[kind] += ticks;
  scale_actions += o.scale_actions;
  soft_actions += o.soft_actions;
  faults_injected += o.faults_injected;
  recoveries += o.recoveries;
  trace_sampled += o.trace_sampled;
  trace_spans += o.trace_spans;
  build_host_s += o.build_host_s;
  run_host_s += o.run_host_s;
}

uint64_t ProbeCounts::total_control_ticks() const {
  uint64_t total = 0;
  for (const auto& [kind, ticks] : control_ticks) total += ticks;
  return total;
}

ProbeCounts probe_run(const core::ExperimentConfig& config, const core::ExperimentResult& facade,
                      std::vector<ProbeStep>* steps) {
  // Mirrors core::run_experiment statement for statement up to the end of
  // the run: the same constructors in the same order, so the engine sees the
  // same schedule sequence and the run is the same run.
  const auto build_start = Clock::now();
  const uint64_t topology_seed =
      core::experiment_stream_seed(config.seed, core::SeedStream::kTopology);
  const uint64_t workload_seed =
      core::experiment_stream_seed(config.seed, core::SeedStream::kWorkload);
  const uint64_t fault_seed = core::experiment_stream_seed(config.seed, core::SeedStream::kFault);

  sim::Engine engine;
  ntier::NTierApp app(engine, graph_of(config), topology_seed);
  const ntier::ServiceGraph& graph = *app.graph();
  bus::Broker broker;
  ntier::MonitorFleet fleet(engine, app, broker);

  if (config.resilience.enabled) {
    ntier::SubRequestRetryPolicy sub_retry;
    sub_retry.timeout_seconds = config.resilience.subrequest_timeout_seconds;
    sub_retry.max_retries = config.resilience.subrequest_retries;
    ntier::HealthCheckConfig health;
    health.period_seconds = config.resilience.health_period_seconds;
    health.failure_threshold = config.resilience.health_failure_threshold;
    health.replace_failed = config.resilience.replace_failed;
    for (size_t i = 0; i < app.tier_count(); ++i) {
      if (!graph.out_edges(i).empty()) app.tier(i).set_subrequest_retry(sub_retry);
      if (i > 0) app.tier(i).enable_health_checks(health);
    }
  }

  const workload::ServletCatalog catalog =
      workload::ServletCatalog::browse_only_mix(core::kDbVisitRatio);
  uint64_t requests = 0;
  workload::RequestFactory factory =
      [inner = workload::graph_request_factory(catalog, graph), &requests](
          sim::Arena* arena, uint64_t id, Rng& rng, sim::SimTime now) {
        ++requests;
        return inner(arena, id, rng, now);
      };

  std::unique_ptr<workload::ClosedLoopGenerator> generator;
  std::unique_ptr<workload::TracePlayer> player;
  switch (config.workload.kind) {
    case core::WorkloadSpec::Kind::kJmeter:
      generator = workload::make_jmeter(engine, app, std::move(factory), config.workload.users,
                                        workload_seed);
      break;
    case core::WorkloadSpec::Kind::kRubbosClients:
      generator = workload::make_rubbos_clients(engine, app, std::move(factory),
                                                config.workload.users,
                                                config.workload.mean_think_seconds, workload_seed);
      break;
    case core::WorkloadSpec::Kind::kTrace:
      generator = workload::make_rubbos_clients(engine, app, std::move(factory),
                                                config.workload.trace.users_at(0),
                                                config.workload.mean_think_seconds, workload_seed);
      player = std::make_unique<workload::TracePlayer>(engine, *generator, config.workload.trace);
      break;
  }
  if (config.resilience.enabled) {
    workload::RetryPolicy client_retry;
    client_retry.timeout_seconds = config.resilience.client_timeout_seconds;
    client_retry.max_retries = config.resilience.client_retries;
    client_retry.backoff_base_seconds = config.resilience.client_backoff_seconds;
    generator->set_retry_policy(client_retry);
  }

  std::unique_ptr<trace::Tracer> tracer;
  if (config.trace.enabled) {
    tracer = std::make_unique<trace::Tracer>(
        core::experiment_stream_seed(config.seed, core::SeedStream::kTrace), config.trace);
    generator->set_tracer(tracer.get());
  }

  std::unique_ptr<control::ControllerBase> controller;
  if (config.controller.kind != core::ControllerSpec::Kind::kNone) {
    controller = control::make_controller(config.controller.registry_name(), engine, app, broker,
                                          controller_menu(config, graph));
  }
  if (controller && tracer) {
    trace::Tracer* tap = tracer.get();
    controller->set_action_observer([tap](const control::ControlAction& a) {
      tap->annotate(a.time, a.action, a.tier + " " + a.detail);
    });
  }

  std::unique_ptr<fault::FaultInjector> injector;
  if (config.faults.any_enabled()) {
    injector = std::make_unique<fault::FaultInjector>(
        engine, app, broker, &fleet,
        fault::FaultPlan::synthesize(config.faults, fault_seed, config.duration_seconds));
  }

  // The facade's per-second sampler. Its reads are part of the run — the CPU
  // utilisation integral folds elapsed time into the scheduler's floating-
  // point clock — so the probe makes exactly the same reads.
  ProbeCounts counts;
  double util_sink = 0.0;
  auto sampler = engine.schedule_periodic(sim::kNanosPerSecond, [&] {
    for (size_t i = 0; i < app.tier_count(); ++i) {
      const ntier::Tier& tier = app.tier(i);
      counts.provisioned_vm_s += tier.provisioned_vm_count();
      util_sink += tier.total_in_flight();
      for (const auto& vm : tier.vms()) {
        if (vm->state() != ntier::VmState::kActive && vm->state() != ntier::VmState::kDraining) {
          continue;
        }
        util_sink += vm->server().cpu_util_integral();
      }
    }
    counts.live_user_s += generator->live_users();
  });

  if (controller) controller->start();
  if (player) {
    player->start();
  } else {
    generator->start();
  }
  counts.build_host_s = seconds_since(build_start);

  const sim::SimTime end = sim::from_seconds(config.duration_seconds);
  while (engine.now() < end) {
    const auto step_start = Clock::now();
    const uint64_t events_before = engine.events_dispatched();
    const sim::SimTime step_end = std::min(end, engine.now() + sim::kNanosPerSecond);
    engine.run_until(step_end);
    if (steps != nullptr) {
      steps->push_back(ProbeStep{sim::to_seconds(step_end), seconds_since(step_start),
                                 engine.events_dispatched() - events_before});
    }
  }
  sampler.cancel();

  std::vector<fault::FaultLogEntry> fault_log;
  if (injector) fault_log = injector->log();
  for (size_t i = 0; i < app.tier_count(); ++i) {
    for (const auto& event : app.tier(i).events()) {
      fault_log.push_back(fault::FaultLogEntry{event.at, event.kind, event.detail, app.tier(i).name()});
    }
  }
  std::stable_sort(
      fault_log.begin(), fault_log.end(),
      [](const fault::FaultLogEntry& a, const fault::FaultLogEntry& b) { return a.at < b.at; });
  std::shared_ptr<const trace::TraceReport> report;
  if (tracer) {
    for (const auto& entry : fault_log) {
      tracer->annotate(entry.at, entry.kind,
                       entry.target.empty() ? entry.detail : entry.target + " " + entry.detail);
    }
    report = trace::build_report(*tracer);
  }
  counts.run_host_s = seconds_since(build_start);

  // Layer counts, read through public accessors after the run.
  counts.events = engine.events_dispatched();
  counts.sim_seconds = config.duration_seconds;
  counts.tier_seconds = config.duration_seconds * static_cast<double>(app.tier_count());
  counts.arena_kb = static_cast<double>(engine.arena().bytes_reserved()) / 1024.0;
  for (size_t i = 0; i < app.tier_count(); ++i) {
    const ntier::Tier& tier = app.tier(i);
    counts.subreq_timeouts += tier.subrequest_timeouts();
    counts.subreq_retries += tier.subrequest_retries();
    counts.recoveries += tier.events().size() + tier.events().dropped();
    for (const auto& vm : tier.vms()) {
      const ntier::Server& server = vm->server();
      counts.cpu_jobs += server.cpu().jobs_completed();
      counts.cpu_busy_s += server.cpu_util_integral();
      counts.busy_worker_s += server.concurrency_integral();
      counts.visits += server.completed() + server.rejected();
      counts.rejected += server.rejected();
      const ntier::SlotPool* pools[] = {&server.worker_pool(), server.connection_pool()};
      for (const ntier::SlotPool* pool : pools) {
        if (pool == nullptr) continue;
        counts.pool_acquires += pool->total_acquired();
        counts.pool_wait_s +=
            pool->wait_stats().mean() * static_cast<double>(pool->wait_stats().count());
      }
    }
  }
  counts.bus_records = fleet.producer().records_sent();
  const workload::ClientStats& stats = generator->stats();
  counts.requests = requests;
  counts.completed = stats.completed();
  counts.errors = stats.errors();
  counts.client_timeouts = stats.timeouts();
  counts.client_retries = stats.retries();
  if (controller) {
    counts.control_ticks[config.controller.registry_name()] =
        static_cast<uint64_t>(end / controller->policy().control_period);
    for (const auto& action : controller->log().actions()) {
      if (action.action == "scale_out" || action.action == "scale_in") ++counts.scale_actions;
      if (action.action == "set_stp" || action.action == "set_conns") ++counts.soft_actions;
    }
  }
  if (injector) counts.faults_injected = static_cast<uint64_t>(injector->injected_count());
  if (tracer) {
    counts.trace_sampled = tracer->sampled();
    for (const auto& trace : tracer->traces()) counts.trace_spans += trace->spans.size();
  }
  g_sink = g_sink + static_cast<uint64_t>(util_sink) + (report ? 1 : 0);

  if (counts.events != facade.events_dispatched) {
    throw std::runtime_error(count_mismatch("events", counts.events, facade.events_dispatched));
  }
  const workload::ClientStats& expected = facade.client;
  if (counts.completed != expected.completed()) {
    throw std::runtime_error(count_mismatch("completed", counts.completed, expected.completed()));
  }
  if (counts.errors != expected.errors()) {
    throw std::runtime_error(count_mismatch("errors", counts.errors, expected.errors()));
  }
  if (counts.client_timeouts != expected.timeouts()) {
    throw std::runtime_error(
        count_mismatch("timeouts", counts.client_timeouts, expected.timeouts()));
  }
  if (counts.client_retries != expected.retries()) {
    throw std::runtime_error(count_mismatch("retries", counts.client_retries, expected.retries()));
  }
  return counts;
}

OperatingPoint operating_point(const ProbeCounts& counts) {
  const auto at_least_one = [](double v) { return std::max(1, static_cast<int>(std::lround(v))); };
  OperatingPoint op;
  if (counts.sim_seconds > 0.0) {
    // Every live user holds one pending event (think timer or its request's
    // next step) and every provisioned server roughly one more (CPU
    // completion or monitor tick).
    op.pending_events =
        at_least_one((counts.live_user_s + counts.provisioned_vm_s) / counts.sim_seconds);
  }
  if (counts.provisioned_vm_s > 0.0) {
    op.concurrency = at_least_one(counts.busy_worker_s / counts.provisioned_vm_s);
  }
  if (counts.tier_seconds > 0.0) {
    op.vms_per_tier = at_least_one(counts.provisioned_vm_s / counts.tier_seconds);
  }
  return op;
}

namespace {

// Median of three timed repetitions of `body`, which returns the unit cost
// of one repetition.
template <typename Body>
double median_of_3(Body body) {
  double v[3] = {body(), body(), body()};
  std::sort(v, v + 3);
  return v[1];
}

// Engine heap population of the CPU, server, bus and control drivers: one
// pending completion or re-issue per job in flight plus a few timers.
constexpr int kDriverPendingEvents = 8;

// A self-rescheduling engine event: the heap keeps a constant population.
struct Reschedule {
  sim::Engine* engine;
  uint64_t* state;
  void operator()() const {
    engine->schedule_after(static_cast<sim::SimTime>(1'000 + xorshift(*state) % 1'000'000), *this);
  }
};

double engine_ns_per_event(int pending) {
  return median_of_3([pending] {
    sim::Engine engine;
    uint64_t state = 0x2545F4914F6CDD1Dull;
    for (int i = 0; i < pending; ++i) {
      engine.schedule_after(static_cast<sim::SimTime>(xorshift(state) % 1'000'000),
                            Reschedule{&engine, &state});
    }
    // ~300k events per repetition: mean delay 0.5 ms over `pending` events.
    const sim::SimTime span = static_cast<sim::SimTime>(300'000.0 * 500'500.0 / pending);
    engine.run_for(span / 10);  // warm the heap and slab
    const uint64_t before = engine.events_dispatched();
    const auto start = Clock::now();
    engine.run_for(span);
    const double host = seconds_since(start);
    return host * 1e9 / static_cast<double>(engine.events_dispatched() - before);
  });
}

struct CpuJob {
  ntier::CpuScheduler* cpu;
  uint64_t* state;
  double s0;
  void operator()() const {
    const double work = s0 * (0.5 + static_cast<double>(xorshift(*state) % 1024) / 1024.0);
    cpu->submit(work, *this);
  }
};

double cpu_ns_per_job(int concurrency, double ns_per_event) {
  return median_of_3([concurrency, ns_per_event] {
    sim::Engine engine;
    const ntier::CpuModelConfig model = core::tomcat_cpu_model();
    ntier::CpuScheduler cpu(engine, model);
    uint64_t state = 0x9E3779B97F4A7C15ull;
    cpu.set_thread_count(concurrency);
    for (int i = 0; i < concurrency; ++i) CpuJob{&cpu, &state, model.params.s0}();
    const auto run_jobs = [&](uint64_t jobs) {
      const uint64_t target = cpu.jobs_completed() + jobs;
      while (cpu.jobs_completed() < target) engine.run_for(sim::from_seconds(0.1));
    };
    run_jobs(20'000);
    const uint64_t jobs_before = cpu.jobs_completed();
    const uint64_t events_before = engine.events_dispatched();
    const auto start = Clock::now();
    run_jobs(200'000);
    const double host_ns = seconds_since(start) * 1e9;
    const double events = static_cast<double>(engine.events_dispatched() - events_before);
    return (host_ns - events * ns_per_event) /
           static_cast<double>(cpu.jobs_completed() - jobs_before);
  });
}

double pool_ns_per_acquire() {
  return median_of_3([] {
    sim::Engine engine;
    ntier::SlotPool pool(engine, "probe", 4);
    uint64_t granted = 0;
    constexpr int kPairs = 2'000'000;
    const auto start = Clock::now();
    for (int i = 0; i < kPairs; ++i) {
      pool.acquire([&granted] { ++granted; });
      pool.release();
    }
    const double host_ns = seconds_since(start) * 1e9;
    g_sink = g_sink + granted;
    return host_ns / kPairs;
  });
}

double lb_ns_per_pick(int members) {
  sim::Engine engine;
  ntier::ServerConfig config;
  config.cpu = core::tomcat_cpu_model();
  std::vector<std::unique_ptr<ntier::Server>> servers;
  ntier::LoadBalancer lb(ntier::LbPolicy::kRoundRobin);
  for (int i = 0; i < members; ++i) {
    servers.push_back(
        std::make_unique<ntier::Server>(engine, config, 1, Rng(static_cast<uint64_t>(i) + 1)));
    lb.add(servers.back().get());
  }
  return median_of_3([&lb] {
    constexpr int kPicks = 10'000'000;
    uintptr_t sink = 0;
    const auto start = Clock::now();
    for (int i = 0; i < kPicks; ++i) sink += reinterpret_cast<uintptr_t>(lb.pick());
    const double host_ns = seconds_since(start) * 1e9;
    g_sink = g_sink + sink;
    return host_ns / kPicks;
  });
}

double server_ns_per_visit(int concurrency, const ntier::ServerConfig& base,
                           const LayerCosts& costs) {
  return median_of_3([&] {
    sim::Engine engine;
    ntier::ServerConfig config = base;
    config.max_threads = concurrency;
    ntier::Server server(engine, config, 0, Rng(7));  // a leaf: no downstream edge
    uint64_t next_id = 1;
    std::function<void()> issue = [&] {
      ntier::RequestPtr request = ntier::make_request_context(&engine.arena());
      request->id = next_id++;
      request->demand_scale.push_back(1.0);
      // Re-issue from a fresh event, never from inside the completion.
      server.process(request, [&](bool) { engine.schedule_after(0, [&] { issue(); }); });
    };
    for (int i = 0; i < concurrency; ++i) issue();
    const auto run_visits = [&](uint64_t visits) {
      const uint64_t target = server.completed() + visits;
      while (server.completed() < target) engine.run_for(sim::from_seconds(0.1));
    };
    run_visits(20'000);
    const uint64_t visits_before = server.completed();
    const uint64_t events_before = engine.events_dispatched();
    const uint64_t jobs_before = server.cpu().jobs_completed();
    const uint64_t acquires_before = server.worker_pool().total_acquired();
    const auto start = Clock::now();
    run_visits(150'000);
    const double host_ns = seconds_since(start) * 1e9;
    const double events = static_cast<double>(engine.events_dispatched() - events_before);
    const double jobs = static_cast<double>(server.cpu().jobs_completed() - jobs_before);
    const double acquires =
        static_cast<double>(server.worker_pool().total_acquired() - acquires_before);
    return (host_ns - events * costs.ns_per_event - jobs * costs.ns_per_job -
            acquires * costs.ns_per_acquire) /
           static_cast<double>(server.completed() - visits_before);
  });
}

double factory_ns_per_call(const core::ExperimentConfig& config) {
  const ntier::ServiceGraph graph = graph_of(config);
  const workload::ServletCatalog catalog =
      workload::ServletCatalog::browse_only_mix(core::kDbVisitRatio);
  const workload::RequestFactory factory = workload::graph_request_factory(catalog, graph);
  return median_of_3([&] {
    sim::Engine engine;
    Rng rng(11);
    constexpr int kCalls = 500'000;
    uint64_t sink = 0;
    const auto start = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      sink += factory(&engine.arena(), static_cast<uint64_t>(i), rng, 0)->downstream_calls.size();
    }
    const double host_ns = seconds_since(start) * 1e9;
    g_sink = g_sink + sink;
    return host_ns / kCalls;
  });
}

// An unloaded deployment with its monitor fleet: agents tick every second
// and publish to the bus; either a bare consumer drains the topic at the
// control period (the bus driver) or a controller does (the control driver).
struct IdleRun {
  double host_s = 0.0;
  uint64_t events = 0;
  uint64_t records = 0;
};

constexpr double kIdleSeconds = 3000.0;  // 200 control periods of 15 s

IdleRun idle_fleet_run(const core::ExperimentConfig& config, const char* controller_kind) {
  sim::Engine engine;
  ntier::NTierApp app(engine, graph_of(config),
                      core::experiment_stream_seed(config.seed, core::SeedStream::kTopology));
  bus::Broker broker;
  ntier::MonitorFleet fleet(engine, app, broker);
  std::unique_ptr<control::ControllerBase> controller;
  std::unique_ptr<bus::Consumer> consumer;
  sim::EventHandle drain;
  if (controller_kind != nullptr) {
    controller = control::make_controller(controller_kind, engine, app, broker,
                                          controller_menu(config, *app.graph()));
    controller->start();
  } else {
    consumer = std::make_unique<bus::Consumer>(broker, "perfbench", ntier::kMetricsTopic);
    drain = engine.schedule_periodic(sim::from_seconds(15.0), [&] {
      while (!consumer->poll(1024).empty()) {
      }
    });
  }
  const auto start = Clock::now();
  engine.run_until(sim::from_seconds(kIdleSeconds));
  IdleRun run;
  run.host_s = seconds_since(start);
  run.events = engine.events_dispatched();
  run.records = fleet.producer().records_sent();
  drain.cancel();
  return run;
}

double bus_ns_per_record(const core::ExperimentConfig& config, double ns_per_event) {
  return median_of_3([&] {
    const IdleRun run = idle_fleet_run(config, nullptr);
    return (run.host_s * 1e9 - static_cast<double>(run.events) * ns_per_event) /
           static_cast<double>(run.records);
  });
}

double control_ns_per_tick(const core::ExperimentConfig& config, const char* kind,
                           const LayerCosts& costs) {
  const double ticks = std::floor(kIdleSeconds / 15.0);
  return median_of_3([&] {
    const IdleRun bare = idle_fleet_run(config, nullptr);
    const IdleRun controlled = idle_fleet_run(config, kind);
    const double extra_ns =
        (controlled.host_s - bare.host_s) * 1e9 -
        (static_cast<double>(controlled.events) - static_cast<double>(bare.events)) *
            costs.ns_per_event -
        (static_cast<double>(controlled.records) - static_cast<double>(bare.records)) *
            costs.ns_per_record;
    return extra_ns / ticks;
  });
}

}  // namespace

LayerCosts measure_layer_costs(const OperatingPoint& op,
                               const std::vector<core::ExperimentConfig>& configs,
                               const ProbeCounts& counts) {
  if (configs.empty()) throw std::invalid_argument("measure_layer_costs: no configs");
  const core::ExperimentConfig& first = configs.front();
  const ntier::ServiceGraph graph = graph_of(first);
  // The server driver runs the deployment's busiest kind of node: the
  // first app-role node (the tier DCM manages), else the root.
  const int app_node = graph.first_node_with_role(ntier::NodeRole::kApp);
  const ntier::ServerConfig& server_config =
      graph.node(app_node >= 0 ? static_cast<size_t>(app_node) : 0).tier.server;

  LayerCosts costs;
  costs.ns_per_event = engine_ns_per_event(op.pending_events);
  // The drivers below keep only a handful of events pending, so the engine
  // cost they subtract is measured at that population, not the workload's.
  LayerCosts driver;
  driver.ns_per_event = engine_ns_per_event(kDriverPendingEvents);
  costs.ns_per_job = driver.ns_per_job = cpu_ns_per_job(op.concurrency, driver.ns_per_event);
  costs.ns_per_acquire = driver.ns_per_acquire = pool_ns_per_acquire();
  costs.ns_per_pick = lb_ns_per_pick(op.vms_per_tier);
  costs.ns_per_visit = server_ns_per_visit(op.concurrency, server_config, driver);
  costs.ns_per_record = driver.ns_per_record = bus_ns_per_record(first, driver.ns_per_event);
  costs.factory_ns = factory_ns_per_call(first);

  const uint64_t total_ticks = counts.total_control_ticks();
  if (total_ticks > 0) {
    double weighted = 0.0;
    for (const auto& [kind, ticks] : counts.control_ticks) {
      const auto uses_kind = [&kind](const core::ExperimentConfig& c) {
        return kind == c.controller.registry_name();
      };
      const auto it = std::find_if(configs.begin(), configs.end(), uses_kind);
      if (it == configs.end()) throw std::logic_error("no config runs controller " + kind);
      weighted += static_cast<double>(ticks) * control_ns_per_tick(*it, kind.c_str(), driver);
    }
    costs.ns_per_tick = weighted / static_cast<double>(total_ticks);
  }
  return costs;
}

}  // namespace dcm::perfbench
