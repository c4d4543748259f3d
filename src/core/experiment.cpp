#include "core/experiment.h"

#include <algorithm>
#include <unordered_map>

#include "bus/broker.h"
#include "common/check.h"
#include "common/rng.h"
#include "control/ec2_autoscale.h"
#include "ntier/monitor_agent.h"
#include "workload/closed_loop.h"
#include "workload/trace_player.h"

namespace dcm::core {

WorkloadSpec WorkloadSpec::jmeter(int users) {
  WorkloadSpec spec;
  spec.kind = Kind::kJmeter;
  spec.users = users;
  return spec;
}

WorkloadSpec WorkloadSpec::rubbos(int users, double think_s) {
  WorkloadSpec spec;
  spec.kind = Kind::kRubbosClients;
  spec.users = users;
  spec.mean_think_seconds = think_s;
  return spec;
}

WorkloadSpec WorkloadSpec::trace_driven(workload::Trace trace, double think_s) {
  WorkloadSpec spec;
  spec.kind = Kind::kTrace;
  spec.trace = std::move(trace);
  spec.mean_think_seconds = think_s;
  return spec;
}

uint64_t experiment_stream_seed(uint64_t root, SeedStream stream) {
  return derive_seed(root, static_cast<uint64_t>(stream));
}

ControllerSpec ControllerSpec::none() { return {}; }

ControllerSpec ControllerSpec::ec2(control::ScalingPolicy policy) {
  ControllerSpec spec;
  spec.kind = Kind::kEc2AutoScale;
  spec.policy = policy;
  return spec;
}

ControllerSpec ControllerSpec::dcm_controller(control::DcmConfig config) {
  ControllerSpec spec;
  spec.kind = Kind::kDcm;
  spec.policy = config.policy;
  spec.dcm = std::move(config);
  return spec;
}

ControllerSpec ControllerSpec::predictive_controller(control::PredictiveConfig config) {
  ControllerSpec spec;
  spec.kind = Kind::kPredictive;
  spec.policy = config.policy;
  spec.predictive = std::move(config);
  return spec;
}

ControllerSpec ControllerSpec::queueing_controller(control::QueueingConfig config) {
  ControllerSpec spec;
  spec.kind = Kind::kQueueing;
  spec.policy = config.policy;
  spec.queueing = std::move(config);
  return spec;
}

ControllerSpec ControllerSpec::pi_controller(control::PiConfig config) {
  ControllerSpec spec;
  spec.kind = Kind::kPi;
  spec.policy = config.policy;
  spec.pi = std::move(config);
  return spec;
}

const char* ControllerSpec::registry_name() const {
  switch (kind) {
    case Kind::kNone: return "";
    case Kind::kEc2AutoScale: return "ec2";
    case Kind::kDcm: return "dcm";
    case Kind::kPredictive: return "predictive";
    case Kind::kQueueing: return "queueing";
    case Kind::kPi: return "pi";
  }
  return "";
}

control::ControllerMenu ControllerSpec::menu() const {
  control::ControllerMenu menu;
  menu.policy = policy;
  menu.dcm = dcm;
  menu.predictive = predictive;
  menu.queueing = queueing;
  menu.pi = pi;
  return menu;
}

TierTimeline::TierTimeline(const std::string& tier_name)
    : name(tier_name),
      provisioned_vms(tier_name + ".vms", sim::kNanosPerSecond),
      cpu_util(tier_name + ".util", sim::kNanosPerSecond),
      concurrency(tier_name + ".concurrency", sim::kNanosPerSecond) {}

int ExperimentResult::action_count(const std::string& action, const std::string& tier) const {
  int n = 0;
  for (const auto& a : actions) {
    if (a.action == action && (tier.empty() || a.tier == tier)) ++n;
  }
  return n;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  DCM_CHECK(config.duration_seconds > 0.0);
  DCM_CHECK(config.warmup_seconds >= 0.0);
  DCM_CHECK(config.warmup_seconds < config.duration_seconds);

  const uint64_t topology_seed = experiment_stream_seed(config.seed, SeedStream::kTopology);
  const uint64_t workload_seed = experiment_stream_seed(config.seed, SeedStream::kWorkload);
  const uint64_t fault_seed = experiment_stream_seed(config.seed, SeedStream::kFault);

  sim::Engine engine;
  ntier::NTierApp app(engine,
                      build_service_graph(config.topology, config.hardware, config.soft,
                                          config.max_vms_per_tier),
                      topology_seed);
  const ntier::ServiceGraph& graph = *app.graph();
  bus::Broker broker;
  ntier::MonitorFleet fleet(engine, app, broker);

  if (config.resilience.enabled) {
    // Inter-tier sub-request deadlines/retries on every node that issues
    // downstream calls, and health-checked balancing on every non-root node.
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

  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix(kDbVisitRatio);
  workload::RequestFactory factory = workload::graph_request_factory(catalog, graph);

  // Requests hold their trace contexts by raw pointer into the tracer's
  // store, so the tracer is built before (and outlives) the generator.
  std::unique_ptr<trace::Tracer> tracer;
  if (config.trace.enabled) {
    tracer = std::make_unique<trace::Tracer>(
        experiment_stream_seed(config.seed, SeedStream::kTrace), config.trace);
  }

  std::unique_ptr<workload::ClosedLoopGenerator> generator;
  std::unique_ptr<workload::TracePlayer> player;
  switch (config.workload.kind) {
    case WorkloadSpec::Kind::kJmeter:
      generator = workload::make_jmeter(engine, app, std::move(factory),
                                        config.workload.users, workload_seed);
      break;
    case WorkloadSpec::Kind::kRubbosClients:
      generator = workload::make_rubbos_clients(engine, app, std::move(factory),
                                                config.workload.users,
                                                config.workload.mean_think_seconds,
                                                workload_seed);
      break;
    case WorkloadSpec::Kind::kTrace:
      generator = workload::make_rubbos_clients(engine, app, std::move(factory),
                                                config.workload.trace.users_at(0),
                                                config.workload.mean_think_seconds,
                                                workload_seed);
      player = std::make_unique<workload::TracePlayer>(engine, *generator,
                                                       config.workload.trace);
      break;
  }
  if (config.resilience.enabled) {
    workload::RetryPolicy client_retry;
    client_retry.timeout_seconds = config.resilience.client_timeout_seconds;
    client_retry.max_retries = config.resilience.client_retries;
    client_retry.backoff_base_seconds = config.resilience.client_backoff_seconds;
    generator->set_retry_policy(client_retry);
  }

  if (tracer) generator->set_tracer(tracer.get());

  std::unique_ptr<control::ControllerBase> controller;
  if (config.controller.kind != ControllerSpec::Kind::kNone) {
    control::ControllerMenu menu = config.controller.menu();
    if (config.controller.kind == ControllerSpec::Kind::kDcm) {
      // When the caller left the managed pair at the 3-tier defaults, derive
      // it from the graph roles (first app node / first db node) so non-chain
      // topologies get the right pair without explicit indexes. Chains derive
      // their existing values, so this never shifts a legacy configuration.
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
    controller =
        control::make_controller(config.controller.registry_name(), engine, app, broker, menu);
  }

  if (controller && tracer) {
    // Soft-actuation / scaling / watchdog events annotate overlapping traces.
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

  ExperimentResult result;
  for (size_t i = 0; i < app.tier_count(); ++i) {
    result.tiers.emplace_back(app.tier(i).name());
  }

  // Per-second system sampler for the Fig. 5-style timelines.
  std::unordered_map<const ntier::Server*, double> prev_util;
  auto sampler = engine.schedule_periodic(sim::kNanosPerSecond, [&] {
    const sim::SimTime now = engine.now();
    // Stamp the *previous* second's bucket.
    const sim::SimTime stamp = now - sim::kNanosPerSecond;
    for (size_t i = 0; i < app.tier_count(); ++i) {
      const ntier::Tier& tier = app.tier(i);
      TierTimeline& line = result.tiers[i];
      line.provisioned_vms.add(stamp, static_cast<double>(tier.provisioned_vm_count()));
      line.concurrency.add(stamp, static_cast<double>(tier.total_in_flight()));
      double util_sum = 0.0;
      int active = 0;
      for (const auto& vm : tier.vms()) {
        if (vm->state() != ntier::VmState::kActive &&
            vm->state() != ntier::VmState::kDraining) {
          continue;
        }
        const ntier::Server* server = &vm->server();
        const double integral = server->cpu_util_integral();
        const double delta = integral - prev_util[server];
        prev_util[server] = integral;
        if (vm->state() == ntier::VmState::kActive) {
          util_sum += delta;  // window is 1 s, so the delta is the mean util
          ++active;
        }
      }
      line.cpu_util.add(stamp, active > 0 ? util_sum / active : 0.0);
    }
  });

  if (controller) controller->start();
  if (player) {
    player->start();
  } else {
    generator->start();
  }

  engine.run_until(sim::from_seconds(config.duration_seconds));
  sampler.cancel();

  // Summaries over the post-warmup window.
  const sim::SimTime warmup = sim::from_seconds(config.warmup_seconds);
  const sim::SimTime end = sim::from_seconds(config.duration_seconds);
  const workload::ClientStats& stats = generator->stats();
  result.client = stats;
  result.completed = stats.completed();
  result.errors = stats.errors();
  result.mean_throughput = stats.mean_throughput(warmup, end);
  result.goodput = stats.mean_goodput(warmup, end);
  result.error_rate = stats.error_rate(warmup, end);
  result.timeouts = stats.timeouts();
  result.retries = stats.retries();
  for (size_t i = 0; i < app.tier_count(); ++i) {
    result.timeouts += app.tier(i).subrequest_timeouts();
    result.retries += app.tier(i).subrequest_retries();
  }

  // Merge the injected faults with every tier's recovery actions into one
  // time-sorted trail (stable: injector entries before tier events on ties,
  // tiers in depth order).
  if (injector) result.fault_log = injector->log();
  for (size_t i = 0; i < app.tier_count(); ++i) {
    for (const auto& event : app.tier(i).events()) {
      result.fault_log.push_back(
          fault::FaultLogEntry{event.at, event.kind, event.detail, app.tier(i).name()});
    }
  }
  std::stable_sort(
      result.fault_log.begin(), result.fault_log.end(),
      [](const fault::FaultLogEntry& a, const fault::FaultLogEntry& b) { return a.at < b.at; });

  metrics::Welford rt;
  double rt_max = 0.0;
  int sla_seconds = 0, measured_seconds = 0;
  for (const auto& bucket : stats.response_time_series().buckets()) {
    if (bucket.start < warmup) continue;
    rt.merge(bucket.stat);
    rt_max = std::max(rt_max, bucket.stat.max());
    if (bucket.stat.count() > 0) {
      ++measured_seconds;
      if (bucket.stat.mean() > result.sla_bound_seconds) ++sla_seconds;
    }
  }
  result.mean_response_time = rt.mean();
  result.max_response_time = rt_max;
  result.p95_response_time = stats.response_time_histogram().p95();
  result.sla_violation_fraction =
      measured_seconds > 0 ? static_cast<double>(sla_seconds) / measured_seconds : 0.0;
  result.sla_violation_seconds = sla_seconds;
  result.measured_seconds = measured_seconds;

  // Resource efficiency: integrate the per-second provisioned-VM series.
  result.vm_seconds.resize(result.tiers.size(), 0.0);
  for (size_t i = 0; i < result.tiers.size(); ++i) {
    for (const auto& bucket : result.tiers[i].provisioned_vms.buckets()) {
      result.vm_seconds[i] += bucket.stat.mean();  // 1 s buckets
    }
    // `result` is built fresh in this call; the sum starts at zero. Scalable tiers only.
    if (i > 0) result.total_vm_seconds += result.vm_seconds[i];  // dcm-lint: allow(no-unanchored-float-accumulate)
  }
  result.requests_per_vm_second =
      result.total_vm_seconds > 0.0
          ? static_cast<double>(result.completed) / result.total_vm_seconds
          : 0.0;

  if (controller) result.actions = controller->log().actions();

  if (tracer) {
    // Fault-injection events (already time-sorted) join the annotation
    // stream post-run; the report overlays them on overlapping traces.
    for (const auto& entry : result.fault_log) {
      tracer->annotate(entry.at, entry.kind,
                       entry.target.empty() ? entry.detail
                                            : entry.target + " " + entry.detail);
    }
    result.trace_report = trace::build_report(*tracer);
  }
  result.events_dispatched = engine.events_dispatched();
  return result;
}

std::vector<SweepPoint> jmeter_concurrency_sweep(const ExperimentConfig& base,
                                                 const std::vector<int>& concurrencies,
                                                 bool match_app_pools) {
  std::vector<SweepPoint> points;
  points.reserve(concurrencies.size());
  for (int c : concurrencies) {
    DCM_CHECK(c >= 1);
    ExperimentConfig config = base;
    config.workload = WorkloadSpec::jmeter(c);
    // Each sweep point is an independent run: decorrelate via the root
    // seed so no point shares streams with another.
    config.seed = derive_seed(base.seed, static_cast<uint64_t>(c));
    config.controller = ControllerSpec::none();
    if (match_app_pools) config.soft.app_threads = c;
    const ExperimentResult result = run_experiment(config);
    // Per-node server counts come from the materialized topology (for the
    // chains this reproduces the old web/app/db hardware mapping).
    const ntier::ServiceGraph graph = build_service_graph(
        config.topology, config.hardware, config.soft, config.max_vms_per_tier);

    SweepPoint point;
    point.concurrency = c;
    point.throughput = result.mean_throughput;
    point.response_time = result.mean_response_time;
    const sim::SimTime warmup = sim::from_seconds(config.warmup_seconds);
    for (size_t i = 0; i < result.tiers.size(); ++i) {
      metrics::Welford conc;
      for (const auto& bucket : result.tiers[i].concurrency.buckets()) {
        if (bucket.start < warmup) continue;
        conc.merge(bucket.stat);
      }
      const int servers = graph.node(i).tier.initial_vms;
      point.per_server_concurrency.push_back(conc.mean() / std::max(1, servers));
    }
    points.push_back(std::move(point));
  }
  return points;
}

namespace {

// Drives `generator` to `duration`: post-warmup throughput, whole-run mean RT.
SweepPoint measure(sim::Engine& engine, workload::ClosedLoopGenerator& generator, int users,
                   double warmup, double duration) {
  generator.start();
  engine.run_until(sim::from_seconds(duration));
  const workload::ClientStats& stats = generator.stats();
  return {users, stats.mean_throughput(sim::from_seconds(warmup), sim::from_seconds(duration)),
          stats.response_time_stats().mean(), {}};
}

}  // namespace

std::vector<SweepPoint> mysql_concurrency_sweep(const std::vector<int>& concurrencies) {
  TopologySpec mysql_only;
  mysql_only.kind = TopologySpec::Kind::kGraph;
  mysql_only.nodes = {{"mysql", "db"}};
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  std::vector<SweepPoint> points;
  for (const int n : concurrencies) {
    DCM_CHECK(n >= 1);
    sim::Engine engine;
    ntier::NTierApp app(engine, build_service_graph(mysql_only, {1, 1, 1}, {}, 1), 1);
    app.tier(0).set_thread_pool_size(n);
    workload::ClosedLoopConfig clients;
    clients.users = n;
    clients.seed = 1000 + static_cast<uint64_t>(n);
    workload::ClosedLoopGenerator generator(
        engine, app, workload::graph_request_factory(catalog, *app.graph()), std::move(clients));
    points.push_back(measure(engine, generator, n, /*warmup=*/10.0, /*duration=*/60.0));
  }
  return points;
}

ModelTraining train_tier_model(const ExperimentConfig& base, size_t tier, double visit_ratio,
                               double concurrency_cap, const std::vector<int>& offered) {
  ModelTraining out;
  std::vector<model::TrainingSample> samples;
  for (const auto& p : jmeter_concurrency_sweep(base, offered, /*match_app_pools=*/true)) {
    const double conc = p.per_server_concurrency[tier];
    if (conc < 0.8 || conc > concurrency_cap) continue;
    samples.push_back({std::max(1.0, conc), p.throughput});
    out.max_concurrency = std::max(out.max_concurrency, conc);
  }
  out.samples = samples.size();
  const ntier::ServiceGraph graph =
      build_service_graph(base.topology, base.hardware, base.soft, base.max_vms_per_tier);
  const model::Trainer trainer(/*servers=*/1, visit_ratio);
  out.normalized = trainer.fit_normalized(samples);
  out.known_s0 = trainer.fit_with_known_s0(graph.node(tier).tier.server.cpu.params.s0, samples);
  return out;
}

SweepPoint run_with_lb_policy(const ExperimentConfig& config, ntier::LbPolicy policy) {
  sim::Engine engine;
  const ntier::ServiceGraph chain =
      build_service_graph(config.topology, config.hardware, config.soft);
  std::vector<ntier::ServiceNode> nodes = chain.nodes();
  for (auto& node : nodes) node.tier.lb_policy = policy;
  ntier::NTierApp app(engine, ntier::ServiceGraph(std::move(nodes), chain.edges()), config.seed);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = workload::make_rubbos_clients(engine, app, catalog, config.workload.users,
                                                 config.workload.mean_think_seconds);
  return measure(engine, *generator, config.workload.users, config.warmup_seconds,
                 config.duration_seconds);
}

}  // namespace dcm::core
