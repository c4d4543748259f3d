#include "ntier/monitor_agent.h"

#include "common/check.h"

namespace dcm::ntier {

static_assert(sizeof(MetricSample) <= bus::Record::kMaxValueBytes,
              "a monitor sample must fit one bus record");

MonitorAgent::MonitorAgent(sim::Engine& engine, Vm& vm, int depth, bus::Producer& producer,
                           sim::SimTime period)
    : engine_(&engine),
      vm_(&vm),
      depth_(depth),
      producer_(&producer),
      route_(producer.route(kMetricsTopic, vm.id())),
      period_(period) {
  DCM_CHECK(period_ > 0);
  last_time_ = engine_->now();
  timer_ = engine_->schedule_periodic(period_, [this] { tick(); });
}

MonitorAgent::~MonitorAgent() { timer_.cancel(); }

MetricSample MonitorAgent::collect() {
  const Server& server = vm_->server();
  const sim::SimTime now = engine_->now();
  const double window = sim::to_seconds(now - last_time_);

  MetricSample s;
  s.time = now;
  s.depth = depth_;
  s.vm = vm_->index();
  s.vm_state = vm_->state();
  s.thread_pool_size = server.thread_pool_size();
  s.conn_pool_size = server.downstream_connection_limit();
  s.queue_length = server.queue_length();

  const uint64_t completed = server.completed();
  const double rt_sum = server.response_time_sum();
  const double conc_integral = server.concurrency_integral();
  const double util_integral = server.cpu_util_integral();

  if (window > 0.0) {
    const uint64_t delta_completed = completed - last_completed_;
    s.throughput = quantize_decimal(static_cast<double>(delta_completed) / window, 6);
    s.avg_response_time =
        delta_completed > 0
            ? quantize_decimal((rt_sum - last_rt_sum_) / static_cast<double>(delta_completed), 6)
            : 0.0;
    s.concurrency = quantize_decimal((conc_integral - last_concurrency_integral_) / window, 4);
    s.cpu_util = quantize_decimal((util_integral - last_util_integral_) / window, 4);
  }

  last_time_ = now;
  last_completed_ = completed;
  last_rt_sum_ = rt_sum;
  last_concurrency_integral_ = conc_integral;
  last_util_integral_ = util_integral;
  return s;
}

const std::string& MonitorAgent::vm_id() const { return vm_->id(); }

bool MonitorAgent::silenced() const { return engine_->now() < silenced_until_; }

void MonitorAgent::tick() {
  if (vm_->state() == VmState::kStopped || vm_->state() == VmState::kFailed) {
    // Dead VMs report nothing: their agent died with them. Both states are
    // final, so the timer goes too rather than ticking a no-op every period
    // until the run ends.
    timer_.cancel();
    return;
  }
  if (silenced()) return;  // fault-injected agent silence
  const MetricSample sample = collect();
  producer_->send(route_, encode(sample), sample.time);
}

MonitorFleet::MonitorFleet(sim::Engine& engine, NTierApp& app, bus::Broker& broker,
                           sim::SimTime period, sim::SimTime retention)
    : engine_(&engine), producer_(broker), period_(period) {
  if (broker.find_topic(kMetricsTopic) == nullptr) {
    bus::TopicConfig config;
    config.partitions = 4;
    config.retention = retention;
    broker.create_topic(kMetricsTopic, config);
  }
  // Periodically expire old metric records, like Kafka's log cleaner.
  retention_timer_ = engine.schedule_periodic(
      sim::from_seconds(10.0), [&broker, &engine] { broker.enforce_retention(engine.now()); });

  for (size_t depth = 0; depth < app.tier_count(); ++depth) {
    Tier& tier = app.tier(depth);
    for (const auto& vm : tier.vms()) attach(*vm, static_cast<int>(depth));
    tier.add_vm_activated_callback([this, depth](Vm& vm) { attach(vm, static_cast<int>(depth)); });
  }
}

bool MonitorFleet::silence_vm(const std::string& vm_id, sim::SimTime until) {
  for (auto& agent : agents_) {
    if (agent->vm_id() == vm_id) {
      agent->silence_until(until);
      return true;
    }
  }
  return false;
}

void MonitorFleet::attach(Vm& vm, int depth) {
  agents_.push_back(std::make_unique<MonitorAgent>(*engine_, vm, depth, producer_, period_));
}

}  // namespace dcm::ntier
