// Failure drill: VM crashes under live load, with and without a controller.
//
//   $ ./failure_drill
//
// Injects a Tomcat crash at t=120 s and a MySQL crash at t=240 s while
// realistic clients drive the system, and shows how the EC2-AutoScale
// controller detects the lost capacity (utilisation of the survivors
// spikes) and boots replacements — versus an uncontrolled deployment that
// stays degraded.
#include <cstdio>

#include "bus/broker.h"
#include "control/ec2_autoscale.h"
#include "dcm.h"

using namespace dcm;

namespace {

struct DrillOutcome {
  double x_before, x_degraded, x_recovered;
  uint64_t errors;
  int replacements;
};

DrillOutcome run_drill(bool with_controller) {
  sim::Engine engine;
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 2, 2}, {1000, 100, 40}), 1);
  bus::Broker broker;
  ntier::MonitorFleet fleet(engine, app, broker);
  std::unique_ptr<control::Ec2AutoScaleController> controller;
  if (with_controller) {
    controller = std::make_unique<control::Ec2AutoScaleController>(engine, app, broker);
    controller->start();
  }

  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  auto generator = workload::make_rubbos_clients(engine, app, catalog, 400);
  generator->start();

  engine.schedule_at(sim::from_seconds(120.0), [&] { app.tier(1).fail_one(); });
  engine.schedule_at(sim::from_seconds(240.0), [&] { app.tier(2).fail_one(); });
  engine.run_until(sim::from_seconds(480.0));

  DrillOutcome outcome;
  const auto& stats = generator->stats();
  outcome.x_before = stats.mean_throughput(sim::from_seconds(60.0), sim::from_seconds(120.0));
  outcome.x_degraded = stats.mean_throughput(sim::from_seconds(125.0), sim::from_seconds(180.0));
  outcome.x_recovered =
      stats.mean_throughput(sim::from_seconds(360.0), sim::from_seconds(480.0));
  outcome.errors = stats.errors();
  outcome.replacements = 0;
  if (controller) {
    for (const auto& action : controller->log().filtered("scale_out")) {
      (void)action;
      ++outcome.replacements;
    }
  }
  return outcome;
}

}  // namespace

int main() {
  set_log_level(LogLevel::kWarn);
  std::puts("=== failure drill: tomcat crash @120s, mysql crash @240s, 400 users ===\n");

  const DrillOutcome bare = run_drill(false);
  const DrillOutcome managed = run_drill(true);

  std::printf("%-28s %14s %14s\n", "", "uncontrolled", "EC2-AutoScale");
  std::printf("%-28s %11.1f/s %11.1f/s\n", "throughput before failures", bare.x_before,
              managed.x_before);
  std::printf("%-28s %11.1f/s %11.1f/s\n", "throughput just after crash", bare.x_degraded,
              managed.x_degraded);
  std::printf("%-28s %11.1f/s %11.1f/s\n", "throughput at end", bare.x_recovered,
              managed.x_recovered);
  std::printf("%-28s %14llu %14llu\n", "failed requests",
              static_cast<unsigned long long>(bare.errors),
              static_cast<unsigned long long>(managed.errors));
  std::printf("%-28s %14d %14d\n", "replacement scale-outs", bare.replacements,
              managed.replacements);
  std::puts("\n(the controller detects the survivors' saturation and restores capacity;");
  std::puts(" the uncontrolled deployment stays degraded for the rest of the run)");
  return 0;
}
