// Online model estimation from live monitoring data (paper Sec. III-C:
// "determine these parameters via online monitoring of the whole system,
// then regress").
//
//   $ ./online_model_fitting
//
// Runs the 3-tier system under a slowly ramping workload, feeds the
// per-second bus samples into OnlineModelEstimator exactly as the DCM
// controller would, and compares the fitted optimum against the ground
// truth the simulator was built with.
#include <cstdio>

#include "bus/consumer.h"
#include "dcm.h"

using namespace dcm;

int main() {
  set_log_level(LogLevel::kWarn);

  sim::Engine engine;
  // Wide-open pools so the ramp explores a broad concurrency range.
  ntier::NTierApp app(
      engine, core::build_service_graph(core::TopologySpec{}, {1, 1, 1}, {1000, 400, 400}), 1);
  bus::Broker broker;
  ntier::MonitorFleet fleet(engine, app, broker);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();

  // Ramp 5 → 400 JMeter users over 400 s: concurrency sweeps the curve.
  auto generator = workload::make_jmeter(engine, app, catalog, 5);
  std::vector<int> ramp;
  for (int t = 0; t < 400; ++t) ramp.push_back(5 + t);
  const workload::Trace trace(ramp);
  workload::TracePlayer player(engine, *generator, trace);
  player.start();

  bus::Consumer consumer(broker, "fitting-demo", ntier::kMetricsTopic);
  control::OnlineModelEstimator tomcat_estimator;
  control::OnlineModelEstimator mysql_estimator;

  // Poll the bus every 15 s, as the controller does, printing fit progress.
  engine.schedule_periodic(sim::from_seconds(15.0), [&] {
    for (const auto& record : consumer.poll(4096)) {
      const auto sample = ntier::decode(record.value());
      if (!sample || sample->vm_state != ntier::VmState::kActive) continue;
      const std::string& tier = app.tier(static_cast<size_t>(sample->depth)).name();
      if (tier == "tomcat") {
        tomcat_estimator.observe(sample->concurrency, sample->throughput);
      } else if (tier == "mysql") {
        mysql_estimator.observe(sample->concurrency, sample->throughput);
      }
    }
    const auto tomcat_fit = tomcat_estimator.fit(1, 1.0);
    std::printf("t=%5.0fs  tomcat bins=%2zu  N_b=%s\n", sim::to_seconds(engine.now()),
                tomcat_estimator.bin_count(),
                tomcat_fit ? format_number(tomcat_fit->optimal_concurrency(), 1).c_str()
                           : "(not ready)");
  });

  engine.run_until(sim::from_seconds(400.0));

  const auto tomcat_fit = tomcat_estimator.fit(1, 1.0);
  const auto mysql_fit = mysql_estimator.fit(1, core::kDbVisitRatio);
  std::puts("\n=== final fits vs simulator ground truth ===");
  if (tomcat_fit) {
    std::printf("tomcat: fitted N_b=%.1f (truth %d), R²=%.3f over %d samples\n",
                tomcat_fit->optimal_concurrency(),
                core::tomcat_reference_model().optimal_concurrency_int(),
                tomcat_fit->r_squared, tomcat_fit->samples);
  } else {
    std::puts("tomcat: not enough concurrency spread to fit");
  }
  if (mysql_fit) {
    std::printf("mysql : fitted N_b=%.1f (truth %d), R²=%.3f over %d samples\n",
                mysql_fit->optimal_concurrency(),
                core::mysql_reference_model().optimal_concurrency_int(), mysql_fit->r_squared,
                mysql_fit->samples);
  } else {
    std::puts("mysql : not enough concurrency spread to fit");
  }
  std::puts("\n(N_b sits on Eq. 7's flat plateau — fits within ±40% of the truth still");
  std::puts(" deploy allocations within ~1% of peak throughput; see EXPERIMENTS.md)");
  return 0;
}
