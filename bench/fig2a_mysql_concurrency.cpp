// Fig. 2(a) — Impact of request-processing concurrency on MySQL.
//
// A JMeter closed loop with zero think time stresses the MySQL-only
// deployment at precisely controlled concurrency (the worker cap matches
// the user count, the paper's "matching thread pool" discipline). Expected
// shape: throughput peaks near concurrency 40, stays reasonable through 80,
// then collapses toward 600.
#include <cstdio>

#include "common/table.h"
#include "core/topologies.h"
#include "sim/engine.h"
#include "workload/closed_loop.h"

namespace {

struct Point {
  int concurrency;
  double throughput;
  double response_ms;
};

Point measure(int concurrency) {
  using namespace dcm;
  sim::Engine engine;
  // A one-node db graph whose worker cap matches the offered concurrency.
  core::TopologySpec mysql_only;
  mysql_only.kind = core::TopologySpec::Kind::kGraph;
  mysql_only.nodes = {{"mysql", "db"}};
  ntier::NTierApp app(engine, core::build_service_graph(mysql_only, {1, 1, 1}, {}, 1), 1);
  app.tier(0).set_thread_pool_size(concurrency);
  const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
  workload::ClosedLoopConfig config;
  config.users = concurrency;
  config.seed = 1000 + static_cast<uint64_t>(concurrency);
  workload::ClosedLoopGenerator generator(
      engine, app, workload::graph_request_factory(catalog, *app.graph()), std::move(config));
  generator.start();
  const double duration = 60.0;
  engine.run_until(sim::from_seconds(duration));
  Point p;
  p.concurrency = concurrency;
  p.throughput = generator.stats().mean_throughput(sim::from_seconds(10.0),
                                                   sim::from_seconds(duration));
  p.response_ms = generator.stats().response_time_stats().mean() * 1000.0;
  return p;
}

}  // namespace

int main() {
  using namespace dcm;
  std::puts("=== Fig. 2(a): MySQL throughput vs request processing concurrency ===");
  std::puts("(paper: peak near concurrency 40; reasonable 20-80; collapse by 600)\n");

  const ntier::CpuModelConfig cpu = core::mysql_cpu_model();
  TextTable table({"concurrency", "throughput_qps", "eq7_predicted_qps", "mean_latency_ms"});
  double peak = 0.0;
  int peak_n = 0;
  for (const int n : {1, 5, 10, 20, 30, 36, 40, 50, 60, 80, 100, 120, 160, 200, 300, 400, 600}) {
    const Point p = measure(n);
    table.add_row({static_cast<double>(p.concurrency), p.throughput, cpu.throughput_at(n),
                   p.response_ms});
    if (p.throughput > peak) {
      peak = p.throughput;
      peak_n = n;
    }
  }
  table.print();
  std::printf("\nmeasured peak: %.1f qps at concurrency %d (paper knee: ~40)\n", peak, peak_n);
  return 0;
}
