// Ablation studies over DCM's design choices (DESIGN.md §5):
//   A1 — thread-pool headroom factor (paper: deploy more than the
//        theoretical N_b because not all threads stay active)
//   A2 — load-balancing policy (round-robin vs least-connections)
//   A3 — control period (responsiveness vs stability)
//   A4 — soft-resource adaptation only vs VM scaling only vs both
//   A5 — model quality (wrong models, with and without online refit)
//
// A1/A3/A5 are declarative sweeps over registered scenarios (fixed seed, so
// every variant faces the identical trace); A4 compares three registered
// scenarios directly; A2 stays hand-wired because the LB policy is a
// topology-level knob the scenario schema deliberately doesn't expose.
#include <cstdio>

#include "common/table.h"
#include "core/experiment.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "workload/closed_loop.h"

using namespace dcm;

namespace {

void add_result_row(TextTable& table, const std::string& label,
                    const core::ExperimentResult& r) {
  table.add_row({label, format_number(r.mean_response_time * 1e3, 1),
                 format_number(r.p95_response_time * 1e3, 1),
                 format_number(r.max_response_time * 1e3, 1),
                 format_number(r.mean_throughput, 1),
                 std::to_string(r.action_count("scale_out"))});
}

TextTable result_table() {
  return TextTable({"variant", "rt_mean_ms", "rt_p95_ms", "rt_max_ms", "x_req_s", "scale_outs"});
}

// One-axis sweep over a registered scenario, paired on the base root seed.
std::vector<scenario::SweepRun> axis_sweep(const char* scenario_name, const char* axis) {
  scenario::SweepPlan plan;
  plan.base = scenario::get_scenario(scenario_name);
  plan.axes.push_back(scenario::parse_axis(axis));
  plan.seed_policy = scenario::SeedPolicy::kFixed;
  return scenario::SweepRunner(std::move(plan), /*jobs=*/0).run();
}

core::ExperimentResult run_scenario(const char* name) {
  return core::run_experiment(scenario::get_scenario(name).experiment());
}

}  // namespace

int main() {
  std::puts("=== Ablation studies ===\n");

  {
    std::puts("--- A1: DCM thread-pool headroom factor ---");
    TextTable table = result_table();
    for (const auto& run : axis_sweep("fig5", "controller.headroom=1,1.25,1.5,2,3")) {
      add_result_row(table, "headroom=" + run.overrides[0].second, run.result);
    }
    table.print();
    std::puts("");
  }

  {
    std::puts("--- A3: control period (EC2-AutoScale baseline) ---");
    TextTable table = result_table();
    for (const auto& run : axis_sweep("fig5-ec2", "controller.control_period=5,15,30,60")) {
      add_result_row(table, "period=" + run.overrides[0].second + "s", run.result);
    }
    table.print();
    std::puts("");
  }

  {
    std::puts("--- A4: which DCM level does the work? ---");
    TextTable table = result_table();
    add_result_row(table, "vm-scaling only (EC2)", run_scenario("fig5-ec2"));
    add_result_row(table, "soft-resources only", run_scenario("ablation-soft-only"));
    add_result_row(table, "full DCM (both levels)", run_scenario("fig5"));
    table.print();
    std::puts("");
  }

  {
    std::puts("--- A5: model quality — what if DCM's trained models are wrong? ---");
    TextTable table = result_table();
    add_result_row(table, "correct models", run_scenario("fig5"));
    // Badly wrong models (optima near the default pools, N_b ≈ 200/160):
    // DCM degenerates to hardware-only behaviour — then online refitting
    // from monitoring samples recovers it.
    const auto wrong =
        axis_sweep("ablation-wrong-models", "controller.online_estimation=false,true");
    add_result_row(table, "wrong models (N_b 200/160)", wrong[0].result);
    add_result_row(table, "wrong models + online refit", wrong[1].result);
    table.print();
    std::puts("");
  }

  {
    std::puts("--- A2: static allocation sensitivity at fixed 1/2/1 (LB stress) ---");
    // Round-robin vs least-connections is wired at topology level; compare
    // under heterogeneous load by skewing demand variability.
    TextTable table({"lb_policy", "x_req_s", "rt_mean_ms"});
    for (const auto policy : {ntier::LbPolicy::kRoundRobin, ntier::LbPolicy::kLeastConnections}) {
      core::ExperimentConfig config;
      config.hardware = {1, 2, 1};
      config.soft = {1000, 100, 18};
      config.workload = core::WorkloadSpec::rubbos(400);
      config.controller = core::ControllerSpec::none();
      config.duration_seconds = 150.0;
      config.warmup_seconds = 50.0;

      // Build manually to override the LB policy.
      sim::Engine engine;
      const ntier::ServiceGraph chain =
          core::build_service_graph(config.topology, config.hardware, config.soft);
      std::vector<ntier::ServiceNode> nodes = chain.nodes();
      for (auto& node : nodes) node.tier.lb_policy = policy;
      ntier::NTierApp app(engine, ntier::ServiceGraph(std::move(nodes), chain.edges()),
                          config.seed);
      const workload::ServletCatalog catalog = workload::ServletCatalog::browse_only_mix();
      auto generator = workload::make_rubbos_clients(engine, app, catalog, 400);
      generator->start();
      engine.run_until(sim::from_seconds(config.duration_seconds));
      const double x = generator->stats().mean_throughput(
          sim::from_seconds(config.warmup_seconds),
          sim::from_seconds(config.duration_seconds));
      table.add_row({policy == ntier::LbPolicy::kRoundRobin ? "round-robin" : "least-conn",
                     format_number(x, 1),
                     format_number(generator->stats().response_time_stats().mean() * 1e3, 1)});
    }
    table.print();
  }
  return 0;
}
