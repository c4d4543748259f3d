// Bursty-workload autoscaling: DCM vs hardware-only EC2-AutoScale.
//
//   $ ./bursty_autoscaling [trace.csv|pattern] [output_prefix]
//
// Replays a user-count trace (a CSV path or a taxonomy pattern name;
// default: the built-in Large-Variation trace) against both controllers and
// writes per-second CSV timelines — the data behind the paper's Fig. 5
// panels — to <prefix>_dcm.csv / <prefix>_ec2.csv.
//
// Thin client of the scenario registry: the two runs are the registered
// "fig5" / "fig5-ec2" scenarios; a trace on the command line overrides
// their workload.trace. All output goes through the shared dcm-result-v1
// writers.
#include <cstdio>
#include <fstream>
#include <string>

#include "dcm.h"

using namespace dcm;

namespace {

core::ExperimentResult run_scenario(const char* name, const char* trace_csv,
                                    core::ExperimentConfig* config_out) {
  scenario::Scenario spec = scenario::get_scenario(name);
  if (trace_csv != nullptr) spec.workload.trace = trace_csv;
  *config_out = spec.experiment();
  return core::run_experiment(*config_out);
}

void write_csv(const std::string& path, const core::ExperimentResult& result,
               const workload::Trace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  scenario::write_timeline_csv(out, result, &trace);
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);  // keep the console output compact
  const char* trace_csv = argc > 1 ? argv[1] : nullptr;
  const std::string prefix = argc > 2 ? argv[2] : "bursty";

  core::ExperimentConfig dcm_config;
  core::ExperimentConfig ec2_config;
  const auto dcm = run_scenario("fig5", trace_csv, &dcm_config);
  const auto ec2 = run_scenario("fig5-ec2", trace_csv, &ec2_config);

  const workload::Trace& trace = dcm_config.workload.trace;
  std::printf("trace: %zu s, users %0.f mean / %d peak\n\n", trace.step_count(),
              trace.mean_users(), trace.max_users());

  scenario::print_comparison({"DCM", "EC2-AutoScale"}, {&dcm, &ec2});

  write_csv(prefix + "_dcm.csv", dcm, trace);
  write_csv(prefix + "_ec2.csv", ec2, ec2_config.workload.trace);
  std::printf("\nwrote %s_dcm.csv and %s_ec2.csv\n", prefix.c_str(), prefix.c_str());
  return 0;
}
