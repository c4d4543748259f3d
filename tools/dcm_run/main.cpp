// dcm_run — scenario & sweep CLI over the registry.
//
//   dcm_run list
//       One line per registered scenario: name + summary.
//   dcm_run show <scenario|file.ini>
//       Print the registered INI text (for a file: its canonical form).
//   dcm_run run <scenario|file.ini> [options]
//       Run one scenario.
//   dcm_run sweep <scenario|file.ini> --axis section.key=v1,v2,... [options]
//       Expand the axes' cartesian grid and run every point.
//   dcm_run bench [scenario...] [--reps N] [--json path|-] [--quiet]
//       Macro benchmark: events/sec + simulated-seconds per wall-second for
//       the named scenarios (default: the committed BENCH_macro.json suite),
//       each run digest-verified against the scenario registry. Exit 1 on
//       any digest mismatch.
//   dcm_run tournament [scenario...] [--controllers a,b,...] [options]
//       Race the controller zoo: sweep every named controller (default: all
//       registered) across the named scenarios (default: quickstart, fig5,
//       chaos-resilience) with pinned seeds, and print the ranked scorecard
//       (SLO-violation seconds, VM-hours, actuation churn). --digest prints
//       only "scorecard_digest <n>" (bit-identical for any --jobs).
//   dcm_run report [figure...] [--quiet]
//       Reproduce the paper's evaluation: for each named figure (default:
//       all, in paper order) print its tables, then its claims table — each
//       claim a metric over the figure's registered runs and a bound. Exit 1
//       if any claim fails; stderr names it. --quiet prints only the claims.
//
// Options (run and sweep):
//   --set section.key=value   override a base-scenario field (repeatable;
//                             splits at the first '=' only, so comma-valued
//                             keys like controller.app_model work)
//   --trace                   enable request tracing (same as --set
//                             trace.enabled=true; core digests unchanged)
//   --trace-rate R            head-sampling probability in [0,1] (implies
//                             --trace; default 1)
//   --jobs N                  worker threads (sweep; 0 = all cores; default 1)
//   --seed-policy derive|fixed  per-run seeds derived from the root seed
//                             (default) or pinned to it (paired comparisons)
//   --json <path|->           write dcm-result-v1 JSON (- = stdout)
//   --csv <prefix>            write <prefix>_run<i>_timeline.csv per run
//   --digest                  print only the digest line — "result_digest
//                             <n>" for run (the canonical registry-pinned
//                             digest), "sweep_digest <n>" for sweep (CI's
//                             jobs-invariance compare relies on both being
//                             bit-stable)
//   --quiet                   suppress per-run summary tables
//
// Exit status: 0 on success, 1 on any failure, 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "common/table.h"
#include "scenario/macro_bench.h"
#include "scenario/registry.h"
#include "scenario/report.h"
#include "scenario/result_writer.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "scenario/tournament.h"

using namespace dcm;

namespace {

struct Options {
  std::string command;
  std::string target;
  std::vector<std::string> targets;  // bench/tournament scenarios, report figures
  std::vector<std::string> sets;
  std::vector<std::string> axes;
  std::vector<std::string> controllers;  // tournament; empty = all registered
  int jobs = 1;
  int reps = 3;
  scenario::SeedPolicy seed_policy = scenario::SeedPolicy::kDerivePerRun;
  std::string json_path;
  std::string csv_prefix;
  bool digest_only = false;
  bool quiet = false;
  bool trace = false;
  double trace_rate = -1.0;  // < 0 = keep the scenario's rate
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s list\n"
               "       %s show <scenario|file.ini>\n"
               "       %s run <scenario|file.ini> [--set s.k=v]... [--json path|-]\n"
               "             [--csv prefix] [--trace] [--trace-rate R] [--digest] [--quiet]\n"
               "       %s sweep <scenario|file.ini> --axis s.k=v1,v2,... [--axis ...]\n"
               "             [--jobs N] [--seed-policy derive|fixed] [--set s.k=v]...\n"
               "             [--json path|-] [--csv prefix] [--trace] [--trace-rate R]\n"
               "             [--digest] [--quiet]\n"
               "       %s bench [scenario...] [--reps N] [--json path|-] [--quiet]\n"
               "       %s tournament [scenario...] [--controllers a,b,...] [--jobs N]\n"
               "             [--set s.k=v]... [--json path|-] [--csv prefix] [--digest]\n"
               "             [--quiet]\n"
               "       %s report [figure...] [--quiet]\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

// Every --set as a "section.key" → value pair, in command-line order.
std::vector<std::pair<std::string, std::string>> parse_sets(const std::vector<std::string>& sets) {
  std::vector<std::pair<std::string, std::string>> overrides;
  for (const std::string& set : sets) {
    const size_t eq = set.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("--set " + set + " needs section.key=value");
    }
    overrides.emplace_back(trim(set.substr(0, eq)), trim(set.substr(eq + 1)));
  }
  return overrides;
}

// A registry name, or a path to an INI file (anything with a '.' or '/' is
// treated as a path so `dcm_run run my/exp.ini` needs no flag).
scenario::Scenario load_target(const std::string& target) {
  if (scenario::has_scenario(target)) return scenario::get_scenario(target);
  if (target.find('/') != std::string::npos || target.find('.') != std::string::npos) {
    return scenario::Scenario::load(target);
  }
  return scenario::get_scenario(target);  // throws with the known-name list
}

int cmd_list() {
  TextTable table({"scenario", "summary"});
  for (const auto& name : scenario::scenario_names()) {
    table.add_row({name, scenario::get_scenario(name).summary});
  }
  table.print();
  return 0;
}

int cmd_show(const std::string& target) {
  if (scenario::has_scenario(target)) {
    std::fputs(scenario::scenario_text(target).c_str(), stdout);
  } else {
    // For a file: parse (strict) and print the canonical emission.
    std::fputs(load_target(target).to_text().c_str(), stdout);
  }
  return 0;
}

void write_outputs(const Options& opts, const std::string& name,
                   const std::vector<scenario::SweepRun>& runs) {
  if (opts.digest_only) {
    // A single `run` prints the canonical per-run digest — the number the
    // scenario registry pins — under its own label; sweeps print the merged
    // sweep digest, labelled explicitly so the two can never be confused.
    if (opts.command == "run" && runs.size() == 1) {
      std::printf("result_digest %llu\n",
                  static_cast<unsigned long long>(scenario::result_digest(runs[0].result)));
    } else {
      std::printf("sweep_digest %llu\n",
                  static_cast<unsigned long long>(scenario::sweep_digest(runs)));
    }
  }
  if (!opts.json_path.empty()) {
    if (opts.json_path == "-") {
      scenario::write_result_json(std::cout, name, runs);
    } else {
      std::ofstream out(opts.json_path);
      if (!out) throw std::runtime_error("cannot open " + opts.json_path);
      scenario::write_result_json(out, name, runs);
      if (!opts.digest_only) std::printf("wrote %s\n", opts.json_path.c_str());
    }
  }
  if (!opts.csv_prefix.empty()) {
    for (const auto& run : runs) {
      const std::string path =
          opts.csv_prefix + "_run" + std::to_string(run.index) + "_timeline.csv";
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot open " + path);
      // Trace-driven runs get the offered-users column.
      const auto experiment = run.scenario.experiment();
      const workload::Trace* trace =
          experiment.workload.kind == core::WorkloadSpec::Kind::kTrace
              ? &experiment.workload.trace
              : nullptr;
      scenario::write_timeline_csv(out, run.result, trace);
      if (!opts.digest_only) std::printf("wrote %s\n", path.c_str());
      if (run.result.trace_report != nullptr) {
        const std::string spans_path =
            opts.csv_prefix + "_run" + std::to_string(run.index) + "_spans.csv";
        std::ofstream spans_out(spans_path);
        if (!spans_out) throw std::runtime_error("cannot open " + spans_path);
        scenario::write_spans_csv(spans_out, run.result);
        if (!opts.digest_only) std::printf("wrote %s\n", spans_path.c_str());
      }
    }
  }
}

int cmd_bench(const Options& opts) {
  scenario::MacroBenchOptions bench;
  bench.scenarios = opts.targets;
  bench.repetitions = opts.reps;
  const auto rows = scenario::run_macro_suite(bench);
  if (!opts.quiet) scenario::print_macro_table(rows);
  if (!opts.json_path.empty()) {
    if (opts.json_path == "-") {
      scenario::write_macro_json(std::cout, rows);
    } else {
      std::ofstream out(opts.json_path);
      if (!out) throw std::runtime_error("cannot open " + opts.json_path);
      scenario::write_macro_json(out, rows);
      if (!opts.quiet) std::printf("wrote %s\n", opts.json_path.c_str());
    }
  }
  if (!scenario::all_digests_ok(rows)) {
    std::fprintf(stderr,
                 "dcm_run: bench digest mismatch against the scenario registry — "
                 "the simulation's output changed\n");
    return 1;
  }
  return 0;
}

int cmd_tournament(const Options& opts) {
  scenario::TournamentOptions tournament_opts;
  if (!opts.targets.empty()) tournament_opts.scenarios = opts.targets;
  tournament_opts.controllers = opts.controllers;
  tournament_opts.jobs = opts.jobs;
  tournament_opts.overrides = parse_sets(opts.sets);

  const scenario::Tournament tournament = scenario::run_tournament(tournament_opts);

  if (opts.digest_only) {
    std::printf("scorecard_digest %llu\n",
                static_cast<unsigned long long>(scenario::scorecard_digest(tournament)));
  } else if (!opts.quiet) {
    scenario::print_tournament(tournament);
  }
  if (!opts.json_path.empty()) {
    if (opts.json_path == "-") {
      scenario::write_tournament_json(std::cout, tournament);
    } else {
      std::ofstream out(opts.json_path);
      if (!out) throw std::runtime_error("cannot open " + opts.json_path);
      scenario::write_tournament_json(out, tournament);
      if (!opts.digest_only && !opts.quiet) std::printf("wrote %s\n", opts.json_path.c_str());
    }
  }
  if (!opts.csv_prefix.empty()) {
    const std::string path = opts.csv_prefix + "_tournament.csv";
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    scenario::write_tournament_csv(out, tournament);
    if (!opts.digest_only && !opts.quiet) std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

int cmd_report(const Options& opts) {
  const std::vector<std::string> known = scenario::figure_names();
  for (const std::string& figure : opts.targets) {
    if (std::find(known.begin(), known.end(), figure) != known.end()) continue;
    std::string list;
    for (const std::string& name : known) list += (list.empty() ? "" : ", ") + name;
    std::fprintf(stderr, "dcm_run: unknown figure '%s' (figures: %s)\n", figure.c_str(),
                 list.c_str());
    return 2;
  }
  std::vector<scenario::Claim> claims;
  for (const std::string& figure : opts.targets.empty() ? known : opts.targets) {
    const std::vector<scenario::Claim> figure_claims = scenario::run_figure(figure, !opts.quiet);
    if (!opts.quiet) {
      std::printf("\n--- claims ---\n%s\n", scenario::render_claims(figure_claims).c_str());
    }
    claims.insert(claims.end(), figure_claims.begin(), figure_claims.end());
  }
  if (opts.quiet) std::fputs(scenario::render_claims(claims).c_str(), stdout);
  int status = 0;
  for (const scenario::Claim& claim : claims) {
    if (claim.holds()) continue;
    status = 1;
    std::fprintf(stderr, "dcm_run: claim %s failed: %s: %s does not hold\n", claim.id.c_str(),
                 claim.metric.c_str(), claim.verdict_text().c_str());
  }
  return status;
}

int cmd_run_or_sweep(const Options& opts) {
  // --trace / --trace-rate are spellings of trace.* overrides, applied
  // before --set so an explicit --set trace.* still wins.
  std::vector<std::pair<std::string, std::string>> overrides;
  if (opts.trace) overrides.emplace_back("trace.enabled", "true");
  if (opts.trace_rate >= 0.0) {
    overrides.emplace_back("trace.rate", str_format("%.17g", opts.trace_rate));
  }
  for (auto& set : parse_sets(opts.sets)) overrides.push_back(std::move(set));

  scenario::SweepPlan plan;
  plan.base = load_target(opts.target).with_overrides(overrides);
  plan.seed_policy = opts.seed_policy;
  // A single run IS the canonical run: it must keep the scenario's root seed
  // (derive-per-run seeding would silently swap in derive_seed(root, 0) and
  // print a digest nothing in the registry pins).
  if (opts.command == "run") plan.seed_policy = scenario::SeedPolicy::kFixed;
  for (const auto& axis : opts.axes) plan.axes.push_back(scenario::parse_axis(axis));

  scenario::SweepRunner runner(std::move(plan), opts.jobs);
  if (!opts.digest_only && !opts.quiet) {
    std::printf("%zu run(s), %d worker(s)\n", runner.planned().size(), runner.jobs());
  }
  const std::vector<scenario::SweepRun> runs = runner.run();

  if (!opts.digest_only && !opts.quiet) {
    for (const auto& run : runs) {
      std::printf("--- run %zu: %s", run.index, run.scenario.name.c_str());
      for (const auto& [key, value] : run.overrides) {
        std::printf(" %s=%s", key.c_str(), value.c_str());
      }
      std::printf(" (seed %llu) ---\n", static_cast<unsigned long long>(run.scenario.seed));
      scenario::print_summary(run.result);
      scenario::print_trace_summary(run.result);
      std::puts("");
    }
  }
  write_outputs(opts, runs.size() == 1 ? runs[0].scenario.name : opts.target, runs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  Options opts;
  opts.command = argv[1];

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dcm_run: %s needs an argument\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--set") {
      opts.sets.push_back(next());
    } else if (arg == "--reps") {
      const auto parsed = parse_int(next());
      if (!parsed || *parsed < 1) return usage(argv[0]);
      opts.reps = static_cast<int>(*parsed);
    } else if (arg == "--axis") {
      opts.axes.push_back(next());
    } else if (arg == "--controllers") {
      for (const auto& name : split(next(), ',')) {
        const std::string trimmed{trim(name)};
        if (!trimmed.empty()) opts.controllers.push_back(trimmed);
      }
    } else if (arg == "--jobs") {
      const auto parsed = parse_int(next());
      if (!parsed) return usage(argv[0]);
      opts.jobs = static_cast<int>(*parsed);
    } else if (arg == "--seed-policy") {
      const std::string policy = next();
      if (policy == "derive") {
        opts.seed_policy = scenario::SeedPolicy::kDerivePerRun;
      } else if (policy == "fixed") {
        opts.seed_policy = scenario::SeedPolicy::kFixed;
      } else {
        std::fprintf(stderr, "dcm_run: unknown seed policy '%s'\n", policy.c_str());
        return 2;
      }
    } else if (arg == "--json") {
      opts.json_path = next();
    } else if (arg == "--csv") {
      opts.csv_prefix = next();
    } else if (arg == "--trace") {
      opts.trace = true;
    } else if (arg == "--trace-rate") {
      const auto parsed = parse_double(next());
      if (!parsed || *parsed < 0.0 || *parsed > 1.0) {
        std::fprintf(stderr, "dcm_run: --trace-rate needs a value in [0, 1]\n");
        return 2;
      }
      opts.trace = true;
      opts.trace_rate = *parsed;
    } else if (arg == "--digest") {
      opts.digest_only = true;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "dcm_run: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else if (opts.command == "bench" || opts.command == "tournament" ||
               opts.command == "report") {
      opts.targets.push_back(arg);
    } else if (opts.target.empty()) {
      opts.target = arg;
    } else {
      return usage(argv[0]);
    }
  }

  set_log_level(LogLevel::kWarn);
  try {
    if (opts.command == "list") return cmd_list();
    if (opts.command == "bench") return cmd_bench(opts);
    if (opts.command == "tournament") return cmd_tournament(opts);
    if (opts.command == "report") return cmd_report(opts);
    if (opts.command == "show" && !opts.target.empty()) return cmd_show(opts.target);
    if ((opts.command == "run" || opts.command == "sweep") && !opts.target.empty()) {
      if (opts.command == "sweep" && opts.axes.empty()) {
        std::fprintf(stderr, "dcm_run: sweep needs at least one --axis\n");
        return 2;
      }
      return cmd_run_or_sweep(opts);
    }
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcm_run: error: %s\n", e.what());
    return 1;
  }
}
