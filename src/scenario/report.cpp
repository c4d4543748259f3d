#include "scenario/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiment.h"
#include "scenario/registry.h"
#include "scenario/result_writer.h"
#include "scenario/sweep.h"
#include "workload/trace_taxonomy.h"

namespace dcm::scenario {
namespace {

using R = core::ExperimentResult;

// A table row, or a variant crossed with every row.
struct Variant {
  std::string label;
  std::vector<std::pair<std::string, std::string>> overrides;
  std::string scenario = "";  // "" = the table's scenario
};

// One printed metric, formatted as the figure has always printed it.
struct Column {
  std::string name;
  std::string (*cell)(const R&);
};

// A figure's sweep as data: every row crossed with every variant. Runs keep
// their scenario's root seed, so variants are paired comparisons; with
// seed_per_row a row's seed is derive_seed(root, <its first override's
// value>) — independent load levels, variants still paired within a row.
struct SweepTable {
  std::string scenario = "";
  std::string row_header = "variant";
  std::vector<Variant> rows = {};
  std::vector<Variant> variants = {Variant{}};
  std::vector<Column> columns = {};
  bool seed_per_row = false;
};

// A SweepTable's runs, row-major.
struct Grid {
  std::vector<SweepRun> runs;
  size_t width;
  const SweepRun& run(size_t row, size_t v = 0) const { return runs[row * width + v]; }
  const R& at(size_t row, size_t v = 0) const { return run(row, v).result; }
};

Grid run_grid(const SweepTable& table) {
  std::vector<PlannedRun> planned;
  for (const Variant& row : table.rows) {
    const Scenario base = get_scenario(row.scenario.empty() ? table.scenario : row.scenario);
    for (const Variant& variant : table.variants) {
      PlannedRun run{planned.size(), {}, row.overrides};
      run.overrides.insert(run.overrides.end(), variant.overrides.begin(),
                           variant.overrides.end());
      run.scenario = base.with_overrides(run.overrides);
      if (table.seed_per_row) {
        const auto key = parse_int(row.overrides.front().second);
        DCM_CHECK(key.has_value());
        run.scenario.seed = derive_seed(base.seed, static_cast<uint64_t>(*key));
      }
      planned.push_back(std::move(run));
    }
  }
  return {SweepRunner(std::move(planned), /*jobs=*/0).run(), table.variants.size()};
}

void print_grid(const SweepTable& table, const Grid& grid) {
  std::vector<std::string> header = {table.row_header};
  for (const Column& column : table.columns) {
    for (const Variant& v : table.variants) {
      const bool both = !v.label.empty() && !column.name.empty();
      header.push_back(v.label + (both ? "_" : "") + column.name);
    }
  }
  TextTable out(std::move(header));
  for (size_t r = 0; r < table.rows.size(); ++r) {
    std::vector<std::string> cells = {table.rows[r].label};
    for (const Column& column : table.columns) {
      for (size_t v = 0; v < grid.width; ++v) cells.push_back(column.cell(grid.at(r, v)));
    }
    out.add_row(std::move(cells));
  }
  out.print();
}

// Rows from an axis spec ("section.key=v1,v2,..."), labelled prefix+value+suffix.
std::vector<Variant> axis_rows(const std::string& spec, const std::string& prefix = "",
                               const std::string& suffix = "") {
  const SweepAxis axis = parse_axis(spec);
  std::vector<Variant> rows;
  for (const std::string& value : axis.values) {
    rows.push_back({prefix + value + suffix, {{axis.section + "." + axis.key, value}}});
  }
  return rows;
}

std::string ms(double seconds, int digits = 1) { return format_number(seconds * 1e3, digits); }
std::string x1(const R& r) { return format_number(r.mean_throughput, 1); }
std::string p95_ms1(const R& r) { return ms(r.p95_response_time); }

const std::vector<Column> kResultColumns = {
    {"rt_mean_ms", [](const R& r) { return ms(r.mean_response_time); }},
    {"rt_p95_ms", p95_ms1},
    {"rt_max_ms", [](const R& r) { return ms(r.max_response_time); }},
    {"x_req_s", x1},
    {"scale_outs", [](const R& r) { return std::to_string(r.action_count("scale_out")); }},
};

std::vector<Claim> fig2a(bool print) {
  const std::vector<core::SweepPoint> points = core::mysql_concurrency_sweep(
      {1, 5, 10, 20, 30, 36, 40, 50, 60, 80, 100, 120, 160, 200, 300, 400, 600});
  const auto eq7 = [](int n) { return core::mysql_cpu_model().throughput_at(n); };
  std::map<int, double> x;
  double peak = 0.0;
  int peak_n = 0;
  for (const auto& p : points) {
    x[p.concurrency] = p.throughput;
    if (p.throughput > peak) std::tie(peak, peak_n) = std::pair{p.throughput, p.concurrency};
  }
  if (print) {
    std::puts("=== Fig. 2(a): MySQL throughput vs request processing concurrency ===");
    std::puts("(paper: peak near concurrency 40; reasonable 20-80; collapse by 600)\n");
    TextTable table({"concurrency", "throughput_qps", "eq7_predicted_qps", "mean_latency_ms"});
    for (const auto& p : points) {
      table.add_row({static_cast<double>(p.concurrency), p.throughput, eq7(p.concurrency),
                     p.response_time * 1000.0});
    }
    table.print();
    std::printf("\nmeasured peak: %.1f qps at concurrency %d (paper knee: ~40)\n", peak, peak_n);
  }
  std::vector<Claim> claims = {
      {"fig2a.peak-at-40", "Fig. 2a", "argmax_n X(n)", static_cast<double>(peak_n),
       Cmp::kEqual, 40},
      {"fig2a.rise-to-5", "Fig. 2a", "X(5) / X(1)", x[5] / x[1], Cmp::kGreater, 1.2},
      {"fig2a.rise-to-40", "Fig. 2a", "X(40) / X(5)", x[40] / x[5], Cmp::kGreater, 1.03},
      {"fig2a.band-20", "Fig. 2a", "X(20) / X(peak)", x[20] / peak, Cmp::kGreater, 0.7},
      {"fig2a.band-80", "Fig. 2a", "X(80) / X(peak)", x[80] / peak, Cmp::kGreater, 0.7},
      {"fig2a.collapse-160", "Fig. 2a", "X(160) / X(40)", x[160] / x[40], Cmp::kLess, 0.65},
      {"fig2a.collapse-600", "Fig. 2a", "X(600) / X(peak)", x[600] / peak, Cmp::kLess, 0.25},
  };
  for (const int n : {10, 36, 60}) {
    claims.push_back({str_format("fig2a.eq7-n%d", n), "Eq. 7",
                      str_format("|X(%d) - Eq7(%d)| / Eq7(%d)", n, n, n),
                      std::abs(x[n] - eq7(n)) / eq7(n), Cmp::kAtMost, 0.08});
  }
  return claims;
}

std::vector<Claim> fig2b(bool print) {
  const auto deployment = [](const char* label, const char* app, const char* conns) {
    return Variant{label, {{"hardware.app", app}, {"soft.db_connections", conns}}};
  };
  const SweepTable table{
      .scenario = "fig2b",
      .row_header = "users",
      .rows = axis_rows("workload.users=50,100,150,200,250,300,350,400,500"),
      .variants = {deployment("x_1/1/1_default", "1", "80"),
                   deployment("x_1/2/1_default", "2", "80"),
                   deployment("x_1/2/1_retuned", "2", "20")},
      .columns = {{"", x1}},
      .seed_per_row = true,
  };
  const Grid grid = run_grid(table);
  if (print) {
    std::puts("=== Fig. 2(b): scaling out the app tier without pool re-tuning ===");
    std::puts("(paper: 1/2/1 with default pools degrades below 1/1/1 at high load)\n");
    print_grid(table, grid);
    std::puts("\ncolumns are steady-state throughput in req/s");
  }
  double naive = 0.0;
  double retuned = 1e300;
  for (size_t r = 0; r < table.rows.size(); ++r) {
    if (grid.run(r).scenario.workload.users < 350) continue;
    naive = std::max(naive, grid.at(r, 1).mean_throughput / grid.at(r, 0).mean_throughput);
    retuned = std::min(retuned, grid.at(r, 2).mean_throughput / grid.at(r, 0).mean_throughput);
  }
  return {{"fig2b.naive-below-1/1/1", "Fig. 2b",
           "max over users >= 350 of X(1/2/1 default) / X(1/1/1)", naive, Cmp::kLess, 1},
          {"fig2b.retuned-above-1/1/1", "Fig. 2b",
           "min over users >= 350 of X(1/2/1 retuned) / X(1/1/1)", retuned, Cmp::kGreater, 1}};
}

std::vector<Claim> table1(bool print) {
  struct Training {
    const char* id;
    const char* model;
    size_t tier;  // graph node the model describes
    double visit_ratio, concurrency_cap, paper_nb;
    std::vector<int> offered;
  };
  // The registered table1-* deployments open the pools so concurrency
  // reaches the tier. Tomcat sweeps 1..200 at 1/1/1 as in the paper; MySQL
  // trains at 1/2/1 below the thrash region, which the quadratic Eq. 7 does
  // not model (the paper's R² = 0.97 likewise comes from the smooth regime).
  const Training trainings[] = {
      {"tomcat", "Tomcat", 1, 1.0, 220.0, 20.0,
       {1, 2, 4, 6, 8, 10, 14, 18, 22, 28, 35, 45, 60, 80, 100, 130, 160, 200}},
      {"mysql", "MySQL", 2, core::kDbVisitRatio, 62.0, 36.0,
       {2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 42, 48, 56, 64, 72, 80, 96, 110, 130}},
  };
  if (print) std::puts("=== Table I: concurrency-aware model training ===\n");
  std::vector<Claim> claims;
  for (const Training& spec : trainings) {
    const core::ModelTraining t = core::train_tier_model(
        get_scenario(std::string("table1-") + spec.id).experiment(), spec.tier,
        spec.visit_ratio, spec.concurrency_cap, spec.offered);
    const auto& n = t.normalized;
    const auto& k = t.known_s0;
    // Eq. 7 is nearly flat around the knee (<2% between N_b/2 and 2·N_b with
    // the paper's parameters), so N_b is weakly identified from throughput;
    // what matters for control is that the fitted optimum sits on the plateau.
    const double x_fit = n.model.throughput(n.optimal_concurrency());
    const double x_paper = n.model.throughput(spec.paper_nb);
    const double plateau_gap = 100.0 * std::abs(x_fit - x_paper) / std::max(x_fit, x_paper);
    if (print) {
      TextTable table({"parameter", "normalized_fit", "known_S0_fit"});
      const auto row = [&table](const char* name, double a, double b, int digits) {
        table.add_row({name, format_number(a, digits), format_number(b, digits)});
      };
      row("S0 (s)", n.model.params.s0, k.model.params.s0, 6);
      row("alpha (s)", n.model.params.alpha, k.model.params.alpha, 6);
      row("beta (s)", n.model.params.beta, k.model.params.beta, 8);
      row("gamma", n.model.gamma, k.model.gamma, 3);
      row("R^2", n.r_squared, k.r_squared, 4);
      row("N_b", n.optimal_concurrency(), k.optimal_concurrency(), 1);
      row("X_max (req/s)", n.max_throughput(), k.max_throughput(), 1);
      std::printf("--- %s model (paper N_b = %.0f, trained on %zu samples, max conc %.0f) ---\n",
                  spec.model, spec.paper_nb, t.samples, t.max_concurrency);
      table.print();
      std::printf("plateau check: X(fitted N_b)=%.1f vs X(paper N_b)=%.1f (%.2f%% apart)\n\n",
                  x_fit, x_paper, plateau_gap);
    }
    const std::string id = std::string("table1.") + spec.id;
    claims.push_back({id + "-r2", "Table I", std::string(spec.model) + " R^2 (normalized fit)",
                      n.r_squared, Cmp::kAtLeast, 0.98});
    claims.push_back({id + "-plateau", "Table I",
                      std::string(spec.model) + " |X(fitted N_b) - X(paper N_b)| / max (%)",
                      plateau_gap, Cmp::kLess, 2});
  }
  if (print) {
    std::puts("notes:");
    std::puts(" * normalized fit pins gamma=1 (N_b is invariant to the gamma scaling)");
    std::puts(" * the paper's gamma (11.03 / 4.45) absorbs its testbed's client scale;");
    std::puts("   the simulator's single-server training recovers gamma near 1 by design");
  }
  return claims;
}

std::vector<Claim> fig4(bool print) {
  // Per panel: the swept allocation (its second value is the model optimum,
  // its fourth the default) and the load from which the optimum must be the
  // largest column. At 300 users every (b) allocation from 18 up still
  // tracks offered load.
  struct Panel {
    const char* scenario;
    const char* title;
    const char* axis;
    const char* knob;
    int saturated_users;
  };
  const Panel panels[] = {
      {"fig4a", "--- (a) 1/1/1, Tomcat thread pool sweep (model optimum: 20) ---",
       "soft.app_threads=5,20,50,100,200", "stp=", 300},
      {"fig4b", "--- (b) 1/2/1, per-Tomcat DB connection sweep (model optimum: 18) ---",
       "soft.db_connections=5,18,40,80,120", "conns=", 400},
  };
  if (print) std::puts("=== Fig. 4: model validation under realistic RUBBoS clients ===\n");
  std::vector<Claim> claims;
  for (const Panel& panel : panels) {
    SweepTable table{panel.scenario, "users", axis_rows("workload.users=100,200,300,400,500,600"),
                     axis_rows(panel.axis, panel.knob),
                     {{"", [](const R& r) { return str_format("%.1f", r.mean_throughput); }}},
                     /*seed_per_row=*/true};
    table.variants[1].label += "*";
    table.variants[3].label += "(def)";
    const Grid grid = run_grid(table);
    if (print) {
      std::printf("%s\n", panel.title);
      print_grid(table, grid);
      std::puts("");
    }
    double margin = 1e300;
    for (size_t r = 0; r < table.rows.size(); ++r) {
      if (grid.run(r).scenario.workload.users < panel.saturated_users) continue;
      double other = 0.0;
      for (size_t v = 0; v < grid.width; ++v) {
        if (v != 1) other = std::max(other, grid.at(r, v).mean_throughput);
      }
      margin = std::min(margin, grid.at(r, 1).mean_throughput / other);
    }
    const std::string id = panel.scenario;
    claims.push_back({id + ".optimum-dominates", "Fig. " + id.substr(3),
                      str_format("min over users >= %d of X(%s) / best other",
                                 panel.saturated_users, table.variants[1].label.c_str()),
                      margin, Cmp::kGreater, 1});
    if (id == "fig4a") {  // row 4 = 500 users: the optimum 20 against the default 100
      claims.push_back(
          {"fig4a.gain-over-default", "Fig. 4a", "X(stp=20) / X(stp=100) - 1 at 500 users (%)",
           100.0 * (grid.at(4, 1).mean_throughput / grid.at(4, 3).mean_throughput - 1.0),
           Cmp::kGreater, 20});
    }
  }
  if (print) std::puts("(*) model-predicted optimal allocation; columns are req/s");
  return claims;
}

int soft_actions(const R& r) {
  return r.action_count("set_stp") + r.action_count("set_conns");
}

std::vector<Claim> fig5(bool print) {
  const SweepTable table{.rows = {{"DCM", {}, "fig5"}, {"EC2-AutoScale", {}, "fig5-ec2"}}};
  const Grid grid = run_grid(table);
  const R& dcm = grid.at(0);
  const R& ec2 = grid.at(1);
  if (print) {
    std::puts("=== Fig. 5: DCM vs EC2-AutoScale, 'Large Variation' bursty trace ===\n");
    for (size_t r = 0; r < table.rows.size(); ++r) {
      const core::ExperimentConfig experiment = grid.run(r).scenario.experiment();
      print_windowed_timeline(table.rows[r].label, grid.at(r), &experiment.workload.trace, 700);
    }
    std::puts("--- summary (post-warmup) ---");
    print_comparison({table.rows[0].label, table.rows[1].label}, {&dcm, &ec2});
    std::puts("\n(paper: EC2 case shows >1 s RT spikes at its scale events; DCM stays stable)");
  }
  const auto count = [](auto n) { return static_cast<double>(n); };
  const int scale_outs = std::min(dcm.action_count("scale_out"), ec2.action_count("scale_out"));
  return {
      {"fig5.ec2-spikes", "Fig. 5b", "EC2 max RT (s)", ec2.max_response_time, Cmp::kGreater, 1},
      {"fig5.dcm-max-rt", "Fig. 5a", "DCM / EC2 max RT",
       dcm.max_response_time / ec2.max_response_time, Cmp::kLess, 0.8},
      {"fig5.dcm-no-sla-violation", "Fig. 5a", "DCM seconds with RT > 1 s",
       count(dcm.sla_violation_seconds), Cmp::kEqual, 0},
      {"fig5.dcm-mean-rt", "Sec. V-B", "DCM / EC2 mean RT",
       dcm.mean_response_time / ec2.mean_response_time, Cmp::kLess, 1},
      {"fig5.dcm-p95-rt", "Sec. V-B", "DCM / EC2 p95 RT",
       dcm.p95_response_time / ec2.p95_response_time, Cmp::kLess, 1},
      {"fig5.dcm-completed", "Sec. V-B", "DCM / EC2 completed requests",
       count(dcm.completed) / count(ec2.completed), Cmp::kAtLeast, 0.98},
      {"fig5.dcm-soft-actions", "Sec. V-B", "DCM pool re-tunes", count(soft_actions(dcm)),
       Cmp::kAtLeast, 2},
      {"fig5.ec2-no-soft-actions", "Sec. V-B", "EC2 pool re-tunes", count(soft_actions(ec2)),
       Cmp::kEqual, 0},
      {"fig5.both-scale-out", "Fig. 5c-f", "min(DCM, EC2) scale-outs", count(scale_outs),
       Cmp::kAtLeast, 2},
      {"fig5.no-errors", "Sec. V-B", "DCM + EC2 errors", count(dcm.errors + ec2.errors),
       Cmp::kEqual, 0},
  };
}

std::vector<Claim> ablation(bool print) {
  if (print) std::puts("=== Ablation studies ===\n");
  const auto section = [print](const char* title, SweepTable table) {
    table.columns = kResultColumns;
    Grid grid = run_grid(table);
    if (print) {
      std::puts(title);
      print_grid(table, grid);
      std::puts("");
    }
    return grid;
  };
  section("--- A1: DCM thread-pool headroom factor ---",
          {"fig5", "variant", axis_rows("controller.headroom=1,1.25,1.5,2,3", "headroom=")});
  section("--- A3: control period (EC2-AutoScale baseline) ---",
          {"fig5-ec2", "variant",
           axis_rows("controller.control_period=5,15,30,60", "period=", "s")});
  const Grid levels = section("--- A4: which DCM level does the work? ---",
                              {"", "variant",
                               {{"vm-scaling only (EC2)", {}, "fig5-ec2"},
                                {"soft-resources only", {}, "ablation-soft-only"},
                                {"full DCM (both levels)", {}, "fig5"}}});
  // Badly wrong models (optima near the default pools, N_b ≈ 200/160):
  // DCM degenerates to hardware-only behaviour — then online refitting from
  // monitoring samples recovers it.
  section("--- A5: model quality — what if DCM's trained models are wrong? ---",
          {"ablation-wrong-models", "variant",
           {{"correct models", {}, "fig5"},
            {"wrong models (N_b 200/160)", {{"controller.online_estimation", "false"}}},
            {"wrong models + online refit", {{"controller.online_estimation", "true"}}}}});
  // A2 carries no claim, so it runs only when printed: the balancer policy
  // is a topology-level knob, compared at a fixed 1/2/1 allocation.
  if (print) {
    std::puts("--- A2: static allocation sensitivity at fixed 1/2/1 (LB stress) ---");
    core::ExperimentConfig config;
    config.hardware = {1, 2, 1};
    config.soft = {1000, 100, 18};
    config.workload = core::WorkloadSpec::rubbos(400);
    config.duration_seconds = 150.0;
    config.warmup_seconds = 50.0;
    TextTable table({"lb_policy", "x_req_s", "rt_mean_ms"});
    for (const auto policy : {ntier::LbPolicy::kRoundRobin, ntier::LbPolicy::kLeastConnections}) {
      const core::SweepPoint p = core::run_with_lb_policy(config, policy);
      table.add_row({policy == ntier::LbPolicy::kRoundRobin ? "round-robin" : "least-conn",
                     format_number(p.throughput, 1), ms(p.response_time)});
    }
    table.print();
  }
  const R& dcm = levels.at(2);
  const auto best = [&levels](double R::*field) {
    return std::min(levels.at(0).*field, levels.at(1).*field);
  };
  return {{"ablation.a4-p95", "Sec. IV", "full DCM / min(EC2, soft-only) p95 RT",
           dcm.p95_response_time / best(&R::p95_response_time), Cmp::kLess, 1},
          {"ablation.a4-max", "Sec. IV", "full DCM / min(EC2, soft-only) max RT",
           dcm.max_response_time / best(&R::max_response_time), Cmp::kLess, 1}};
}

std::vector<Claim> taxonomy(bool print) {
  std::string patterns;
  for (const auto pattern : workload::all_trace_patterns()) {
    patterns += (patterns.empty() ? "" : ",") + std::string(workload::trace_pattern_name(pattern));
  }
  const SweepTable table{
      .scenario = "fig5",
      .row_header = "pattern",
      .rows = axis_rows("workload.trace=" + patterns),
      .variants = {{"dcm", {{"controller.kind", "dcm"}}}, {"ec2", {{"controller.kind", "ec2"}}}},
      .columns = {{"rt_p95_ms", [](const R& r) { return ms(r.p95_response_time, 0); }},
                  {"rt_max_ms", [](const R& r) { return ms(r.max_response_time, 0); }},
                  {"x", x1}},
  };
  const Grid grid = run_grid(table);
  if (print) {
    std::puts("=== DCM vs EC2-AutoScale across the AutoScale trace taxonomy ===\n");
    print_grid(table, grid);
    std::puts("\n(the paper's Fig. 5 uses large-variation. DCM's max RT is well below EC2's on");
    std::puts(" the burst patterns: quickly-varying, big-spike, dual-phase, large-variation.");
    std::puts(" Its p95 is not: on big-spike EC2's is lower. Smooth patterns are near parity,");
    std::puts(" with slightly longer tails where DCM's tighter pools queue until a scale-out)");
  }
  std::vector<Claim> claims;
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const std::string& pattern = table.rows[r].label;
    if (pattern == "slowly-varying" || pattern == "steep-tri-phase") continue;
    claims.push_back({"taxonomy.max-rt-" + pattern, "beyond (AutoScale)", "DCM / EC2 max RT",
                      grid.at(r, 0).max_response_time / grid.at(r, 1).max_response_time,
                      Cmp::kLess, 1});
  }
  return claims;
}

std::vector<Claim> chaos(bool print) {
  const SweepTable table{
      .scenario = "chaos-resilience",
      .rows = {{"resilience on", {{"resilience.enabled", "true"}}},
               {"resilience off (baseline)", {{"resilience.enabled", "false"}}}},
      .columns = {{"goodput_req_s", [](const R& r) { return format_number(r.goodput, 1); }},
                  {"error_rate", [](const R& r) { return format_number(r.error_rate, 3); }},
                  {"timeouts", [](const R& r) { return std::to_string(r.timeouts); }},
                  {"retries", [](const R& r) { return std::to_string(r.retries); }},
                  {"x_req_s", x1},
                  {"rt_p95_ms", p95_ms1}},
  };
  const Grid grid = run_grid(table);
  const R& armed = grid.at(0);
  const R& baseline = grid.at(1);
  if (print) {
    std::puts("=== Chaos resilience: same fault schedule, stack on vs off ===\n");
    print_grid(table, grid);
    std::puts("\n--- Injected fault schedule (identical for both variants) ---");
    TextTable faults({"kind", "count"});
    const auto add = [&](const char* kind, const std::string& label) {
      faults.add_row({label, std::to_string(std::count_if(
                                 armed.fault_log.begin(), armed.fault_log.end(),
                                 [kind](const auto& e) { return e.kind == kind; }))});
    };
    for (const char* kind : {"vm_crash", "vm_slowdown", "telemetry_loss", "agent_silence"}) {
      add(kind, kind);
    }
    add("lb_eject", "lb_eject (recovery)");
    add("replace_launch", "replace_launch (recovery)");
    faults.print();
  }
  return {{"chaos.goodput", "beyond (resilience)", "goodput on / off",
           armed.goodput / baseline.goodput, Cmp::kGreater, 1},
          {"chaos.error-rate", "beyond (resilience)", "error rate on / off",
           armed.error_rate / baseline.error_rate, Cmp::kLess, 1}};
}

struct Figure {
  const char* name;
  std::vector<Claim> (*run)(bool print);
};

constexpr Figure kFigures[] = {
    {"fig2a", fig2a}, {"fig2b", fig2b},       {"table1", table1},     {"fig4", fig4},
    {"fig5", fig5},   {"ablation", ablation}, {"taxonomy", taxonomy}, {"chaos", chaos},
};

}  // namespace

bool Claim::holds() const {
  switch (cmp) {
    case Cmp::kLess: return value < bound;
    case Cmp::kAtMost: return value <= bound;
    case Cmp::kGreater: return value > bound;
    case Cmp::kAtLeast: return value >= bound;
    case Cmp::kEqual: return value == bound;
  }
  return false;
}

std::string Claim::verdict_text() const {
  static constexpr const char* kCmpText[] = {"<", "<=", ">", ">=", "=="};
  return format_number(value, 4) + " " + kCmpText[static_cast<int>(cmp)] + " " +
         format_number(bound, 4);
}

std::string render_claims(const std::vector<Claim>& claims) {
  TextTable table({"claim", "paper", "metric", "value vs bound", "verdict"});
  for (const Claim& c : claims) {
    table.add_row({c.id, c.paper, c.metric, c.verdict_text(), c.holds() ? "PASS" : "FAIL"});
  }
  return table.to_string();
}

std::vector<std::string> figure_names() {
  std::vector<std::string> names;
  for (const Figure& figure : kFigures) names.emplace_back(figure.name);
  return names;
}

std::vector<Claim> run_figure(const std::string& name, bool print) {
  for (const Figure& figure : kFigures) {
    if (name == figure.name) return figure.run(print);
  }
  throw std::runtime_error("unknown figure '" + name + "'");
}

}  // namespace dcm::scenario
