// dcm_bench — the repository benchmark driver.
//
// Runs one named workload as back-to-back, digest-checked repetitions of the
// simulator's public entry points for a fixed host-time budget, prints every
// metric by name with its unit, and ends stdout with one JSON line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
//   dcm_bench --workload fig5 --seed 0 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same timed
// repetitions, then a separate profile pass (probe build + layer drivers,
// see probe.h), and reports the per-layer metrics. --smoke is the quick
// self-check: two repetitions of every workload and the probe build over
// every registry scenario and tournament cell. perfbench/README.md documents
// every workload and metric.
//
// Host times are reported in ref-seconds (see host_speed.h).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "control/controller_registry.h"
#include "core/experiment.h"
#include "host_speed.h"
#include "probe.h"
#include "scenario/registry.h"
#include "scenario/result_writer.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "scenario/tournament.h"

// --- allocation counting (host.allocs_per_run) ------------------------------
// Binary-wide counting forwarders; the bench reads deltas around one rep.

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const size_t a = static_cast<size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace dcm;
using perfbench::now_ns;
using perfbench::Span;

volatile uint64_t g_sink = 0;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// --- workloads ---------------------------------------------------------------

enum class Kind { kScenario, kTournament, kRegistry };

struct WorkloadDef {
  const char* name;
  Kind kind;
  const char* scenario;  // kScenario only
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr WorkloadDef kWorkloads[] = {
    {"fig5", Kind::kScenario, "fig5"},
    {"fanout", Kind::kScenario, "fanout-join"},
    {"chaos", Kind::kScenario, "chaos-resilience"},
    {"traced", Kind::kScenario, "trace-attribution"},
    {"tournament", Kind::kTournament, nullptr},
    {"registry", Kind::kRegistry, nullptr},
};

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Input realizations per run. Repetitions rotate through them and
/// run_s_p50 is the median over all, because one realization's run time
/// differs from another's by up to ±15% (chaos fault schedules, tournament
/// cells): a median over many keeps runs at different --seed comparable.
constexpr int kRealizations = 16;

/// Root seed of realization `k` of a run at --seed `seed_arg`. Realization 0
/// of --seed 0 is the canonical input: every scenario keeps its registered
/// seed, so its digests must equal the registry pins.
uint64_t root_seed(uint64_t registered, uint64_t seed_arg, int k) {
  if (seed_arg == 0 && k == 0) return registered;
  return derive_seed(derive_seed(registered, seed_arg), static_cast<uint64_t>(k));
}

/// (label, digest) pairs of one repetition, in run order.
using Fingerprint = std::vector<std::pair<std::string, uint64_t>>;

/// Every experiment one repetition runs for one input realization, in run
/// order (the 15 cells for the tournament).
struct Inputs {
  std::vector<std::string> labels;  // digest labels
  std::vector<scenario::Scenario> scenarios;
  std::vector<std::string> texts;               // canonical INI of each scenario
  std::vector<core::ExperimentConfig> configs;  // translated once, reused by every rep
  scenario::TournamentOptions tournament;       // kTournament only
  std::map<std::string, uint64_t> pins;         // canonical inputs only: label → pin
};

void add_experiment(Inputs& in, std::string label, scenario::Scenario s) {
  in.labels.push_back(std::move(label));
  in.texts.push_back(s.to_text());
  in.configs.push_back(s.experiment());
  in.scenarios.push_back(std::move(s));
}

void pin(Inputs& in, const std::string& label, const std::string& registered_name) {
  const std::optional<uint64_t> digest = scenario::expected_result_digest(registered_name);
  if (!digest) throw std::runtime_error("no pinned digest for " + registered_name);
  in.pins[label] = *digest;
}

std::string cell_label(const std::string& scenario, const std::string& controller) {
  return scenario + "/" + controller;
}

Inputs make_inputs(const WorkloadDef& def, uint64_t seed_arg, int k) {
  Inputs in;
  const bool canonical = seed_arg == 0 && k == 0;
  const auto seeded = [&](const std::string& name) {
    scenario::Scenario s = scenario::get_scenario(name);
    s.seed = root_seed(s.seed, seed_arg, k);
    return s;
  };
  switch (def.kind) {
    case Kind::kScenario:
      add_experiment(in, def.scenario, seeded(def.scenario));
      if (canonical) pin(in, def.scenario, def.scenario);
      break;
    case Kind::kRegistry:
      for (const std::string& name : scenario::scenario_names()) {
        add_experiment(in, name, seeded(name));
        if (canonical) pin(in, name, name);
      }
      break;
    case Kind::kTournament: {
      in.tournament.jobs = 1;
      // The tournament applies one run.seed override to every base scenario,
      // which reproduces per-scenario seeding only while they share a seed.
      const uint64_t registered = scenario::get_scenario(in.tournament.scenarios.front()).seed;
      for (const std::string& name : in.tournament.scenarios) {
        if (scenario::get_scenario(name).seed != registered) {
          throw std::runtime_error("tournament scenarios no longer share a registered seed");
        }
      }
      if (!canonical) {
        in.tournament.overrides = {
            {"run.seed", std::to_string(root_seed(registered, seed_arg, k))}};
      }
      // The tournament's cells, expanded as run_tournament expands them.
      for (const std::string& name : in.tournament.scenarios) {
        scenario::SweepPlan sweep;
        sweep.base = seeded(name);
        sweep.seed_policy = scenario::SeedPolicy::kFixed;
        sweep.axes.push_back(scenario::SweepAxis{"controller", "kind", control::controller_names()});
        for (scenario::PlannedRun& run : scenario::expand_grid(sweep)) {
          add_experiment(in, cell_label(name, run.overrides.front().second),
                         std::move(run.scenario));
        }
      }
      if (canonical) {
        // Cells whose run equals a registered scenario's canonical run.
        pin(in, cell_label("fig5", "dcm"), "fig5");
        pin(in, cell_label("fig5", "ec2"), "fig5-ec2");
        pin(in, cell_label("chaos-resilience", "dcm"), "chaos-resilience");
        for (const char* controller : {"ec2", "pi", "predictive"}) {
          pin(in, cell_label("quickstart", controller), "quickstart");
        }
      }
      break;
    }
  }
  return in;
}

// --- checks ------------------------------------------------------------------

/// Counts checks. A check fails on a registry-pin mismatch, a repetition
/// whose digests differ from the first repetition of the same inputs, an
/// exception, or a probe/facade disagreement.
class Checker {
 public:
  /// Every pinned label must carry its pin. With a `realization`, the whole
  /// fingerprint must also equal that realization's first one.
  void check(const Fingerprint& fp, const std::map<std::string, uint64_t>& pins,
             std::optional<int> realization) {
    ++attempted_;
    for (const auto& [label, expected] : pins) {
      const auto it = std::find_if(fp.begin(), fp.end(),
                                   [&label](const auto& entry) { return entry.first == label; });
      if (it == fp.end()) return fail("no digest for pinned " + label);
      if (it->second != expected) {
        return fail("digest of " + label + " is " + std::to_string(it->second) +
                    ", registry pin " + std::to_string(expected));
      }
    }
    if (!realization) return;
    const auto [first, inserted] = first_.emplace(*realization, fp);
    if (!inserted && first->second != fp) {
      fail("realization " + std::to_string(*realization) +
           ": digests differ from its first repetition");
    }
  }

  void count_ok() { ++attempted_; }
  void count_failed(const std::string& why) {
    ++attempted_;
    fail(why);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  void fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "dcm_bench: check failed: %s\n", why.c_str());
  }

  std::map<int, Fingerprint> first_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- one repetition ----------------------------------------------------------

struct Rep {
  std::vector<Span> units;  // one per timed call: run_experiment or run_tournament
  Fingerprint fingerprint;
  uint64_t allocs = 0;
};

double ref_seconds(const std::vector<Span>& units) {
  double total = 0.0;
  for (const Span& unit : units) total += perfbench::ref_seconds(unit);
  return total;
}

Rep run_rep(Kind kind, const Inputs& in) {
  Rep rep;
  if (kind == Kind::kTournament) {
    const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
    Span span{now_ns(), 0};
    const scenario::Tournament tournament = scenario::run_tournament(in.tournament);
    span.to = now_ns();
    perfbench::sample_host_speed();
    rep.allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
    rep.units.push_back(span);
    rep.fingerprint.emplace_back("scorecard", scenario::scorecard_digest(tournament));
    for (const scenario::TournamentCell& cell : tournament.cells) {
      rep.fingerprint.emplace_back(cell_label(cell.scenario, cell.controller), cell.result_digest);
    }
    return rep;
  }
  // Only run_experiment is timed; digesting happens outside the spans.
  for (size_t i = 0; i < in.configs.size(); ++i) {
    const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
    Span span{now_ns(), 0};
    const core::ExperimentResult result = core::run_experiment(in.configs[i]);
    span.to = now_ns();
    perfbench::sample_host_speed();
    rep.allocs += g_allocs.load(std::memory_order_relaxed) - allocs_before;
    rep.units.push_back(span);
    rep.fingerprint.emplace_back(in.labels[i], scenario::result_digest(result));
    if (result.trace_report) {
      rep.fingerprint.emplace_back(in.labels[i] + "/trace",
                                   scenario::trace_digest(*result.trace_report));
    }
  }
  return rep;
}

std::optional<Rep> checked_rep(Kind kind, const Inputs& in, Checker& checker,
                               std::optional<int> realization) {
  try {
    Rep rep = run_rep(kind, in);
    checker.check(rep.fingerprint, in.pins, realization);
    return rep;
  } catch (const std::exception& e) {
    checker.count_failed(std::string("exception: ") + e.what());
    return std::nullopt;
  }
}

// --- timed measurement -------------------------------------------------------

/// Peak resident set of this program's address space (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so it would report
/// the launching process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

struct Timing {
  std::vector<double> run_ref_s;                      // one per timed rep
  std::vector<std::vector<double>> per_config_ref_s;  // [experiment][rep]
  uint64_t allocs_per_run = 0;  // realization 0's first timed repetition
};

/// Repetitions rotating through the realizations until `seconds` have
/// passed, each checked against the first repetition of its inputs; then, if
/// realization 0 ran only once, one more (untimed) repetition of it, so
/// every run checks that repeating an input repeats its digests.
Timing measure(Kind kind, const std::vector<Inputs>& realizations, double seconds,
               Checker& checker) {
  Timing timing;
  std::vector<std::vector<Span>> timed;  // the units of every successful rep
  std::vector<int> visits(realizations.size(), 0);
  const int64_t end = now_ns() + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0; now_ns() < end; ++i) {
    const size_t k = i % realizations.size();
    std::optional<Rep> rep = checked_rep(kind, realizations[k], checker, static_cast<int>(k));
    if (!rep) continue;
    if (k == 0 && visits[0] == 0) timing.allocs_per_run = rep->allocs;
    ++visits[k];
    timed.push_back(std::move(rep->units));
  }
  if (visits[0] < 2) checked_rep(kind, realizations[0], checker, 0);

  timing.per_config_ref_s.resize(realizations.front().configs.size());
  for (const std::vector<Span>& units : timed) {
    timing.run_ref_s.push_back(ref_seconds(units));
    if (kind == Kind::kTournament) continue;
    for (size_t c = 0; c < units.size(); ++c) {
      timing.per_config_ref_s[c].push_back(perfbench::ref_seconds(units[c]));
    }
  }
  return timing;
}

/// A host time measured inside `span`, a bracketed block of repeats.
struct Measured {
  Span span;
  double host_s = 0.0;

  double ref_s() const { return host_s * perfbench::ref_per_host_second(span); }
};

template <typename Body>
Measured median_run(int repeats, Body body) {
  std::vector<double> samples;
  Span span{now_ns(), 0};
  for (int r = 0; r < repeats; ++r) {
    const int64_t start = now_ns();
    body();
    samples.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  span.to = now_ns();
  perfbench::sample_host_speed();
  return Measured{span, median(std::move(samples))};
}

double total_ref_s(const std::vector<Measured>& parts) {
  double total = 0.0;
  for (const Measured& m : parts) total += m.ref_s();
  return total;
}

/// setup_s: Scenario::parse + Scenario::experiment() of every experiment one
/// repetition runs, median over repeats, in ref-seconds.
double measure_setup_ref_s(const Inputs& in) {
  uint64_t sink = 0;
  const Measured setup = median_run(51, [&] {
    for (const std::string& text : in.texts) sink += scenario::Scenario::parse(text).experiment().seed;
  });
  g_sink = g_sink + sink;
  return setup.ref_s();
}

// --- profile pass ------------------------------------------------------------

// Discards output but keeps the formatting work (a null rdbuf would skip it).
class NullBuffer : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

struct Profile {
  perfbench::ProbeCounts counts;
  perfbench::LayerCosts costs;  // ref-ns
  // Summed over the profiled realization's experiments, ref-seconds unless
  // marked host:
  double facade_s = 0.0;       // run_experiment, median of 3 per experiment
  double facade_host_s = 0.0;  // the same runs in host seconds
  double probe_s = 0.0;        // the probe build's own runs
  double build_s = 0.0;        // deployment construction inside those runs
  double parse_s = 0.0;
  double translate_s = 0.0;
  double digest_s = 0.0;
  double json_s = 0.0;
  double tracing_s = 0.0;  // traced minus untraced run time
  // Simulated outcomes: means over the experiments, except the two sums.
  double mean_rt_ms = 0.0;
  double p95_rt_ms = 0.0;
  double throughput = 0.0;
  double error_rate = 0.0;
  double slo_violation_s = 0.0;  // sum
  double vm_hours = 0.0;         // sum
};

/// Times `runs` calls of `body`, one span each.
template <typename Body>
std::vector<Span> timed_spans(int runs, Body body) {
  std::vector<Span> spans;
  for (int r = 0; r < runs; ++r) {
    Span span{now_ns(), 0};
    body();
    span.to = now_ns();
    perfbench::sample_host_speed();
    spans.push_back(span);
  }
  return spans;
}

double median_ref_s(const std::vector<Span>& spans) {
  std::vector<double> refs;
  for (const Span& span : spans) refs.push_back(perfbench::ref_seconds(span));
  return median(std::move(refs));
}

double median_host_s(const std::vector<Span>& spans) {
  std::vector<double> hosts;
  for (const Span& span : spans) hosts.push_back(span.seconds());
  return median(std::move(hosts));
}

/// Profiles one realization: per experiment, the facade (timed), the probe
/// build checked against it, and the scenario-layer calls; then the layer
/// drivers at the operating point the probes read.
Profile run_profile(const Inputs& in, Checker& checker, std::ofstream* csv) {
  Profile p;
  NullBuffer null_buffer;
  std::ostream null_stream(&null_buffer);
  uint64_t sink = 0;
  std::vector<Measured> parse, translate, digest, json, build;
  std::vector<std::vector<Span>> facade, traced, untraced;
  std::vector<Span> probe;
  const double n = static_cast<double>(in.configs.size());
  for (size_t i = 0; i < in.configs.size(); ++i) {
    const core::ExperimentConfig& config = in.configs[i];
    const std::string& label = in.labels[i];
    parse.push_back(median_run(11, [&] { sink += scenario::Scenario::parse(in.texts[i]).seed; }));
    translate.push_back(median_run(11, [&] { sink += in.scenarios[i].experiment().seed; }));

    core::ExperimentResult result;
    facade.push_back(timed_spans(3, [&] { result = core::run_experiment(config); }));
    digest.push_back(median_run(11, [&] { sink += scenario::result_digest(result); }));
    p.mean_rt_ms += result.mean_response_time * 1000.0 / n;
    p.p95_rt_ms += result.p95_response_time * 1000.0 / n;
    p.throughput += result.mean_throughput / n;
    p.error_rate += result.error_rate / n;
    p.slo_violation_s += result.sla_violation_seconds;
    p.vm_hours += result.total_vm_seconds / 3600.0;

    std::vector<perfbench::ProbeStep> steps;
    try {
      Span span{now_ns(), 0};
      const perfbench::ProbeCounts counts = perfbench::probe_run(config, result, &steps);
      span.to = now_ns();
      perfbench::sample_host_speed();
      probe.push_back(span);
      build.push_back(Measured{span, counts.build_host_s});
      p.counts.add(counts);
      checker.count_ok();
    } catch (const std::exception& e) {
      checker.count_failed(label + ": " + e.what());
    }
    if (csv != nullptr) {
      for (const perfbench::ProbeStep& step : steps) {
        *csv << label << ',' << step.sim_t << ',' << step.host_s * 1e6 << ',' << step.events
             << '\n';
      }
    }

    std::vector<scenario::SweepRun> runs(1);
    runs[0].scenario = in.scenarios[i];
    runs[0].result = std::move(result);
    json.push_back(median_run(5, [&] { scenario::write_result_json(null_stream, label, runs); }));

    if (config.trace.enabled) {
      // Tracing's cost: alternated traced and untraced runs of the same input.
      core::ExperimentConfig plain = config;
      plain.trace.enabled = false;
      traced.emplace_back();
      untraced.emplace_back();
      for (int r = 0; r < 5; ++r) {
        traced.back().push_back(timed_spans(1, [&] { core::run_experiment(config); }).front());
        untraced.back().push_back(timed_spans(1, [&] { core::run_experiment(plain); }).front());
      }
    }
  }
  g_sink = g_sink + sink;

  Span drivers{now_ns(), 0};
  const perfbench::LayerCosts raw = perfbench::measure_layer_costs(
      perfbench::operating_point(p.counts), in.configs, p.counts);
  drivers.to = now_ns();
  perfbench::sample_host_speed();
  const double to_ref = perfbench::ref_per_host_second(drivers);
  p.costs.ns_per_event = raw.ns_per_event * to_ref;
  p.costs.ns_per_job = raw.ns_per_job * to_ref;
  p.costs.ns_per_acquire = raw.ns_per_acquire * to_ref;
  p.costs.ns_per_pick = raw.ns_per_pick * to_ref;
  p.costs.ns_per_visit = raw.ns_per_visit * to_ref;
  p.costs.ns_per_record = raw.ns_per_record * to_ref;
  p.costs.ns_per_tick = raw.ns_per_tick * to_ref;
  p.costs.factory_ns = raw.factory_ns * to_ref;

  for (const std::vector<Span>& runs : facade) {
    p.facade_s += median_ref_s(runs);
    p.facade_host_s += median_host_s(runs);
  }
  for (const Span& span : probe) p.probe_s += perfbench::ref_seconds(span);
  for (size_t t = 0; t < traced.size(); ++t) {
    p.tracing_s += median_ref_s(traced[t]) - median_ref_s(untraced[t]);
  }
  p.build_s = total_ref_s(build);
  p.parse_s = total_ref_s(parse);
  p.translate_s = total_ref_s(translate);
  p.digest_s = total_ref_s(digest);
  p.json_s = total_ref_s(json);
  return p;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checker& checker, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) throw std::logic_error("metric " + m.name + " is not finite");
    std::printf("%-30s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              checker.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<Metric> per_layer_metrics(const Inputs& in, const Timing& timing, double cold_ref_s,
                                      const Profile& p) {
  const perfbench::ProbeCounts& c = p.counts;
  const perfbench::LayerCosts& k = p.costs;
  // Shares compare the profiled realization's counts with its own run time.
  const double run_s = p.facade_s;
  const auto share = [run_s](double count, double ref_ns) { return count * ref_ns * 1e-9 / run_s; };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  const double events = count(c.events);
  const double ticks = count(c.total_control_ticks());

  const double shares[] = {
      share(events, k.ns_per_event),
      share(count(c.cpu_jobs), k.ns_per_job),
      share(count(c.pool_acquires), k.ns_per_acquire),
      share(count(c.visits), k.ns_per_pick),
      share(count(c.visits), k.ns_per_visit),
      share(count(c.bus_records), k.ns_per_record),
      share(count(c.requests), k.factory_ns),
      share(ticks, k.ns_per_tick),
      p.tracing_s / run_s,
  };
  double attributed = 0.0;
  for (const double s : shares) attributed += s;

  return {
      {"sim.events", events, "count"},
      {"sim.events_per_sim_s", ratio(events, c.sim_seconds), "1/s"},
      {"sim.ns_per_event", k.ns_per_event, "ref-ns"},
      {"sim.arena_kb", c.arena_kb, "KiB"},
      {"sim.share", shares[0], "fraction"},
      {"ntier.cpu.jobs", count(c.cpu_jobs), "count"},
      {"ntier.cpu.busy_s", c.cpu_busy_s, "s"},
      {"ntier.cpu.mean_concurrency", ratio(c.busy_worker_s, c.provisioned_vm_s), "threads"},
      {"ntier.cpu.ns_per_job", k.ns_per_job, "ref-ns"},
      {"ntier.cpu.share", shares[1], "fraction"},
      {"ntier.pool.acquires", count(c.pool_acquires), "count"},
      {"ntier.pool.wait_ms_mean", ratio(c.pool_wait_s * 1000.0, count(c.pool_acquires)), "ms"},
      {"ntier.pool.ns_per_acquire", k.ns_per_acquire, "ref-ns"},
      {"ntier.pool.share", shares[2], "fraction"},
      {"ntier.lb.picks", count(c.visits), "count"},
      {"ntier.lb.ns_per_pick", k.ns_per_pick, "ref-ns"},
      {"ntier.lb.share", shares[3], "fraction"},
      {"ntier.server.visits", count(c.visits), "count"},
      {"ntier.server.rejected", count(c.rejected), "count"},
      {"ntier.server.subreq_timeouts", count(c.subreq_timeouts), "count"},
      {"ntier.server.subreq_retries", count(c.subreq_retries), "count"},
      {"ntier.server.ns_per_visit", k.ns_per_visit, "ref-ns"},
      {"ntier.server.share", shares[4], "fraction"},
      {"bus.records", count(c.bus_records), "count"},
      {"bus.ns_per_record", k.ns_per_record, "ref-ns"},
      {"bus.share", shares[5], "fraction"},
      {"workload.requests", count(c.requests), "count"},
      {"workload.errors", count(c.errors), "count"},
      {"workload.timeouts", count(c.client_timeouts), "count"},
      {"workload.retries", count(c.client_retries), "count"},
      {"workload.goodput_ratio", ratio(count(c.completed), count(c.requests + c.client_retries)),
       "fraction"},
      {"workload.factory_ns", k.factory_ns, "ref-ns"},
      {"workload.share", shares[6], "fraction"},
      {"control.ticks", ticks, "count"},
      {"control.scale_actions", count(c.scale_actions), "count"},
      {"control.soft_actions", count(c.soft_actions), "count"},
      {"control.ns_per_tick", k.ns_per_tick, "ref-ns"},
      {"control.share", shares[7], "fraction"},
      {"fault.injected", count(c.faults_injected), "count"},
      {"fault.recoveries", count(c.recoveries), "count"},
      {"trace.sampled", count(c.trace_sampled), "count"},
      {"trace.spans", count(c.trace_spans), "count"},
      {"trace.share", shares[8], "fraction"},
      {"core.build_us", p.build_s * 1e6, "ref-us"},
      {"scenario.parse_us", p.parse_s * 1e6, "ref-us"},
      {"scenario.translate_us", p.translate_s * 1e6, "ref-us"},
      {"scenario.digest_us", p.digest_s * 1e6, "ref-us"},
      {"scenario.json_us", p.json_s * 1e6, "ref-us"},
      {"scenario.cells", count(in.configs.size()), "count"},
      {"host.sim_s_per_wall_s", c.sim_seconds / p.facade_host_s, "s/s"},
      {"host.events_per_s", events / p.facade_host_s, "1/s"},
      {"host.ref_kernel_s", perfbench::kernel_p50(), "s"},
      {"host.cold_run_s", cold_ref_s, "ref-s"},
      {"host.allocs_per_run", count(timing.allocs_per_run), "count"},
      {"host.allocs_per_event", ratio(count(timing.allocs_per_run), events), "1/event"},
      {"host.reps", count(timing.run_ref_s.size()), "count"},
      {"host.run_s_p90", quantile(timing.run_ref_s, 0.9), "ref-s"},
      {"profile.overhead", p.probe_s / run_s - 1.0, "fraction"},
      {"profile.unattributed_share", 1.0 - attributed, "fraction"},
      {"model.mean_rt_ms", p.mean_rt_ms, "ms"},
      {"model.p95_rt_ms", p.p95_rt_ms, "ms"},
      {"model.throughput", p.throughput, "1/s"},
      {"model.slo_violation_s", p.slo_violation_s, "s"},
      {"model.vm_hours", p.vm_hours, "h"},
      {"model.error_rate", p.error_rate, "fraction"},
  };
}

void print_breakdown(const WorkloadDef& def, const Inputs& in, const Timing& timing) {
  if (def.kind != Kind::kRegistry) return;
  std::fprintf(stderr, "per-scenario run time p50 over all realizations (ref-s):\n");
  for (size_t i = 0; i < in.labels.size(); ++i) {
    std::fprintf(stderr, "  %-24s %.6f\n", in.labels[i].c_str(),
                 median(timing.per_config_ref_s[i]));
  }
}

// --- smoke -------------------------------------------------------------------

int run_smoke() {
  const int64_t start = now_ns();
  bool ok = true;
  for (const WorkloadDef& def : kWorkloads) {
    const Inputs canonical = make_inputs(def, 0, 0);
    Checker checker;
    for (int rep = 0; rep < 2; ++rep) checked_rep(def.kind, canonical, checker, 0);
    std::printf("smoke %-10s reps %llu failed %llu\n", def.name,
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()));
    ok = ok && checker.failed() == 0;
  }
  // The probe build must reproduce the facade on every registry scenario and
  // every tournament cell.
  int probed = 0, mismatched = 0;
  for (const WorkloadDef* def : {find_workload("registry"), find_workload("tournament")}) {
    const Inputs in = make_inputs(*def, 0, 0);
    for (size_t i = 0; i < in.configs.size(); ++i) {
      ++probed;
      try {
        perfbench::probe_run(in.configs[i], core::run_experiment(in.configs[i]));
      } catch (const std::exception& e) {
        ++mismatched;
        std::printf("probe %s: %s\n", in.labels[i].c_str(), e.what());
      }
    }
  }
  std::printf("smoke probe: %d experiments, %d mismatched (%.1f s)\n", probed, mismatched,
              static_cast<double>(now_ns() - start) * 1e-9);
  return ok && mismatched == 0 ? 0 : 1;
}

// --- command line ------------------------------------------------------------

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "dcm_bench: %s\n"
               "usage: dcm_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--profile-csv PATH]\n"
               "       dcm_bench --smoke\n"
               "workloads:",
               error.c_str());
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

struct Options {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string profile_csv;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = find_workload(value);
      if (o.workload == nullptr) usage("unknown workload " + value);
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--profile-csv") {
      o.profile_csv = value;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (!o.smoke && o.workload == nullptr) usage("--workload is required");
  return o;
}

int run(const Options& o) {
  const WorkloadDef& def = *o.workload;
  Checker checker;
  // The process's first repetition runs the canonical input, whatever --seed
  // is: it is checked against the registry pins, and it sets
  // host.cold_run_s and, before the per-seed inputs exist, peak_rss_mb and
  // setup_s, so neither depends on the seed (chaos fault schedules move the
  // peak by half from one realization to the next).
  const Inputs canonical = make_inputs(def, 0, 0);
  const std::optional<Rep> cold = checked_rep(def.kind, canonical, checker, std::nullopt);
  const double rss_mb = peak_rss_mb();
  const double setup_ref_s = measure_setup_ref_s(canonical);

  std::vector<Inputs> realizations;
  for (int k = 0; k < kRealizations; ++k) realizations.push_back(make_inputs(def, o.seed, k));
  const Timing timing = measure(def.kind, realizations, o.seconds, checker);
  if (timing.run_ref_s.empty()) {
    std::fprintf(stderr, "dcm_bench: no repetition succeeded\n");
    return 1;
  }
  const double cold_ref_s = cold ? ref_seconds(cold->units) : 0.0;
  std::fprintf(stderr,
               "dcm_bench: %s seed %llu: %zu timed reps over %d realizations, %llu checks, "
               "%llu failed; kernel p50 %.6f s\n",
               def.name, static_cast<unsigned long long>(o.seed), timing.run_ref_s.size(),
               kRealizations, static_cast<unsigned long long>(checker.attempted()),
               static_cast<unsigned long long>(checker.failed()), perfbench::kernel_p50());
  print_breakdown(def, realizations.front(), timing);
  if (!o.trace) {
    const std::vector<Metric> end_to_end = {
        {"run_s_p50", median(timing.run_ref_s), "ref-s"},
        // ref-seconds, under the unit BENCHMARK.json fixes for setup_s
        {"setup_s", setup_ref_s, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    print_result(checker, end_to_end);
    return 0;
  }
  std::ofstream csv;
  if (!o.profile_csv.empty()) {
    csv.open(o.profile_csv);
    if (!csv) usage("cannot write " + o.profile_csv);
    csv << "experiment,sim_t_s,host_us,events\n";
  }
  const Profile profile =
      run_profile(realizations.front(), checker, csv.is_open() ? &csv : nullptr);
  print_result(checker, per_layer_metrics(realizations.front(), timing, cold_ref_s, profile));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  // Per-action and per-fault log lines would be timed with the run and
  // repeated every rep; errors still print.
  set_log_level(LogLevel::kError);
  try {
    perfbench::sample_host_speed();  // opens the first bracket
    return options.smoke ? run_smoke() : run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcm_bench: %s\n", e.what());
    return 1;
  }
}
