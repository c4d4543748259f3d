// Parameter-grid sweeps over a base Scenario, executed on a worker pool.
//
// A `SweepPlan` is a base scenario plus axes ("section.key = v1,v2,...");
// `expand_grid` takes their cartesian product (last axis fastest) into an
// index-ordered run list, and `SweepRunner` executes the runs on N worker
// threads — one independent `sim::Engine` per run, nothing shared.
//
// Determinism contract: the merged results are bit-identical regardless of
// thread count or completion order. Three properties make that hold:
//   1. run plans are fully determined before any worker starts (grid
//      expansion is pure; per-run seeds derive from the base scenario's
//      root seed via `derive_seed(root, run_index)`),
//   2. each run owns its entire engine/app/workload stack (the library has
//      no mutable globals besides the log sink, which runs don't write),
//   3. a run is handed over with its run index, and every consumer keys on
//      that index: run() fills a preallocated slot per index, so the merge
//      order is the plan order, not the completion order.
// `run_each` is the one execution path; it hands each finished run to a
// callback on the worker that ran it and then drops it, so a caller that
// reduces runs as they finish (the tournament) holds at most `jobs` results.
// `tests/scenario/sweep_runner_test.cpp` digests this contract and CI
// compares --jobs 1 vs --jobs N digests on every push.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "scenario/scenario.h"

namespace dcm::scenario {

/// One swept dimension: every value a [section] key takes.
struct SweepAxis {
  std::string section;
  std::string key;
  std::vector<std::string> values;

  bool operator==(const SweepAxis&) const = default;
};

/// Parses "section.key=v1,v2,..." (the CLI's --axis syntax). Throws
/// std::runtime_error on a missing dot, missing '=', or an empty value list.
SweepAxis parse_axis(const std::string& spec);

/// How run seeds relate to the base scenario's root seed.
enum class SeedPolicy {
  /// seed_i = derive_seed(base.seed, i): statistically independent runs —
  /// the default for replications and load sweeps.
  kDerivePerRun,
  /// Every run keeps the base root seed: paired comparisons, where e.g.
  /// controller.kind = dcm,ec2 must face the identical synthesized trace
  /// and identical client randomness.
  kFixed,
};

struct SweepPlan {
  Scenario base;
  std::vector<SweepAxis> axes;
  SeedPolicy seed_policy = SeedPolicy::kDerivePerRun;
};

/// A fully-resolved run: the strict-validated scenario plus the overrides
/// that produced it (in axis order) and its position in the grid.
struct PlannedRun {
  size_t index = 0;
  Scenario scenario;
  std::vector<std::pair<std::string, std::string>> overrides;  // "section.key" → value
};

/// Cartesian expansion, last axis fastest (so axes read like nested loops).
/// No axes ⇒ exactly the base as run 0. An axis with zero values is an
/// error, not an empty grid. Each point is `base.with_overrides(point)`:
/// base keys that stop applying under an overridden kind are dropped, but
/// an override naming an inapplicable key still throws.
std::vector<PlannedRun> expand_grid(const SweepPlan& plan);

struct SweepRun {
  size_t index = 0;
  Scenario scenario;
  std::vector<std::pair<std::string, std::string>> overrides;
  core::ExperimentResult result;
};

class SweepRunner {
 public:
  /// jobs: worker threads; <= 0 means std::thread::hardware_concurrency().
  explicit SweepRunner(SweepPlan plan, int jobs = 1);
  /// Runs an explicit run list (indices 0..n-1 in order) under the same
  /// contract, for grids the axis product cannot express: rows that name
  /// different scenarios, or per-row seeds.
  SweepRunner(std::vector<PlannedRun> planned, int jobs);

  /// Executes every planned run and hands each finished one to `reduce` on
  /// the worker thread that ran it; the run is destroyed when `reduce`
  /// returns. Calls for different runs may overlap, so `reduce` must touch
  /// only state keyed by `run.index`. An exception from a run or from its
  /// `reduce` is held until all workers have drained; then the lowest-index
  /// one is rethrown.
  void run_each(const std::function<void(SweepRun&& run)>& reduce);

  /// run_each collecting every run, returned in run-index order (no partial
  /// results escape an exception).
  std::vector<SweepRun> run();

  const std::vector<PlannedRun>& planned() const { return planned_; }
  int jobs() const { return jobs_; }

 private:
  std::vector<PlannedRun> planned_;
  int jobs_;
};

}  // namespace dcm::scenario
