#include "scenario/sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"

namespace dcm::scenario {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("sweep: " + message);
}

bool is_seed_override(const std::vector<std::pair<std::string, std::string>>& overrides) {
  for (const auto& [path, value] : overrides) {
    if (path == "run.seed") return true;
  }
  return false;
}

}  // namespace

SweepAxis parse_axis(const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos) fail("axis '" + spec + "' needs section.key=v1,v2,...");
  const std::string path = std::string(trim(spec.substr(0, eq)));
  const size_t dot = path.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == path.size()) {
    fail("axis '" + spec + "' needs a section.key target");
  }
  SweepAxis axis;
  axis.section = path.substr(0, dot);
  axis.key = path.substr(dot + 1);
  for (const auto& field : split(spec.substr(eq + 1), ',')) {
    const std::string value = std::string(trim(field));
    if (value.empty()) fail("axis '" + spec + "' has an empty value");
    axis.values.push_back(value);
  }
  if (axis.values.empty()) fail("axis '" + spec + "' has no values");
  return axis;
}

std::vector<PlannedRun> expand_grid(const SweepPlan& plan) {
  size_t total = 1;
  for (const auto& axis : plan.axes) {
    if (axis.section.empty() || axis.key.empty()) fail("axis with empty section.key");
    if (axis.values.empty()) {
      fail("axis " + axis.section + "." + axis.key + " has no values");
    }
    total *= axis.values.size();
  }

  std::vector<PlannedRun> runs;
  runs.reserve(total);
  for (size_t index = 0; index < total; ++index) {
    PlannedRun run;
    run.index = index;
    // Mixed-radix decode, last axis fastest: index = ((i0*n1)+i1)*n2+...
    size_t remainder = index;
    for (size_t a = plan.axes.size(); a-- > 0;) {
      const SweepAxis& axis = plan.axes[a];
      const size_t pick = remainder % axis.values.size();
      remainder /= axis.values.size();
      run.overrides.emplace_back(axis.section + "." + axis.key, axis.values[pick]);
    }
    // Decoding walked axes back-to-front; present overrides in axis order.
    std::reverse(run.overrides.begin(), run.overrides.end());

    run.scenario = plan.base.with_overrides(run.overrides);
    if (plan.seed_policy == SeedPolicy::kDerivePerRun && !is_seed_override(run.overrides)) {
      run.scenario.seed = derive_seed(plan.base.seed, static_cast<uint64_t>(index));
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

SweepRunner::SweepRunner(SweepPlan plan, int jobs) : SweepRunner(expand_grid(plan), jobs) {}

SweepRunner::SweepRunner(std::vector<PlannedRun> planned, int jobs)
    : planned_(std::move(planned)), jobs_(jobs) {
  // Consumers of run_each key on run.index, so it must be the position.
  for (size_t i = 0; i < planned_.size(); ++i) {
    if (planned_[i].index != i) {
      fail("run " + std::to_string(i) + " carries index " + std::to_string(planned_[i].index));
    }
  }
  if (jobs_ <= 0) {
    jobs_ = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs_ <= 0) jobs_ = 1;
  }
}

void SweepRunner::run_each(const std::function<void(SweepRun&& run)>& reduce) {
  const size_t total = planned_.size();
  std::vector<std::exception_ptr> errors(total);

  const auto execute = [&](size_t index) {
    const PlannedRun& planned = planned_[index];
    try {
      SweepRun out;
      out.index = planned.index;
      out.scenario = planned.scenario;
      out.overrides = planned.overrides;
      out.result = core::run_experiment(planned.scenario.experiment());
      reduce(std::move(out));
    } catch (...) {
      errors[index] = std::current_exception();
    }
  };

  const size_t workers =
      std::min(static_cast<size_t>(jobs_), total == 0 ? size_t{1} : total);
  if (workers <= 1) {
    for (size_t i = 0; i < total; ++i) execute(i);
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
          execute(i);
        }
      });
    }
    for (auto& thread : pool) thread.join();
  }

  for (size_t i = 0; i < total; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

std::vector<SweepRun> SweepRunner::run() {
  std::vector<SweepRun> results(planned_.size());
  run_each([&results](SweepRun&& run) { results[run.index] = std::move(run); });
  return results;
}

}  // namespace dcm::scenario
