// The paper's evaluation as one report: `dcm_run report [figure...]`.
//
// Each figure runs its registered scenarios, prints the paper's tables and
// returns its claims: one per expected shape README lists, each a metric
// over the figure's runs against a bound. Sweeps over registered scenarios
// are data run by one loop on a SweepRunner over all cores; the runs the
// scenario vocabulary cannot express come from core. No timings are
// printed and sweeps merge in plan order, so the output is byte-stable.
#pragma once

#include <string>
#include <vector>

namespace dcm::scenario {

enum class Cmp { kLess, kAtMost, kGreater, kAtLeast, kEqual };

/// One checked claim: it holds when `value cmp bound`.
struct Claim {
  std::string id;      // "<figure>.<what>", unique across the report
  std::string paper;   // where the paper states it ("Fig. 2a", "Sec. V-B")
  std::string metric;  // what `value` measures
  double value = 0.0;
  Cmp cmp = Cmp::kLess;
  double bound = 0.0;

  bool holds() const;
  std::string verdict_text() const;  // "<value> <cmp> <bound>"
};

/// The claims table: id, paper reference, metric, value vs bound, PASS/FAIL.
std::string render_claims(const std::vector<Claim>& claims);

/// Figure names in report order.
std::vector<std::string> figure_names();

/// Runs one figure and returns its claims; with `print`, first writes its
/// tables to stdout. Throws std::runtime_error on an unknown figure.
std::vector<Claim> run_figure(const std::string& name, bool print);

}  // namespace dcm::scenario
