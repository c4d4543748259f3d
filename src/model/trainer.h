// Model training — the paper's "Least-Square Fitting" step (Sec. V-A).
//
// Input: <concurrency, throughput> pairs measured while the target tier is
// the bottleneck. Output: fitted (S0, α, β, γ) plus R², N_b and X_max, i.e.
// one row of the paper's Table I.
//
// Identifiability note: in Eq. 7, scaling γ and (S0, α, β) by the same
// constant leaves the curve unchanged, so from a single configuration's
// sweep only three degrees of freedom are observable. Two modes resolve
// this:
//   * fit_with_known_s0 — S0 measured independently (throughput at
//     concurrency 1 ⇒ γK/S0, plus a direct single-thread service-time
//     measurement), fitting α, β, γ. This is how the Table I report runs.
//   * fit_normalized — pin γ = 1 and fit S0, α, β. The optimum
//     N_b = sqrt((S0−α)/β) is invariant under the shared scaling, so this
//     mode is sufficient for the controller, which only needs N_b.
#pragma once

#include <vector>

#include "model/concurrency_model.h"

namespace dcm::model {

struct TrainingSample {
  double concurrency = 0.0;  // per-server request processing concurrency
  double throughput = 0.0;   // measured system throughput (req/s)
};

struct TrainedModel {
  ConcurrencyModel model;
  double r_squared = 0.0;
  int samples = 0;
  bool converged = false;

  double optimal_concurrency() const { return model.optimal_concurrency(); }
  int optimal_concurrency_int() const { return model.optimal_concurrency_int(); }
  double max_throughput() const { return model.max_throughput(); }
};

class Trainer {
 public:
  /// `servers` and `visit_ratio` describe the training configuration (K_b,
  /// V_b in Eq. 7) and are carried into the returned model.
  Trainer(int servers, double visit_ratio);

  /// Fits α, β, γ with S0 fixed to an independent measurement.
  TrainedModel fit_with_known_s0(double s0, const std::vector<TrainingSample>& samples) const;

  /// Fits S0, α, β with γ pinned to 1 (sufficient for N_b).
  TrainedModel fit_normalized(const std::vector<TrainingSample>& samples) const;

 private:
  int servers_;
  double visit_ratio_;
};

}  // namespace dcm::model
