// Fixture: no-unanchored-float-accumulate negative — three deterministic
// shapes: a per-call local accumulator, a member with a re-anchoring
// assignment elsewhere in the file (the CpuScheduler pattern), and a
// non-loop member update.
#include <vector>

class RateTracker {
 public:
  // Local accumulator: fresh every call, evaluation order fixed.
  static double total(const std::vector<double>& samples) {
    double acc = 0.0;
    for (const double s : samples) acc += s;
    return acc;
  }

  void absorb(const std::vector<double>& samples) {
    for (const double s : samples) sum_ += s;
  }

  void drain() {
    // Re-anchor: absolute assignment kills accumulated drift.
    sum_ = 0.0;
  }

  void bump(double s) { bias_ += s; }  // not in a loop

 private:
  double sum_ = 0.0;
  double bias_ = 0.0;
};
