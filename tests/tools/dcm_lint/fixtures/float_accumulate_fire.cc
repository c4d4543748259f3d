// Fixture: no-unanchored-float-accumulate positive — a long-lived double
// updated incrementally inside a loop, with no re-anchoring assignment
// anywhere in the file. The drift this rule hunts was fixed by hand (the
// CpuScheduler virtual-clock re-anchor) before it became a rule.
#include <vector>

class RateTracker {
 public:
  void absorb(const std::vector<double>& samples) {
    for (const double s : samples) {
      sum_ += s;
    }
  }

  void evict(const std::vector<double>& samples) {
    for (const double s : samples) {
      sum_ -= s;
    }
  }

  double sum() const { return sum_; }

 private:
  double sum_ = 0.0;
};
