#include "trace/tracer.h"

#include "common/check.h"
#include "common/rng.h"

namespace dcm::trace {

Tracer::Tracer(uint64_t seed, TraceSpec spec)
    : seed_(seed), spec_(spec), store_(std::make_shared<TraceStore>()) {
  DCM_CHECK(spec_.rate >= 0.0 && spec_.rate <= 1.0);
}

bool Tracer::should_sample(uint64_t request_id) const {
  if (!spec_.enabled || spec_.rate <= 0.0) return false;
  if (spec_.rate >= 1.0) return true;
  // One SplitMix64 finalization of (seed ⊕ id) → uniform u64 → [0,1).
  // A hash, not a stream: sampling never advances any generator.
  uint64_t state = seed_ ^ (request_id * 0x9E3779B97F4A7C15ull);
  const uint64_t hashed = splitmix64(state);
  const double u = static_cast<double>(hashed >> 11) * 0x1.0p-53;
  return u < spec_.rate;
}

TraceContext* Tracer::maybe_sample(uint64_t request_id, int servlet, sim::SimTime now) {
  if (!should_sample(request_id)) return nullptr;
  return store_->open(request_id, servlet, now);
}

void Tracer::annotate(sim::SimTime at, std::string kind, std::string detail) {
  annotations_.push_back(TraceAnnotation{at, std::move(kind), std::move(detail)});
}

}  // namespace dcm::trace
