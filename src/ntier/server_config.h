// Per-server configuration.
#pragma once

#include <string>

#include "ntier/cpu_scheduler.h"

namespace dcm::ntier {

struct ServerConfig {
  std::string name = "server";

  /// CPU model: cpu.params.s0 is the *reference* per-visit demand (seconds);
  /// individual visits scale it by the request's demand_scale and the
  /// sampled variability below.
  CpuModelConfig cpu;

  /// Worker thread pool size — Apache workers / Tomcat maxThreads / MySQL
  /// max_connections. This is the soft resource the APP-agent resizes.
  int max_threads = 100;

  /// Accept-queue bound in front of the worker pool; arrivals beyond it are
  /// rejected (done(false)). Large by default: the paper's experiments never
  /// drop, they queue.
  int max_queue = 1'000'000;

  /// Fraction of a visit's CPU demand executed before downstream calls; the
  /// remainder runs after the last call completes.
  double pre_fraction = 0.5;

  /// Coefficient of variation for per-visit demand (lognormal multiplier);
  /// 0 = deterministic demands.
  double demand_cv = 0.0;
};

}  // namespace dcm::ntier
