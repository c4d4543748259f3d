#include "scenario/scenario.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "common/strings.h"
#include "workload/trace_taxonomy.h"

namespace dcm::scenario {
namespace {

using WorkloadKind = WorkloadDecl::Kind;
using ControllerKind = ControllerDecl::Kind;
using TopologyKind = core::TopologySpec::Kind;

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("scenario: " + message);
}

// Shortest text form that parses back to the exact same double — the
// canonical number format for scenario emission ("15", "0.8", "2.84e-02").
std::string format_double(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

// ---------------------------------------------------------------------------
// The declared kinds, and the applies-when predicate over them.

struct Kinds {
  WorkloadKind workload;
  ControllerKind controller;
  TopologyKind topology;
  bool resilience;
  bool trace;
};

Kinds kinds_of(const Scenario& s) {
  return {s.workload.kind, s.controller.kind, s.topology.kind, s.resilience.enabled,
          s.trace.enabled};
}

template <class... Kind>
constexpr unsigned bits(Kind... kinds) {
  return ((1u << static_cast<unsigned>(kinds)) | ...);
}

/// The kinds a key is part of the vocabulary under: one bit set per kind
/// enum, plus the two section gates.
struct When {
  unsigned workloads = ~0u;
  unsigned controllers = ~0u;
  unsigned topologies = ~0u;
  bool resilience = false;  // only under [resilience] enabled = true
  bool trace = false;       // only under [trace] enabled = true

  bool operator()(const Kinds& k) const {
    return (workloads & bits(k.workload)) != 0 && (controllers & bits(k.controller)) != 0 &&
           (topologies & bits(k.topology)) != 0 && (k.resilience || !resilience) &&
           (k.trace || !trace);
  }
};

constexpr unsigned kControlled = ~bits(ControllerKind::kNone);
constexpr unsigned kThresholdRule = bits(ControllerKind::kEc2, ControllerKind::kDcm);
constexpr unsigned kDcm = bits(ControllerKind::kDcm);

/// Inclusive bounds unless `open_*` makes one strict. NaN passes.
struct Range {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool open_min = false;
  bool open_max = false;
};

constexpr Range at_least(double min) { return {.min = min}; }
constexpr Range above(double min) { return {.min = min, .open_min = true}; }
constexpr Range unit_interval() { return {.min = 0.0, .max = 1.0}; }

std::string describe(const Range& r) {
  if (std::isinf(r.max)) return (r.open_min ? "> " : ">= ") + format_double(r.min);
  return std::string("in ") + (r.open_min ? "(" : "[") + format_double(r.min) + ", " +
         format_double(r.max) + (r.open_max ? ")" : "]");
}

// ---------------------------------------------------------------------------
// Key rows.

struct Key;

/// Type-erased access to the Scenario field a key binds.
struct Binding {
  void (*decode)(Scenario&, const Config&, const Key&);  // throws on bad input
  std::string (*encode)(const Scenario&);                 // canonical spelling
  void (*copy)(Scenario& to, const Scenario& from);
};

struct Key {
  const char* section;
  const char* key;
  When when;
  Binding field;
  Range range = {};
  bool omit_default = false;  // emitted only when it differs from the default

  std::string path() const { return "[" + std::string(section) + "] " + key; }
};

constexpr bool kOmitDefault = true;

void check_range(const Key& k, double value) {
  const Range& r = k.range;
  const bool below = r.open_min ? value <= r.min : value < r.min;
  const bool above_max = r.open_max ? value >= r.max : value > r.max;
  if (below || above_max) {
    fail(k.path() + " must be " + describe(r) + ", got " + format_double(value));
  }
}

// Per-type codecs. decode() is only called for keys present in the config,
// so the getters' fallback (the field's current value) is never used.
void decode(const Config& c, const Key& k, double& out) {
  out = c.get_double(k.section, k.key, out);
  check_range(k, out);
}
void decode(const Config& c, const Key& k, int& out) {
  out = static_cast<int>(c.get_int(k.section, k.key, out));
  check_range(k, out);
}
void decode(const Config& c, const Key& k, uint64_t& out) {
  out = static_cast<uint64_t>(c.get_int(k.section, k.key, static_cast<int64_t>(out)));
}
void decode(const Config& c, const Key& k, bool& out) { out = c.get_bool(k.section, k.key, out); }
void decode(const Config& c, const Key& k, std::string& out) {
  out = c.get_string(k.section, k.key, out);
}

std::string encode(double value) { return format_double(value); }
std::string encode(int value) { return std::to_string(value); }
// Seeds emit as signed so derived 64-bit seeds round-trip through get_int.
std::string encode(uint64_t value) { return std::to_string(static_cast<int64_t>(value)); }
std::string encode(bool value) { return value ? "true" : "false"; }
std::string encode(const std::string& value) { return value; }

// Kind enums: the spelling list is indexed by the enumerator.
constexpr const char* kWorkloadKinds[] = {"jmeter", "rubbos", "trace"};
constexpr const char* kControllerKinds[] = {"none", "ec2", "dcm", "predictive", "queueing", "pi"};
constexpr const char* kTopologyKinds[] = {"chain3", "chain4", "graph"};

std::span<const char* const> spellings(WorkloadKind) { return kWorkloadKinds; }
std::span<const char* const> spellings(ControllerKind) { return kControllerKinds; }
std::span<const char* const> spellings(TopologyKind) { return kTopologyKinds; }

template <class E>
  requires std::is_enum_v<E>
std::string encode(E kind) {
  return spellings(kind)[static_cast<size_t>(kind)];
}

template <class E>
  requires std::is_enum_v<E>
void decode(const Config& c, const Key& k, E& out) {
  const std::string name = c.get_string(k.section, k.key, encode(out));
  std::string expected;
  for (size_t i = 0; i < spellings(out).size(); ++i) {
    if (name == spellings(out)[i]) {
      out = static_cast<E>(i);
      return;
    }
    expected += (i == 0 ? "" : "|") + std::string(spellings(out)[i]);
  }
  fail("unknown " + std::string(k.section) + " kind '" + name + "' (expected " + expected + ")");
}

// Topology lists: "name:role, ..." and "from->to:calls[:managed], ..." with
// calls a non-negative integer or `q` (the sampled servlet's query count).
[[noreturn]] void topology_error(const std::string& message) { fail("[topology] " + message); }

void decode_item(const std::string& field, core::TopologySpec::Node& node) {
  const std::vector<std::string> parts = split(field, ':');
  if (parts.size() == 2) {
    node.name = std::string(trim(parts[0]));
    node.role = std::string(trim(parts[1]));
  }
  if (node.name.empty() || node.role.empty()) {
    topology_error("node '" + field + "' must be 'name:role'");
  }
}

void decode_item(const std::string& field, core::TopologySpec::Edge& edge) {
  const std::vector<std::string> parts = split(field, ':');
  if (parts.empty() || parts.size() > 3) {
    topology_error("edge '" + field + "' must be 'from->to:calls[:managed]'");
  }
  const size_t arrow = parts[0].find("->");
  if (arrow == std::string::npos) topology_error("edge '" + field + "' is missing '->'");
  edge.from = std::string(trim(std::string_view(parts[0]).substr(0, arrow)));
  edge.to = std::string(trim(std::string_view(parts[0]).substr(arrow + 2)));
  if (edge.from.empty() || edge.to.empty()) {
    topology_error("edge '" + field + "' must name both endpoints");
  }
  if (parts.size() >= 2) {
    const std::string calls(trim(parts[1]));
    const auto parsed = parse_int(calls);
    if (calls == "q") {
      edge.servlet_calls = true;
    } else if (parsed && *parsed >= 0) {
      edge.calls = static_cast<int>(*parsed);
    } else {
      topology_error("edge '" + field + "' calls must be a non-negative integer or 'q'");
    }
  }
  if (parts.size() == 3) {
    if (trim(parts[2]) != "managed") {
      topology_error("edge '" + field + "' trailing field must be 'managed'");
    }
    edge.managed = true;
  }
}

std::string encode(const core::TopologySpec::Node& node) { return node.name + ":" + node.role; }
std::string encode(const core::TopologySpec::Edge& edge) {
  return edge.from + "->" + edge.to + ":" +
         (edge.servlet_calls ? std::string("q") : std::to_string(edge.calls)) +
         (edge.managed ? ":managed" : "");
}

template <class T>
std::string encode(const std::vector<T>& items) {
  std::string out;
  for (const T& item : items) out += (out.empty() ? "" : ", ") + encode(item);
  return out;
}

template <class T>
void decode(const Config& c, const Key& k, std::vector<T>& out) {
  const std::string text = c.get_string(k.section, k.key, encode(out));
  out.clear();
  if (trim(text).empty()) return;
  for (const std::string& field : split(text, ',')) {
    if (trim(field).empty()) topology_error("empty entry in " + std::string(k.key) + " list");
    decode_item(std::string(trim(field)), out.emplace_back());
  }
}

// "s0,alpha,beta" DCM model overrides; must satisfy ServiceTimeParams::valid().
model::ServiceTimeParams parse_model(const std::string& path, const std::string& text) {
  const std::vector<std::string> fields = split(text, ',');
  model::ServiceTimeParams params;  // s0 = 0: invalid until all three parse
  if (fields.size() == 3) {
    const auto s0 = parse_double(trim(fields[0]));
    const auto alpha = parse_double(trim(fields[1]));
    const auto beta = parse_double(trim(fields[2]));
    if (s0 && alpha && beta) params = {*s0, *alpha, *beta};
  }
  if (!params.valid()) {
    fail(path + " must be 's0,alpha,beta' with s0 > 0 and alpha, beta >= 0, got: " + text);
  }
  return params;
}

model::ConcurrencyModel model_or(model::ConcurrencyModel reference, const std::string& path,
                                 const std::string& triple) {
  if (!triple.empty()) reference.params = parse_model(path, triple);
  return reference;
}

// ---------------------------------------------------------------------------
// Field bindings: `bind<&Scenario::a, &A::b>()` binds scenario.a.b.

template <auto... Members>
auto& at(auto& scenario) {
  return (scenario .* ... .* Members);
}

template <auto... Members>
constexpr Binding bind() {
  return {[](Scenario& s, const Config& c, const Key& k) { decode(c, k, at<Members...>(s)); },
          [](const Scenario& s) { return encode(at<Members...>(s)); },
          [](Scenario& to, const Scenario& from) { at<Members...>(to) = at<Members...>(from); }};
}

// A model triple is stored in its canonical spelling, so stored scenarios
// are normalization fixed points.
template <auto Member>
constexpr Binding bind_model() {
  Binding binding = bind<&Scenario::controller, Member>();
  binding.decode = [](Scenario& s, const Config& c, const Key& k) {
    std::string& out = at<&Scenario::controller, Member>(s);
    const model::ServiceTimeParams p = parse_model(k.path(), c.get_string(k.section, k.key, out));
    out = format_double(p.s0) + "," + format_double(p.alpha) + "," + format_double(p.beta);
  };
  return binding;
}

using S = Scenario;
using C = ControllerDecl;
using F = fault::FaultSpec;
using R = core::ResilienceSpec;

// The whole vocabulary. The first kGateKeys rows select the kinds every
// applies-when predicate reads; emission order is irrelevant (Config sorts).
constexpr size_t kGateKeys = 5;
constexpr Key kKeys[] = {
    {"workload", "kind", {}, bind<&S::workload, &WorkloadDecl::kind>()},
    {"controller", "kind", {}, bind<&S::controller, &C::kind>()},
    {"topology", "kind", {}, bind<&S::topology, &core::TopologySpec::kind>(), {}, kOmitDefault},
    {"resilience", "enabled", {}, bind<&S::resilience, &R::enabled>()},
    {"trace", "enabled", {}, bind<&S::trace, &trace::TraceSpec::enabled>(), {}, kOmitDefault},

    {"scenario", "name", {}, bind<&S::name>()},
    {"scenario", "summary", {}, bind<&S::summary>(), {}, kOmitDefault},
    {"hardware", "web", {}, bind<&S::hardware, &core::HardwareConfig::web>(), at_least(1)},
    {"hardware", "app", {}, bind<&S::hardware, &core::HardwareConfig::app>(), at_least(1)},
    {"hardware", "db", {}, bind<&S::hardware, &core::HardwareConfig::db>(), at_least(1)},
    {"soft", "web_threads", {}, bind<&S::soft, &core::SoftAllocation::web_threads>(), at_least(1)},
    {"soft", "app_threads", {}, bind<&S::soft, &core::SoftAllocation::app_threads>(), at_least(1)},
    {"soft", "db_connections", {}, bind<&S::soft, &core::SoftAllocation::db_connections>(),
     at_least(1)},
    {"topology", "nodes", {.topologies = bits(TopologyKind::kGraph)},
     bind<&S::topology, &core::TopologySpec::nodes>()},
    {"topology", "edges", {.topologies = bits(TopologyKind::kGraph)},
     bind<&S::topology, &core::TopologySpec::edges>()},

    {"workload", "users", {.workloads = bits(WorkloadKind::kJmeter, WorkloadKind::kRubbos)},
     bind<&S::workload, &WorkloadDecl::users>(), at_least(0)},
    {"workload", "think_seconds", {.workloads = bits(WorkloadKind::kRubbos, WorkloadKind::kTrace)},
     bind<&S::workload, &WorkloadDecl::think_seconds>(), above(0)},
    {"workload", "trace", {.workloads = bits(WorkloadKind::kTrace)},
     bind<&S::workload, &WorkloadDecl::trace>()},
    {"workload", "peak_users", {.workloads = bits(WorkloadKind::kTrace)},
     bind<&S::workload, &WorkloadDecl::peak_users>()},

    {"controller", "control_period", {.controllers = kControlled},
     bind<&S::controller, &C::control_period_seconds>(), above(0)},
    {"controller", "scale_out_util", {.controllers = kControlled},
     bind<&S::controller, &C::scale_out_util>()},
    {"controller", "scale_in_util", {.controllers = kControlled},
     bind<&S::controller, &C::scale_in_util>()},
    {"controller", "scale_in_consecutive", {.controllers = kControlled},
     bind<&S::controller, &C::scale_in_consecutive>()},
    {"controller", "hysteresis", {.controllers = kControlled},
     bind<&S::controller, &C::hysteresis>(), at_least(0)},
    {"controller", "predictive", {.controllers = kThresholdRule},
     bind<&S::controller, &C::predictive>()},
    {"controller", "sla_rt", {.controllers = kThresholdRule}, bind<&S::controller, &C::sla_rt>()},
    {"controller", "headroom", {.controllers = kDcm}, bind<&S::controller, &C::headroom>(),
     at_least(1)},
    {"controller", "online_estimation", {.controllers = kDcm},
     bind<&S::controller, &C::online_estimation>()},
    {"controller", "app_model", {.controllers = kDcm}, bind_model<&C::app_model>(), {},
     kOmitDefault},
    {"controller", "db_model", {.controllers = kDcm}, bind_model<&C::db_model>(), {},
     kOmitDefault},
    {"controller", "alpha", {.controllers = bits(ControllerKind::kPredictive)},
     bind<&S::controller, &C::alpha>(), {.min = 0.0, .max = 1.0, .open_min = true}},
    {"controller", "beta", {.controllers = bits(ControllerKind::kPredictive)},
     bind<&S::controller, &C::beta>(), unit_interval()},
    {"controller", "horizon", {.controllers = bits(ControllerKind::kPredictive)},
     bind<&S::controller, &C::horizon>(), at_least(1)},
    {"controller", "target_util",
     {.controllers = bits(ControllerKind::kQueueing, ControllerKind::kPi)},
     bind<&S::controller, &C::target_util>(),
     {.min = 0.0, .max = 1.0, .open_min = true, .open_max = true}},
    {"controller", "kp", {.controllers = bits(ControllerKind::kPi)}, bind<&S::controller, &C::kp>(),
     at_least(0)},
    {"controller", "ki", {.controllers = bits(ControllerKind::kPi)}, bind<&S::controller, &C::ki>(),
     at_least(0)},
    {"controller", "deadband", {.controllers = bits(ControllerKind::kPi)},
     bind<&S::controller, &C::deadband>(), at_least(0)},

    {"faults", "crash_mttf", {}, bind<&S::faults, &F::crash_mttf_seconds>()},
    {"faults", "slowdown_mttf", {}, bind<&S::faults, &F::slowdown_mttf_seconds>()},
    {"faults", "slowdown_factor", {}, bind<&S::faults, &F::slowdown_factor>()},
    {"faults", "slowdown_duration", {}, bind<&S::faults, &F::slowdown_duration_seconds>()},
    {"faults", "telemetry_loss_mttf", {}, bind<&S::faults, &F::telemetry_loss_mttf_seconds>()},
    {"faults", "telemetry_loss_duration", {},
     bind<&S::faults, &F::telemetry_loss_duration_seconds>()},
    {"faults", "agent_silence_mttf", {}, bind<&S::faults, &F::agent_silence_mttf_seconds>()},
    {"faults", "agent_silence_duration", {},
     bind<&S::faults, &F::agent_silence_duration_seconds>()},

    {"resilience", "client_timeout", {.resilience = true},
     bind<&S::resilience, &R::client_timeout_seconds>()},
    {"resilience", "client_retries", {.resilience = true},
     bind<&S::resilience, &R::client_retries>()},
    {"resilience", "client_backoff", {.resilience = true},
     bind<&S::resilience, &R::client_backoff_seconds>()},
    {"resilience", "subrequest_timeout", {.resilience = true},
     bind<&S::resilience, &R::subrequest_timeout_seconds>()},
    {"resilience", "subrequest_retries", {.resilience = true},
     bind<&S::resilience, &R::subrequest_retries>()},
    {"resilience", "health_period", {.resilience = true},
     bind<&S::resilience, &R::health_period_seconds>(), above(0)},
    {"resilience", "health_failure_threshold", {.resilience = true},
     bind<&S::resilience, &R::health_failure_threshold>(), at_least(1)},
    {"resilience", "replace_failed", {.resilience = true},
     bind<&S::resilience, &R::replace_failed>()},
    {"resilience", "watchdog_periods", {.controllers = kDcm, .resilience = true},
     bind<&S::resilience, &R::watchdog_periods>()},
    {"resilience", "min_fit_r2", {.controllers = kDcm, .resilience = true},
     bind<&S::resilience, &R::min_fit_r2>()},

    {"trace", "rate", {.trace = true}, bind<&S::trace, &trace::TraceSpec::rate>(),
     unit_interval()},

    {"run", "duration", {}, bind<&S::duration_seconds>(), above(0)},
    {"run", "warmup", {}, bind<&S::warmup_seconds>(), at_least(0)},
    {"run", "max_vms", {}, bind<&S::max_vms>()},
    {"run", "seed", {}, bind<&S::seed>()},
};

const Key* find_key(const std::string& section, const std::string& key) {
  for (const Key& k : kKeys) {
    if (section == k.section && key == k.key) return &k;
  }
  return nullptr;
}

Kinds kinds_of(const Config& config) {
  Scenario gates;
  for (const Key& k : std::span(kKeys).first(kGateKeys)) {
    if (config.has(k.section, k.key)) k.field.decode(gates, config, k);
  }
  return kinds_of(gates);
}

const Scenario& defaults() {
  static const Scenario kDefaults;
  return kDefaults;
}

/// `s` with every field whose key does not apply under its kinds reset to
/// the default — exactly what `to_text()` carries.
Scenario applicable_part(const Scenario& s) {
  const Kinds kinds = kinds_of(s);
  Scenario out;
  for (const Key& k : kKeys) {
    if (k.when(kinds)) k.field.copy(out, s);
  }
  return out;
}

workload::Trace resolve_trace(const std::string& name, int peak_users, uint64_t seed) {
  for (const auto pattern : workload::all_trace_patterns()) {
    if (name == workload::trace_pattern_name(pattern)) {
      return workload::make_trace(pattern, peak_users, seed);
    }
  }
  // Not a taxonomy name — treat as a CSV path.
  return workload::Trace::load_csv(name);
}

}  // namespace

bool scenario_key_applies(const Config& config, const std::string& section,
                          const std::string& key) {
  const Key* k = find_key(section, key);
  return k != nullptr && k->when(kinds_of(config));
}

Scenario Scenario::from_config(const Config& config) {
  const Kinds kinds = kinds_of(config);
  Scenario scenario;
  for (const auto& [section, keys] : config.sections()) {
    for (const auto& [key, value] : keys) {
      const Key* k = find_key(section, key);
      if (k == nullptr) fail("unknown key '" + key + "' in [" + section + "]");
      if (!k->when(kinds)) {
        fail(k->path() + " does not apply under workload.kind = " + encode(kinds.workload) +
             ", controller.kind = " + encode(kinds.controller) + ", topology.kind = " +
             encode(kinds.topology) + ", resilience.enabled = " + encode(kinds.resilience) +
             ", trace.enabled = " + encode(kinds.trace));
      }
      k->field.decode(scenario, config, *k);
    }
  }
  if (scenario.warmup_seconds >= scenario.duration_seconds) {
    fail("[run] warmup must be < duration");
  }
  if (scenario.topology.kind == TopologyKind::kGraph) {
    // Eager validation: building the ServiceGraph rejects duplicate names,
    // unknown roles/endpoints, cycles, unreachable nodes and oversized
    // fan-outs here, at parse time.
    core::build_service_graph(scenario.topology, scenario.hardware, scenario.soft,
                              scenario.max_vms);
  }
  return scenario;
}

Scenario Scenario::parse(const std::string& text) { return from_config(Config::parse(text)); }

Scenario Scenario::load(const std::string& path) { return from_config(Config::load(path)); }

Config Scenario::to_config() const {
  const Kinds kinds = kinds_of(*this);
  Config config;
  for (const Key& k : kKeys) {
    if (!k.when(kinds)) continue;
    std::string value = k.field.encode(*this);
    if (k.omit_default && value == k.field.encode(defaults())) continue;
    config.set(k.section, k.key, value);
  }
  return config;
}

std::string Scenario::to_text() const { return to_config().to_text(); }

Scenario Scenario::with_overrides(
    const std::vector<std::pair<std::string, std::string>>& overrides) const {
  Config config = to_config();
  for (const auto& [path, value] : overrides) {
    const size_t dot = path.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == path.size()) {
      fail("override '" + path + "' must be section.key");
    }
    config.set(path.substr(0, dot), path.substr(dot + 1), value);
  }
  const Kinds kinds = kinds_of(config);
  Config rebuilt;
  for (const auto& [section, keys] : config.sections()) {
    for (const auto& [key, value] : keys) {
      const Key* k = find_key(section, key);
      bool keep = k != nullptr && k->when(kinds);
      for (const auto& named : overrides) keep = keep || named.first == section + "." + key;
      if (keep) rebuilt.set(section, key, value);
    }
  }
  return from_config(rebuilt);
}

core::ExperimentConfig Scenario::experiment() const {
  const Scenario s = applicable_part(*this);
  core::ExperimentConfig experiment;
  experiment.hardware = s.hardware;
  experiment.soft = s.soft;
  experiment.topology = s.topology;
  experiment.faults = s.faults;
  experiment.resilience = s.resilience;
  experiment.trace = s.trace;
  experiment.duration_seconds = s.duration_seconds;
  experiment.warmup_seconds = s.warmup_seconds;
  experiment.max_vms_per_tier = s.max_vms;
  experiment.seed = s.seed;

  const WorkloadDecl& w = s.workload;
  switch (w.kind) {
    case WorkloadKind::kJmeter:
      experiment.workload = core::WorkloadSpec::jmeter(w.users);
      break;
    case WorkloadKind::kRubbos:
      experiment.workload = core::WorkloadSpec::rubbos(w.users, w.think_seconds);
      break;
    case WorkloadKind::kTrace: {
      const uint64_t trace_seed = core::experiment_stream_seed(s.seed, core::SeedStream::kTrace);
      experiment.workload = core::WorkloadSpec::trace_driven(
          resolve_trace(w.trace, w.peak_users, trace_seed), w.think_seconds);
      break;
    }
  }

  const ControllerDecl& c = s.controller;
  control::ScalingPolicy policy;
  policy.control_period = sim::from_seconds(c.control_period_seconds);
  policy.scale_out_util = c.scale_out_util;
  policy.scale_in_util = c.scale_in_util;
  policy.scale_in_consecutive = c.scale_in_consecutive;
  policy.hysteresis = c.hysteresis;
  policy.predictive = c.predictive;
  policy.scale_out_response_time = c.sla_rt;
  switch (c.kind) {
    case ControllerKind::kNone:
      experiment.controller = core::ControllerSpec::none();
      break;
    case ControllerKind::kEc2:
      experiment.controller = core::ControllerSpec::ec2(policy);
      break;
    case ControllerKind::kDcm: {
      control::DcmConfig dcm;
      dcm.policy = policy;
      dcm.app_tier_model =
          model_or(core::tomcat_reference_model(), "[controller] app_model", c.app_model);
      dcm.db_tier_model =
          model_or(core::mysql_reference_model(), "[controller] db_model", c.db_model);
      dcm.stp_headroom = c.headroom;
      dcm.online_estimation = c.online_estimation;
      experiment.controller = core::ControllerSpec::dcm_controller(std::move(dcm));
      break;
    }
    case ControllerKind::kPredictive: {
      control::PredictiveConfig predictive;
      predictive.policy = policy;
      predictive.level_alpha = c.alpha;
      predictive.trend_beta = c.beta;
      predictive.horizon_periods = c.horizon;
      experiment.controller = core::ControllerSpec::predictive_controller(predictive);
      break;
    }
    case ControllerKind::kQueueing: {
      control::QueueingConfig queueing;
      queueing.policy = policy;
      queueing.target_util = c.target_util;
      experiment.controller = core::ControllerSpec::queueing_controller(queueing);
      break;
    }
    case ControllerKind::kPi: {
      control::PiConfig pi;
      pi.policy = policy;
      pi.target_util = c.target_util;
      pi.kp = c.kp;
      pi.ki = c.ki;
      pi.deadband = c.deadband;
      experiment.controller = core::ControllerSpec::pi_controller(pi);
      break;
    }
  }
  return experiment;
}

}  // namespace dcm::scenario
