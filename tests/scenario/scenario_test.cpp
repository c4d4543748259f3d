#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include "scenario/registry.h"

namespace dcm::scenario {
namespace {

TEST(ScenarioTest, DefaultsMatchConfigLoaderDefaults) {
  const Scenario scenario = Scenario::parse("");
  const auto experiment = scenario.experiment();
  EXPECT_EQ(experiment.hardware.app, 1);
  EXPECT_EQ(experiment.soft.db_connections, 80);
  EXPECT_EQ(experiment.workload.kind, core::WorkloadSpec::Kind::kRubbosClients);
  EXPECT_EQ(experiment.controller.kind, core::ControllerSpec::Kind::kNone);
  EXPECT_DOUBLE_EQ(experiment.duration_seconds, 300.0);
  EXPECT_EQ(experiment.seed, 1u);
}

TEST(ScenarioTest, ParseEmitParseIsIdentity) {
  const std::string text =
      "[scenario]\nname = t\nsummary = roundtrip probe\n"
      "[hardware]\nweb=1\napp=2\ndb=2\n"
      "[soft]\napp_threads=20\ndb_connections=18\n"
      "[workload]\nkind=trace\ntrace=big-spike\npeak_users=200\nthink_seconds=1.5\n"
      "[controller]\nkind=dcm\nheadroom=1.25\nsla_rt=0.8\npredictive=true\n"
      "[run]\nduration=120\nwarmup=10\nmax_vms=6\nseed=42\n";
  const Scenario first = Scenario::parse(text);
  const Scenario second = Scenario::parse(first.to_text());
  EXPECT_TRUE(first == second);
  // Canonical emission is a fixed point.
  EXPECT_EQ(first.to_text(), second.to_text());
  // And the fields survived.
  EXPECT_EQ(second.name, "t");
  EXPECT_EQ(second.hardware.app, 2);
  EXPECT_EQ(second.workload.kind, WorkloadDecl::Kind::kTrace);
  EXPECT_EQ(second.workload.trace, "big-spike");
  EXPECT_DOUBLE_EQ(second.workload.think_seconds, 1.5);
  EXPECT_DOUBLE_EQ(second.controller.headroom, 1.25);
  EXPECT_TRUE(second.controller.predictive);
  EXPECT_EQ(second.seed, 42u);
}

TEST(ScenarioTest, UnknownSectionAndKeyAreRejected) {
  EXPECT_THROW(Scenario::parse("[contorller]\nkind=dcm\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkidn=dcm\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[workload]\nseed=9\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("toplevel=1\n"), std::runtime_error);
}

TEST(ScenarioTest, KindScopesWhichKeysApply) {
  // DCM-only keys under ec2 are typos, not silently-ignored extras.
  EXPECT_THROW(Scenario::parse("[controller]\nkind=ec2\nheadroom=1.5\n"),
               std::runtime_error);
  // Controller tunables without a controller are dead config.
  EXPECT_THROW(Scenario::parse("[controller]\nscale_out_util=0.7\n"), std::runtime_error);
  // Trace keys under a closed-loop workload are dead config.
  EXPECT_THROW(Scenario::parse("[workload]\nkind=rubbos\ntrace=big-spike\n"),
               std::runtime_error);
  // jmeter has no think time.
  EXPECT_THROW(Scenario::parse("[workload]\nkind=jmeter\nthink_seconds=2\n"),
               std::runtime_error);
  // The same keys under the right kinds are fine.
  EXPECT_NO_THROW(Scenario::parse("[controller]\nkind=dcm\nheadroom=1.5\n"));
  EXPECT_NO_THROW(Scenario::parse("[workload]\nkind=trace\ntrace=big-spike\n"));
}

TEST(ScenarioTest, UnknownKindsThrow) {
  EXPECT_THROW(Scenario::parse("[workload]\nkind=weird\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=weird\n"), std::runtime_error);
}

TEST(ScenarioTest, ModelTriplesAreValidatedAndNormalized) {
  const Scenario scenario =
      Scenario::parse("[controller]\nkind=dcm\napp_model = 2.84e-2, 1e-4, 7.09e-7\n");
  // Canonical spelling: shortest round-trip form, no spaces.
  EXPECT_EQ(scenario.controller.app_model.find(' '), std::string::npos);
  // Normalization is a fixed point through the round trip, and the values
  // survive exactly into the runnable config.
  EXPECT_TRUE(Scenario::parse(scenario.to_text()) == scenario);
  const auto experiment = scenario.experiment();
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.s0, 2.84e-2);
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.alpha, 1e-4);
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.beta, 7.09e-7);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=dcm\napp_model = 1,2\n"),
               std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=dcm\ndb_model = a,b,c\n"),
               std::runtime_error);
}

TEST(ScenarioTest, ExperimentTranslationGoesThroughConfigLoader) {
  const Scenario scenario = Scenario::parse(
      "[hardware]\napp=2\n"
      "[workload]\nkind=jmeter\nusers=64\n"
      "[controller]\nkind=ec2\nscale_out_util=0.7\n"
      "[run]\nduration=120\nseed=5\n");
  const auto experiment = scenario.experiment();
  EXPECT_EQ(experiment.hardware.app, 2);
  EXPECT_EQ(experiment.workload.kind, core::WorkloadSpec::Kind::kJmeter);
  EXPECT_EQ(experiment.workload.users, 64);
  EXPECT_EQ(experiment.controller.kind, core::ControllerSpec::Kind::kEc2AutoScale);
  EXPECT_DOUBLE_EQ(experiment.controller.policy.scale_out_util, 0.7);
  EXPECT_EQ(experiment.seed, 5u);
}

TEST(ScenarioTest, KeyAppliesFollowsDeclaredKinds) {
  Config config;
  config.set("controller", "kind", "dcm");
  EXPECT_TRUE(scenario_key_applies(config, "controller", "headroom"));
  config.set("controller", "kind", "ec2");
  EXPECT_FALSE(scenario_key_applies(config, "controller", "headroom"));
  EXPECT_TRUE(scenario_key_applies(config, "controller", "control_period"));
  config.set("controller", "kind", "none");
  EXPECT_FALSE(scenario_key_applies(config, "controller", "control_period"));
  EXPECT_TRUE(scenario_key_applies(config, "run", "seed"));
  EXPECT_FALSE(scenario_key_applies(config, "run", "sede"));
}

TEST(ScenarioTest, FaultAndResilienceVocabularyRoundTrips) {
  const std::string text =
      "[controller]\nkind=dcm\n"
      "[faults]\ncrash_mttf=90\nslowdown_mttf=120\nslowdown_factor=0.5\n"
      "telemetry_loss_mttf=200\nagent_silence_mttf=150\nagent_silence_duration=20\n"
      "[resilience]\nenabled=true\nclient_timeout=1.5\nclient_retries=3\n"
      "subrequest_timeout=0.5\nhealth_period=4\nwatchdog_periods=3\nmin_fit_r2=0.6\n";
  const Scenario first = Scenario::parse(text);
  EXPECT_DOUBLE_EQ(first.faults.crash_mttf_seconds, 90.0);
  EXPECT_DOUBLE_EQ(first.faults.slowdown_factor, 0.5);
  EXPECT_DOUBLE_EQ(first.faults.agent_silence_duration_seconds, 20.0);
  EXPECT_TRUE(first.resilience.enabled);
  EXPECT_DOUBLE_EQ(first.resilience.client_timeout_seconds, 1.5);
  EXPECT_EQ(first.resilience.client_retries, 3);
  EXPECT_EQ(first.resilience.watchdog_periods, 3);
  EXPECT_DOUBLE_EQ(first.resilience.min_fit_r2, 0.6);

  const Scenario second = Scenario::parse(first.to_text());
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.to_text(), second.to_text());

  // And the fields survive into the runnable config.
  const auto experiment = first.experiment();
  EXPECT_DOUBLE_EQ(experiment.faults.crash_mttf_seconds, 90.0);
  EXPECT_TRUE(experiment.resilience.enabled);
  EXPECT_EQ(experiment.resilience.client_retries, 3);
  EXPECT_EQ(experiment.resilience.watchdog_periods, 3);
}

TEST(ScenarioTest, ResilienceDetailKeysRequireEnabled) {
  // Detail keys without enabled=true are dead config, not silent extras.
  EXPECT_THROW(Scenario::parse("[resilience]\nclient_timeout=1.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[resilience]\nenabled=false\nclient_retries=3\n"),
               std::runtime_error);
  // The watchdog keys additionally require the dcm controller.
  EXPECT_THROW(Scenario::parse("[resilience]\nenabled=true\nwatchdog_periods=2\n"),
               std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=ec2\n"
                               "[resilience]\nenabled=true\nmin_fit_r2=0.5\n"),
               std::runtime_error);
  EXPECT_NO_THROW(Scenario::parse("[resilience]\nenabled=true\nclient_retries=3\n"));
  EXPECT_NO_THROW(Scenario::parse("[controller]\nkind=dcm\n"
                                  "[resilience]\nenabled=true\nwatchdog_periods=2\n"));
  // [faults] keys are always part of the vocabulary.
  EXPECT_NO_THROW(Scenario::parse("[faults]\ncrash_mttf=120\n"));
  EXPECT_THROW(Scenario::parse("[faults]\ncrash_mtff=120\n"), std::runtime_error);
}

TEST(ScenarioTest, TraceVocabularyRoundTrips) {
  const Scenario first = Scenario::parse("[trace]\nenabled=true\nrate=0.25\n");
  EXPECT_TRUE(first.trace.enabled);
  EXPECT_DOUBLE_EQ(first.trace.rate, 0.25);

  const Scenario second = Scenario::parse(first.to_text());
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.to_text(), second.to_text());

  const auto experiment = first.experiment();
  EXPECT_TRUE(experiment.trace.enabled);
  EXPECT_DOUBLE_EQ(experiment.trace.rate, 0.25);

  // Disabled tracing emits no [trace] section at all, so a default
  // scenario's canonical text is untouched by the feature.
  EXPECT_EQ(Scenario().to_text().find("[trace]"), std::string::npos);
  EXPECT_FALSE(Scenario().experiment().trace.enabled);
}

TEST(ScenarioTest, TraceDetailKeysRequireEnabled) {
  EXPECT_THROW(Scenario::parse("[trace]\nrate=0.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[trace]\nenabled=false\nrate=0.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[trace]\nenabled=true\nsample=0.5\n"), std::runtime_error);
  // Rate is a probability; reject anything outside [0, 1].
  EXPECT_THROW(Scenario::parse("[trace]\nenabled=true\nrate=1.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[trace]\nenabled=true\nrate=-0.1\n"), std::runtime_error);
  EXPECT_NO_THROW(Scenario::parse("[trace]\nenabled=true\n"));
  EXPECT_NO_THROW(Scenario::parse("[trace]\nenabled=true\nrate=1\n"));
}

TEST(ScenarioTest, KeyAppliesFollowsTraceGate) {
  Config config;
  EXPECT_TRUE(scenario_key_applies(config, "trace", "enabled"));
  EXPECT_FALSE(scenario_key_applies(config, "trace", "rate"));
  config.set("trace", "enabled", "true");
  EXPECT_TRUE(scenario_key_applies(config, "trace", "rate"));
}

TEST(ScenarioTest, KeyAppliesFollowsResilienceGate) {
  Config config;
  EXPECT_TRUE(scenario_key_applies(config, "faults", "crash_mttf"));
  EXPECT_TRUE(scenario_key_applies(config, "resilience", "enabled"));
  EXPECT_FALSE(scenario_key_applies(config, "resilience", "client_timeout"));
  config.set("resilience", "enabled", "true");
  EXPECT_TRUE(scenario_key_applies(config, "resilience", "client_timeout"));
  EXPECT_FALSE(scenario_key_applies(config, "resilience", "watchdog_periods"));
  config.set("controller", "kind", "dcm");
  EXPECT_TRUE(scenario_key_applies(config, "resilience", "watchdog_periods"));
}

TEST(RegistryTest, AllScenariosParseAndRoundTrip) {
  const auto names = scenario_names();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    const Scenario scenario = get_scenario(name);
    // The registered name is the scenario's own name.
    EXPECT_EQ(scenario.name, name);
    EXPECT_FALSE(scenario.summary.empty());
    // Registered text is strict-parseable and round-trips canonically.
    const Scenario reparsed = Scenario::parse(scenario.to_text());
    EXPECT_TRUE(reparsed == scenario);
  }
}

TEST(RegistryTest, ChaosResilienceScenarioArmsFaultsAndResilience) {
  const Scenario chaos = get_scenario("chaos-resilience");
  EXPECT_EQ(chaos.controller.kind, ControllerDecl::Kind::kDcm);
  EXPECT_TRUE(chaos.controller.online_estimation);
  EXPECT_TRUE(chaos.resilience.enabled);
  const auto experiment = chaos.experiment();
  EXPECT_TRUE(experiment.faults.any_enabled());
  EXPECT_TRUE(experiment.resilience.enabled);
  EXPECT_GT(experiment.faults.crash_mttf_seconds, 0.0);
  EXPECT_GT(experiment.faults.telemetry_loss_mttf_seconds, 0.0);
}

TEST(RegistryTest, TraceAttributionScenarioArmsFullTracing) {
  const Scenario scenario = get_scenario("trace-attribution");
  EXPECT_TRUE(scenario.trace.enabled);
  EXPECT_DOUBLE_EQ(scenario.trace.rate, 1.0);
  // Saturated app tier: far more users than app worker threads, so the
  // waterfall's dominant cause is the app tier's pool-queue wait.
  EXPECT_GT(scenario.workload.users, scenario.soft.app_threads);
  const auto experiment = scenario.experiment();
  EXPECT_TRUE(experiment.trace.enabled);
  EXPECT_DOUBLE_EQ(experiment.trace.rate, 1.0);
}

TEST(RegistryTest, UnknownNameThrowsWithKnownList) {
  EXPECT_FALSE(has_scenario("no-such-scenario"));
  try {
    get_scenario("no-such-scenario");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    // The error should help: it lists the known names.
    EXPECT_NE(std::string(e.what()).find("fig5"), std::string::npos);
  }
}

TEST(RegistryTest, CanonicalScenariosMatchThePaperSetups) {
  const Scenario fig5 = get_scenario("fig5");
  EXPECT_EQ(fig5.workload.kind, WorkloadDecl::Kind::kTrace);
  EXPECT_EQ(fig5.workload.trace, "large-variation");
  EXPECT_EQ(fig5.soft.app_threads, 200);
  EXPECT_EQ(fig5.controller.kind, ControllerDecl::Kind::kDcm);
  EXPECT_DOUBLE_EQ(fig5.duration_seconds, 700.0);

  const Scenario ec2 = get_scenario("fig5-ec2");
  EXPECT_EQ(ec2.controller.kind, ControllerDecl::Kind::kEc2);
  // Paired comparison: identical deployment, workload and root seed.
  EXPECT_TRUE(ec2.hardware == fig5.hardware);
  EXPECT_TRUE(ec2.soft == fig5.soft);
  EXPECT_TRUE(ec2.workload == fig5.workload);
  EXPECT_EQ(ec2.seed, fig5.seed);

  const Scenario soft_only = get_scenario("ablation-soft-only");
  EXPECT_EQ(soft_only.max_vms, 1);

  const Scenario wrong = get_scenario("ablation-wrong-models");
  const auto experiment = wrong.experiment();
  // The wrong models put the optima near the default pools (≈200 / ≈160).
  EXPECT_NEAR(experiment.controller.dcm.app_tier_model.optimal_concurrency(), 200.0, 10.0);
  EXPECT_NEAR(experiment.controller.dcm.db_tier_model.optimal_concurrency(), 160.0, 10.0);
}

TEST(ScenarioTest, TopologyChain3IsCanonicalAsAnAbsentSection) {
  const Scenario scenario = Scenario::parse("");
  EXPECT_EQ(scenario.topology.kind, core::TopologySpec::Kind::kChain3);
  EXPECT_EQ(scenario.to_text().find("[topology]"), std::string::npos);
  // Spelling it out parses fine but canonicalizes away.
  const Scenario explicit_chain = Scenario::parse("[topology]\nkind = chain3\n");
  EXPECT_TRUE(explicit_chain == scenario);
}

TEST(ScenarioTest, TopologyChain4RoundTrips) {
  const Scenario scenario = Scenario::parse("[topology]\nkind = chain4\n");
  EXPECT_EQ(scenario.topology.kind, core::TopologySpec::Kind::kChain4);
  EXPECT_NE(scenario.to_text().find("kind = chain4"), std::string::npos);
  EXPECT_TRUE(Scenario::parse(scenario.to_text()) == scenario);
  // Graph-only keys are rejected under a chain kind.
  EXPECT_THROW(Scenario::parse("[topology]\nkind = chain4\nnodes = a:web\n"),
               std::runtime_error);
}

TEST(ScenarioTest, TopologyGraphRoundTripsCanonically) {
  const std::string text =
      "[topology]\n"
      "kind = graph\n"
      "nodes = apache:web, tomcat:app, memcache:cache, mysql:db\n"
      "edges = apache->tomcat:1, tomcat->memcache:1, tomcat->mysql:q:managed\n";
  const Scenario first = Scenario::parse(text);
  EXPECT_EQ(first.topology.kind, core::TopologySpec::Kind::kGraph);
  ASSERT_EQ(first.topology.nodes.size(), 4u);
  ASSERT_EQ(first.topology.edges.size(), 3u);
  EXPECT_TRUE(first.topology.edges[2].servlet_calls);
  EXPECT_TRUE(first.topology.edges[2].managed);

  const Scenario second = Scenario::parse(first.to_text());
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.to_text(), second.to_text());
}

TEST(ScenarioTest, TopologyGraphErrorsAreEager) {
  // Malformed spellings fail at parse.
  EXPECT_THROW(Scenario::parse("[topology]\nkind = ring\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[topology]\nkind = graph\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[topology]\nkind = graph\nnodes = apache\n"),
               std::runtime_error);
  EXPECT_THROW(
      Scenario::parse("[topology]\nkind = graph\nnodes = a:web, b:app\n"
                      "edges = a-b:1\n"),
      std::runtime_error);
  EXPECT_THROW(
      Scenario::parse("[topology]\nkind = graph\nnodes = a:web, b:app\n"
                      "edges = a->b:-2\n"),
      std::runtime_error);
  // Structural violations (a cycle) also fail at parse, not at run time:
  // from_config materializes the graph once to validate it.
  EXPECT_THROW(
      Scenario::parse("[topology]\nkind = graph\nnodes = a:web, b:app, c:db\n"
                      "edges = a->b:1, b->c:1, c->b:1\n"),
      std::runtime_error);
}

TEST(ScenarioTest, TopologyLbPolicyRoundTripsAndReachesEveryNode) {
  // Round-robin is the default and canonical as an absent key.
  EXPECT_EQ(Scenario::parse("").to_text().find("lb_policy"), std::string::npos);
  for (const std::string kind : {"chain3", "chain4", "graph"}) {
    SCOPED_TRACE(kind);
    std::string text = "[topology]\nkind = " + kind + "\nlb_policy = least-conn\n";
    if (kind == "graph") {
      text += "nodes = apache:web, tomcat:app, mysql:db\n"
              "edges = apache->tomcat:1, tomcat->mysql:q:managed\n";
    }
    const Scenario scenario = Scenario::parse(text);
    EXPECT_EQ(scenario.topology.lb_policy, ntier::LbPolicy::kLeastConnections);
    EXPECT_NE(scenario.to_text().find("lb_policy = least-conn"), std::string::npos);
    EXPECT_TRUE(Scenario::parse(scenario.to_text()) == scenario);
    // The chain kinds lower through a fresh graph spec, which must keep it.
    const core::ExperimentConfig experiment = scenario.experiment();
    const ntier::ServiceGraph graph =
        core::build_service_graph(experiment.topology, experiment.hardware, experiment.soft);
    EXPECT_EQ(graph.node_count(), kind == "chain4" ? 4u : 3u);
    for (size_t i = 0; i < graph.node_count(); ++i) {
      EXPECT_EQ(graph.node(i).tier.lb_policy, ntier::LbPolicy::kLeastConnections) << i;
    }
  }
}

TEST(ScenarioTest, UnknownLbPolicyIsRejectedWithTheSpellings) {
  try {
    Scenario::parse("[topology]\nlb_policy = random\n");
    ADD_FAILURE() << "expected a scenario: error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'random' (expected round-robin|least-conn)"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioTest, GraphScenariosInTheRegistryParse) {
  const Scenario diamond = get_scenario("diamond-cache");
  EXPECT_EQ(diamond.topology.kind, core::TopologySpec::Kind::kGraph);
  EXPECT_EQ(diamond.hardware.app, 3);
  EXPECT_TRUE(Scenario::parse(diamond.to_text()) == diamond);

  const Scenario fanout = get_scenario("fanout-join");
  ASSERT_EQ(fanout.topology.nodes.size(), 5u);
  EXPECT_TRUE(Scenario::parse(fanout.to_text()) == fanout);
}

TEST(ScenarioTest, PredictiveControllerVocabularyRoundTrips) {
  const Scenario scenario = Scenario::parse(
      "[controller]\nkind=predictive\nalpha=0.6\nbeta=0.2\nhorizon=4\nhysteresis=0.05\n");
  const Scenario again = Scenario::parse(scenario.to_text());
  EXPECT_TRUE(scenario == again);
  EXPECT_EQ(again.controller.kind, ControllerDecl::Kind::kPredictive);
  const auto experiment = scenario.experiment();
  EXPECT_EQ(experiment.controller.kind, core::ControllerSpec::Kind::kPredictive);
  EXPECT_DOUBLE_EQ(experiment.controller.predictive.level_alpha, 0.6);
  EXPECT_DOUBLE_EQ(experiment.controller.predictive.trend_beta, 0.2);
  EXPECT_EQ(experiment.controller.predictive.horizon_periods, 4);
  EXPECT_DOUBLE_EQ(experiment.controller.policy.hysteresis, 0.05);
}

TEST(ScenarioTest, QueueingAndPiControllerVocabularyRoundTrips) {
  const Scenario queueing = Scenario::parse("[controller]\nkind=queueing\ntarget_util=0.55\n");
  EXPECT_TRUE(queueing == Scenario::parse(queueing.to_text()));
  EXPECT_DOUBLE_EQ(queueing.experiment().controller.queueing.target_util, 0.55);

  const Scenario pi = Scenario::parse(
      "[controller]\nkind=pi\ntarget_util=0.65\nkp=3\nki=0.25\ndeadband=0.4\n");
  EXPECT_TRUE(pi == Scenario::parse(pi.to_text()));
  const auto experiment = pi.experiment();
  EXPECT_EQ(experiment.controller.kind, core::ControllerSpec::Kind::kPi);
  EXPECT_DOUBLE_EQ(experiment.controller.pi.target_util, 0.65);
  EXPECT_DOUBLE_EQ(experiment.controller.pi.kp, 3.0);
  EXPECT_DOUBLE_EQ(experiment.controller.pi.ki, 0.25);
  EXPECT_DOUBLE_EQ(experiment.controller.pi.deadband, 0.4);
}

TEST(ScenarioTest, ZooKindsScopeTheirTuningKeys) {
  // Family knobs only apply to their family.
  EXPECT_THROW(Scenario::parse("[controller]\nkind=queueing\nalpha=0.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=predictive\nkp=2\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=ec2\ntarget_util=0.6\n"), std::runtime_error);
  // The threshold-rule extensions stay with the threshold-rule families.
  EXPECT_THROW(Scenario::parse("[controller]\nkind=queueing\npredictive=true\n"),
               std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=pi\nsla_rt=0.5\n"), std::runtime_error);
  // The hysteresis gate belongs to every real controller, but not to none.
  EXPECT_NO_THROW(Scenario::parse("[controller]\nkind=ec2\nhysteresis=0.05\n"));
  EXPECT_NO_THROW(Scenario::parse("[controller]\nkind=pi\nhysteresis=0.05\n"));
  EXPECT_THROW(Scenario::parse("[controller]\nhysteresis=0.05\n"), std::runtime_error);
}

TEST(ScenarioTest, ZooTuningValuesAreValidated) {
  EXPECT_THROW(Scenario::parse("[controller]\nkind=ec2\nhysteresis=-0.1\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=predictive\nalpha=0\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=predictive\nbeta=1.5\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=predictive\nhorizon=0\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=queueing\ntarget_util=1\n"),
               std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=pi\nkp=-1\n"), std::runtime_error);
  EXPECT_THROW(Scenario::parse("[controller]\nkind=pi\ndeadband=-0.5\n"), std::runtime_error);
}

TEST(ScenarioTest, KeyAppliesFollowsZooKinds) {
  Config config;
  config.set("controller", "kind", "predictive");
  EXPECT_TRUE(scenario_key_applies(config, "controller", "alpha"));
  EXPECT_TRUE(scenario_key_applies(config, "controller", "hysteresis"));
  EXPECT_FALSE(scenario_key_applies(config, "controller", "kp"));
  EXPECT_FALSE(scenario_key_applies(config, "controller", "target_util"));
  config.set("controller", "kind", "pi");
  EXPECT_TRUE(scenario_key_applies(config, "controller", "kp"));
  EXPECT_TRUE(scenario_key_applies(config, "controller", "target_util"));
  EXPECT_FALSE(scenario_key_applies(config, "controller", "alpha"));
  config.set("controller", "kind", "queueing");
  EXPECT_TRUE(scenario_key_applies(config, "controller", "target_util"));
  EXPECT_FALSE(scenario_key_applies(config, "controller", "predictive"));
}

// ---------------------------------------------------------------------------
// The key table: every kind combination, inapplicable fields, bounds and the
// override path.

constexpr WorkloadDecl::Kind kWorkloadKinds[] = {
    WorkloadDecl::Kind::kJmeter, WorkloadDecl::Kind::kRubbos, WorkloadDecl::Kind::kTrace};
constexpr ControllerDecl::Kind kControllerKinds[] = {
    ControllerDecl::Kind::kNone,       ControllerDecl::Kind::kEc2,
    ControllerDecl::Kind::kDcm,        ControllerDecl::Kind::kPredictive,
    ControllerDecl::Kind::kQueueing,   ControllerDecl::Kind::kPi};
constexpr core::TopologySpec::Kind kTopologyKinds[] = {core::TopologySpec::Kind::kChain3,
                                                       core::TopologySpec::Kind::kChain4,
                                                       core::TopologySpec::Kind::kGraph};

// A valid graph, so the graph kind parses (from_config builds it eagerly).
void add_graph(Scenario& s) {
  s.topology.nodes = {{"apache", "web"}, {"tomcat", "app"}, {"mysql", "db"}};
  s.topology.edges = {{"apache", "tomcat", 1, false, false}, {"tomcat", "mysql", 1, true, true}};
}

// Calls `check` with a default scenario under each of the 216 combinations
// of workload × controller × topology × resilience × trace kinds.
template <class Check>
void for_each_kind_combination(const Check& check) {
  for (const auto workload : kWorkloadKinds) {
    for (const auto controller : kControllerKinds) {
      for (const auto topology : kTopologyKinds) {
        for (const bool resilience : {false, true}) {
          for (const bool trace : {false, true}) {
            Scenario s;
            s.workload.kind = workload;
            s.controller.kind = controller;
            s.topology.kind = topology;
            if (topology == core::TopologySpec::Kind::kGraph) add_graph(s);
            s.resilience.enabled = resilience;
            s.trace.enabled = trace;
            SCOPED_TRACE(s.to_text());
            check(s);
          }
        }
      }
    }
  }
}

TEST(ScenarioTableTest, EveryKindCombinationRoundTripsCanonically) {
  int combinations = 0;
  for_each_kind_combination([&](const Scenario& s) {
    ++combinations;
    const Config config = s.to_config();
    EXPECT_EQ(Scenario::parse(s.to_text()).to_text(), s.to_text());
    EXPECT_TRUE(Scenario::from_config(config) == s);
    for (const auto& [section, keys] : config.sections()) {
      for (const auto& [key, value] : keys) {
        EXPECT_TRUE(scenario_key_applies(config, section, key)) << section << "." << key;
      }
    }
  });
  EXPECT_EQ(combinations, 216);
}

// Every field a non-default, in-range value; the kinds are left alone.
void scramble(Scenario& s) {
  s.name = "scrambled";
  s.summary = "every field off its default";
  s.hardware = {2, 3, 2};
  s.soft = {900, 50, 40};
  if (s.topology.kind != core::TopologySpec::Kind::kGraph) add_graph(s);
  s.topology.lb_policy = ntier::LbPolicy::kLeastConnections;
  s.workload.users = 64;
  s.workload.think_seconds = 1.5;
  s.workload.trace = "big-spike";
  s.workload.peak_users = 200;
  ControllerDecl& c = s.controller;
  c.control_period_seconds = 10.0;
  c.scale_out_util = 0.7;
  c.scale_in_util = 0.3;
  c.scale_in_consecutive = 2;
  c.hysteresis = 0.05;
  c.predictive = true;
  c.sla_rt = 0.8;
  c.headroom = 1.5;
  c.online_estimation = true;
  c.app_model = "0.03,0.0001,1e-06";
  c.db_model = "0.008,0.0001,3e-07";
  c.alpha = 0.6;
  c.beta = 0.2;
  c.horizon = 3;
  c.target_util = 0.55;
  c.kp = 3.0;
  c.ki = 0.25;
  c.deadband = 0.4;
  s.faults.crash_mttf_seconds = 90.0;
  s.faults.slowdown_factor = 0.5;
  core::ResilienceSpec& r = s.resilience;
  r.client_timeout_seconds = 1.5;
  r.client_retries = 3;
  r.client_backoff_seconds = 0.5;
  r.subrequest_timeout_seconds = 0.5;
  r.subrequest_retries = 2;
  r.health_period_seconds = 4.0;
  r.health_failure_threshold = 2;
  r.replace_failed = false;
  r.watchdog_periods = 3;
  r.min_fit_r2 = 0.6;
  s.trace.rate = 0.25;
  s.duration_seconds = 120.0;
  s.warmup_seconds = 10.0;
  s.max_vms = 6;
  s.seed = 42;
}

void expect_same_policy(const control::ScalingPolicy& a, const control::ScalingPolicy& b) {
  EXPECT_EQ(a.control_period, b.control_period);
  EXPECT_EQ(a.scale_out_util, b.scale_out_util);
  EXPECT_EQ(a.scale_in_util, b.scale_in_util);
  EXPECT_EQ(a.scale_in_consecutive, b.scale_in_consecutive);
  EXPECT_EQ(a.scale_out_response_time, b.scale_out_response_time);
  EXPECT_EQ(a.predictive, b.predictive);
  EXPECT_EQ(a.hysteresis, b.hysteresis);
}

void expect_same_experiment(const core::ExperimentConfig& a, const core::ExperimentConfig& b) {
  EXPECT_TRUE(a.hardware == b.hardware);
  EXPECT_TRUE(a.soft == b.soft);
  EXPECT_TRUE(a.topology == b.topology);
  EXPECT_EQ(a.workload.kind, b.workload.kind);
  EXPECT_EQ(a.workload.users, b.workload.users);
  EXPECT_EQ(a.workload.mean_think_seconds, b.workload.mean_think_seconds);
  EXPECT_EQ(a.workload.trace.max_users(), b.workload.trace.max_users());
  EXPECT_EQ(a.workload.trace.duration(), b.workload.trace.duration());
  const core::ControllerSpec& x = a.controller;
  const core::ControllerSpec& y = b.controller;
  EXPECT_EQ(x.kind, y.kind);
  expect_same_policy(x.policy, y.policy);
  expect_same_policy(x.dcm.policy, y.dcm.policy);
  EXPECT_EQ(x.dcm.app_tier_model.params.s0, y.dcm.app_tier_model.params.s0);
  EXPECT_EQ(x.dcm.db_tier_model.params.beta, y.dcm.db_tier_model.params.beta);
  EXPECT_EQ(x.dcm.stp_headroom, y.dcm.stp_headroom);
  EXPECT_EQ(x.dcm.online_estimation, y.dcm.online_estimation);
  expect_same_policy(x.predictive.policy, y.predictive.policy);
  EXPECT_EQ(x.predictive.level_alpha, y.predictive.level_alpha);
  EXPECT_EQ(x.predictive.trend_beta, y.predictive.trend_beta);
  EXPECT_EQ(x.predictive.horizon_periods, y.predictive.horizon_periods);
  expect_same_policy(x.queueing.policy, y.queueing.policy);
  EXPECT_EQ(x.queueing.target_util, y.queueing.target_util);
  expect_same_policy(x.pi.policy, y.pi.policy);
  EXPECT_EQ(x.pi.target_util, y.pi.target_util);
  EXPECT_EQ(x.pi.kp, y.pi.kp);
  EXPECT_EQ(x.pi.ki, y.pi.ki);
  EXPECT_EQ(x.pi.deadband, y.pi.deadband);
  EXPECT_TRUE(a.faults == b.faults);
  EXPECT_TRUE(a.resilience == b.resilience);
  EXPECT_TRUE(a.trace == b.trace);
  EXPECT_EQ(a.duration_seconds, b.duration_seconds);
  EXPECT_EQ(a.warmup_seconds, b.warmup_seconds);
  EXPECT_EQ(a.max_vms_per_tier, b.max_vms_per_tier);
  EXPECT_EQ(a.seed, b.seed);
}

TEST(ScenarioTableTest, ExperimentIgnoresInapplicableFields) {
  // The canonical text drops every inapplicable field, so its re-parse holds
  // defaults there; experiment() must not see the difference.
  for_each_kind_combination([](Scenario s) {
    scramble(s);
    expect_same_experiment(s.experiment(), Scenario::parse(s.to_text()).experiment());
  });
}

TEST(ScenarioTableTest, OutOfRangeValuesAreParseErrors) {
  const char* const kBad[] = {
      "[run]\nduration=60\nwarmup=60\n",
      "[run]\nwarmup=-1\n",
      "[run]\nduration=0\nwarmup=0\n",
      "[workload]\nusers=-1\n",
      "[workload]\nthink_seconds=0\n",
      "[hardware]\nweb=0\n",
      "[hardware]\napp=0\n",
      "[hardware]\ndb=0\n",
      "[soft]\nweb_threads=0\n",
      "[soft]\napp_threads=0\n",
      "[soft]\ndb_connections=0\n",
      "[controller]\nkind=ec2\ncontrol_period=0\n",
      "[controller]\nkind=ec2\nhysteresis=-0.1\n",
      "[controller]\nkind=dcm\nheadroom=0.9\n",
      "[controller]\nkind=dcm\napp_model=0,1e-4,7e-7\n",
      "[controller]\nkind=dcm\ndb_model=7e-3,-1e-4,2e-7\n",
      "[controller]\nkind=dcm\napp_model=1,2\n",
      "[controller]\nkind=predictive\nalpha=0\n",
      "[controller]\nkind=predictive\nalpha=1.5\n",
      "[controller]\nkind=predictive\nbeta=-0.1\n",
      "[controller]\nkind=predictive\nhorizon=0\n",
      "[controller]\nkind=queueing\ntarget_util=0\n",
      "[controller]\nkind=pi\ntarget_util=1\n",
      "[controller]\nkind=pi\nkp=-1\n",
      "[controller]\nkind=pi\nki=-1\n",
      "[controller]\nkind=pi\ndeadband=-0.5\n",
      "[resilience]\nenabled=true\nhealth_period=0\n",
      "[resilience]\nenabled=true\nhealth_failure_threshold=0\n",
      "[trace]\nenabled=true\nrate=1.5\n",
  };
  for (const char* text : kBad) {
    SCOPED_TRACE(text);
    try {
      Scenario::parse(text);
      ADD_FAILURE() << "expected a scenario: error";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("scenario: ", 0), 0u) << e.what();
    }
  }
  // Values that run stay legal: a zero VM cap, a zero warmup.
  EXPECT_NO_THROW(Scenario::parse("[run]\nmax_vms=0\nwarmup=0\n"));
}

TEST(ScenarioTableTest, WithOverridesRescopesOnKindChange) {
  // Toggling a kind drops the base keys that stop applying...
  const Scenario fig5 = get_scenario("fig5");
  Scenario ec2 = fig5.with_overrides({{"controller.kind", "ec2"}});
  ec2.name = "fig5-ec2";
  ec2.summary = get_scenario("fig5-ec2").summary;
  EXPECT_TRUE(ec2 == get_scenario("fig5-ec2"));
  EXPECT_FALSE(get_scenario("chaos-resilience")
                   .with_overrides({{"resilience.enabled", "false"}})
                   .resilience.enabled);
  EXPECT_NO_THROW(fig5.with_overrides({{"trace.enabled", "true"}, {"trace.enabled", "false"}}));
  // ...but an override naming a key that does not apply is an error.
  EXPECT_THROW(fig5.with_overrides({{"controller.kind", "ec2"}, {"controller.headroom", "2"}}),
               std::runtime_error);
  EXPECT_THROW(fig5.with_overrides({{"controller.kidn", "ec2"}}), std::runtime_error);
  EXPECT_THROW(fig5.with_overrides({{"controller", "ec2"}}), std::runtime_error);
  // Comma-valued keys are plain values here: fig5 plus the two wrong models
  // is the wrong-models ablation.
  Scenario wrong = fig5.with_overrides({{"controller.app_model", "2.84e-2,1e-4,7.075e-7"},
                                        {"controller.db_model", "7.19e-3,1e-4,2.76953125e-7"}});
  wrong.name = "ablation-wrong-models";
  wrong.summary = get_scenario("ablation-wrong-models").summary;
  EXPECT_TRUE(wrong == get_scenario("ablation-wrong-models"));
}

}  // namespace
}  // namespace dcm::scenario
