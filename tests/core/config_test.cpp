#include "common/config.h"

#include <gtest/gtest.h>

#include "scenario/scenario.h"

namespace dcm {
namespace {

// INI text → runnable config: the one path every config file takes.
core::ExperimentConfig load(const std::string& text) {
  return scenario::Scenario::parse(text).experiment();
}

TEST(ConfigTest, ParsesSectionsAndKeys) {
  const Config config = Config::parse(
      "[hardware]\n"
      "web = 2\n"
      "app=3\n"
      "\n"
      "[run]\n"
      "duration = 42.5\n");
  EXPECT_EQ(config.get_int("hardware", "web", 0), 2);
  EXPECT_EQ(config.get_int("hardware", "app", 0), 3);
  EXPECT_DOUBLE_EQ(config.get_double("run", "duration", 0.0), 42.5);
}

TEST(ConfigTest, CommentsAndWhitespace) {
  const Config config = Config::parse(
      "# full line comment\n"
      "[s]  \n"
      "key = value   ; trailing comment\n"
      "other = x # another\n");
  EXPECT_EQ(config.get_string("s", "key"), "value");
  EXPECT_EQ(config.get_string("s", "other"), "x");
}

TEST(ConfigTest, FallbacksForMissingKeys) {
  const Config config = Config::parse("[a]\nx = 1\n");
  EXPECT_EQ(config.get_int("a", "missing", 9), 9);
  EXPECT_EQ(config.get_string("nope", "x", "d"), "d");
  EXPECT_TRUE(config.get_bool("a", "missing", true));
  EXPECT_FALSE(config.has("a", "missing"));
  EXPECT_TRUE(config.has("a", "x"));
}

TEST(ConfigTest, BooleanSpellings) {
  const Config config = Config::parse(
      "[b]\nt1=true\nt2=Yes\nt3=ON\nt4=1\nf1=false\nf2=no\nf3=Off\nf4=0\n");
  for (const char* key : {"t1", "t2", "t3", "t4"}) {
    EXPECT_TRUE(config.get_bool("b", key, false)) << key;
  }
  for (const char* key : {"f1", "f2", "f3", "f4"}) {
    EXPECT_FALSE(config.get_bool("b", key, true)) << key;
  }
}

TEST(ConfigTest, MalformedInputsThrow) {
  EXPECT_THROW(Config::parse("[unclosed\nx=1\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("[s]\nno_equals_here\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("[s]\n= value\n"), std::runtime_error);
  const Config config = Config::parse("[s]\nx = notanumber\n");
  EXPECT_THROW(config.get_int("s", "x", 0), std::runtime_error);
  EXPECT_THROW(config.get_double("s", "x", 0.0), std::runtime_error);
  EXPECT_THROW(config.get_bool("s", "x", false), std::runtime_error);
}

TEST(ConfigTest, SetOverrides) {
  Config config = Config::parse("[s]\nx = 1\n");
  config.set("s", "x", "2");
  config.set("new", "y", "3");
  EXPECT_EQ(config.get_int("s", "x", 0), 2);
  EXPECT_EQ(config.get_int("new", "y", 0), 3);
}

TEST(ConfigLoaderTest, DefaultsWhenEmpty) {
  const auto experiment = load("");
  EXPECT_EQ(experiment.hardware.app, 1);
  EXPECT_EQ(experiment.soft.db_connections, 80);
  EXPECT_EQ(experiment.workload.kind, core::WorkloadSpec::Kind::kRubbosClients);
  EXPECT_EQ(experiment.controller.kind, core::ControllerSpec::Kind::kNone);
  EXPECT_DOUBLE_EQ(experiment.duration_seconds, 300.0);
}

TEST(ConfigLoaderTest, FullExperimentTranslation) {
  const auto experiment = load(
      "[hardware]\nweb=1\napp=2\ndb=2\n"
      "[soft]\napp_threads=20\ndb_connections=18\n"
      "[workload]\nkind=jmeter\nusers=64\n"
      "[controller]\nkind=ec2\nscale_out_util=0.7\npredictive=true\nsla_rt=0.8\n"
      "[run]\nduration=120\nwarmup=10\nmax_vms=6\n");
  EXPECT_EQ(experiment.hardware.app, 2);
  EXPECT_EQ(experiment.soft.app_threads, 20);
  EXPECT_EQ(experiment.workload.kind, core::WorkloadSpec::Kind::kJmeter);
  EXPECT_EQ(experiment.workload.users, 64);
  EXPECT_EQ(experiment.controller.kind, core::ControllerSpec::Kind::kEc2AutoScale);
  EXPECT_DOUBLE_EQ(experiment.controller.policy.scale_out_util, 0.7);
  EXPECT_TRUE(experiment.controller.policy.predictive);
  EXPECT_DOUBLE_EQ(experiment.controller.policy.scale_out_response_time, 0.8);
  EXPECT_EQ(experiment.max_vms_per_tier, 6);
}

TEST(ConfigLoaderTest, TaxonomyTraceByName) {
  const auto experiment = load("[workload]\nkind=trace\ntrace=big-spike\npeak_users=200\n");
  EXPECT_EQ(experiment.workload.kind, core::WorkloadSpec::Kind::kTrace);
  EXPECT_GE(experiment.workload.trace.max_users(), 170);
  EXPECT_LE(experiment.workload.trace.max_users(), 230);
}

TEST(ConfigLoaderTest, DcmControllerGetsReferenceModels) {
  const auto experiment = load("[controller]\nkind=dcm\nheadroom=1.5\n");
  EXPECT_EQ(experiment.controller.kind, core::ControllerSpec::Kind::kDcm);
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.stp_headroom, 1.5);
  EXPECT_NEAR(experiment.controller.dcm.db_tier_model.optimal_concurrency(), 36.0, 1.0);
}

TEST(ConfigLoaderTest, WorkloadSeedIsRejected) {
  // The two-seed split ([run] seed + [workload] seed) was unified into a
  // single root seed; the old key is outside the vocabulary and must fail
  // loudly, not silently no-op.
  EXPECT_THROW(load("[workload]\nkind=rubbos\nseed=9\n"), std::runtime_error);
}

TEST(ConfigLoaderTest, DcmModelOverridesParsed) {
  const auto experiment = load("[controller]\nkind=dcm\napp_model = 2.84e-2, 1e-4, 7.09e-7\n");
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.s0, 2.84e-2);
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.alpha, 1e-4);
  EXPECT_DOUBLE_EQ(experiment.controller.dcm.app_tier_model.params.beta, 7.09e-7);
  // db model untouched → reference N_b ≈ 36.
  EXPECT_NEAR(experiment.controller.dcm.db_tier_model.optimal_concurrency(), 36.0, 1.0);
  EXPECT_THROW(load("[controller]\nkind=dcm\napp_model = 1,2\n"), std::runtime_error);
  EXPECT_THROW(load("[controller]\nkind=dcm\ndb_model = a,b,c\n"), std::runtime_error);
}

TEST(ConfigTest, ToTextRoundTrips) {
  const Config config = Config::parse(
      "top = 1\n"
      "[b]\nz = 2\na = hello world\n"
      "[a]\nk = 0.5\n");
  const std::string text = config.to_text();
  // parse → emit → parse is identity...
  EXPECT_TRUE(Config::parse(text) == config);
  // ...and emit is a fixed point (canonical form).
  EXPECT_EQ(Config::parse(text).to_text(), text);
  // Sections and keys are emitted sorted, sectionless keys first.
  EXPECT_EQ(text,
            "top = 1\n"
            "\n[a]\nk = 0.5\n"
            "\n[b]\na = hello world\nz = 2\n");
}

TEST(ConfigLoaderTest, UnknownKindsThrow) {
  EXPECT_THROW(load("[workload]\nkind=weird\n"), std::runtime_error);
  EXPECT_THROW(load("[controller]\nkind=weird\n"), std::runtime_error);
  EXPECT_THROW(load("[workload]\nkind=trace\ntrace=/no/such/file.csv\n"), std::runtime_error);
}

TEST(ConfigLoaderTest, ConfigDrivenRunExecutes) {
  const auto experiment = load(
      "[workload]\nkind=rubbos\nusers=50\n"
      "[run]\nduration=40\nwarmup=10\n");
  const auto result = core::run_experiment(experiment);
  EXPECT_GT(result.completed, 100u);
  EXPECT_EQ(result.errors, 0u);
}

}  // namespace
}  // namespace dcm
