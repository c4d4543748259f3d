// In-process tests for the dcm_lint rule engine, driven by the fixture
// corpus in fixtures/. Each rule has a firing and a non-firing fixture;
// fixtures are linted under virtual paths inside (or outside) each rule's
// scope, since scoping is part of the contract. Hot-path-scoped rules use
// fixtures whose offending code sits inside (or is called from) a hot-path
// seed class — `Server`, `CpuScheduler`, `EventQueue::pop`,
// `ClosedLoopGenerator` — and cold
// variants of the same code that must stay silent.
//
// The header-self-sufficiency rule has no token engine: its fixtures are
// compiled standalone with the real compiler (the same thing the
// dcm_header_selfcheck CMake target does to every src/**/*.h).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dcm_lint/baseline.h"
#include "dcm_lint/emit.h"
#include "dcm_lint/linter.h"

namespace dcm::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(DCM_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Diagnostic> lint_fixture(const std::string& name,
                                     const std::string& virtual_path) {
  return lint_source(virtual_path, read_fixture(name));
}

/// Lints a mini-tree fixture directory (fixtures/<name>/src/...).
std::vector<Diagnostic> lint_fixture_tree(const std::string& name) {
  return lint_tree(std::string(DCM_LINT_FIXTURE_DIR) + "/" + name, {"src"});
}

/// (rule, line) pairs, for order-insensitive comparison.
std::multiset<std::pair<std::string, int>> findings(const std::vector<Diagnostic>& diags) {
  std::multiset<std::pair<std::string, int>> out;
  for (const auto& d : diags) out.emplace(d.rule, d.line);
  return out;
}

std::set<std::string> rules_fired(const std::vector<Diagnostic>& diags) {
  std::set<std::string> out;
  for (const auto& d : diags) out.insert(d.rule);
  return out;
}

using Expected = std::multiset<std::pair<std::string, int>>;

// --- no-wall-clock ---------------------------------------------------------

TEST(DcmLintTest, WallClockFires) {
  const auto diags = lint_fixture("wall_clock_fire.cc", "src/ntier/clocky.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-wall-clock", 10}, {"no-wall-clock", 14}}));
}

TEST(DcmLintTest, WallClockCleanFileIsClean) {
  EXPECT_TRUE(lint_fixture("wall_clock_clean.cc", "src/core/clocky.cc").empty());
}

TEST(DcmLintTest, WallClockColdSiteIsClean) {
  // Identical clock accesses in a free function no hot-path seed reaches:
  // cold setup/reporting code may read the host clock.
  EXPECT_TRUE(lint_fixture("wall_clock_cold.cc", "src/core/clocky.cc").empty());
}

TEST(DcmLintTest, WallClockScopedToSrc) {
  // Benches and tools may read the host clock; the rule only covers src/.
  EXPECT_TRUE(lint_fixture("wall_clock_fire.cc", "bench/timer.cc").empty());
}

// --- no-ambient-randomness -------------------------------------------------

TEST(DcmLintTest, AmbientRandomnessFires) {
  const auto diags = lint_fixture("randomness_fire.cc", "src/workload/seedy.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-ambient-randomness", 9},
                                       {"no-ambient-randomness", 13},
                                       {"no-ambient-randomness", 15}}));
}

TEST(DcmLintTest, AmbientRandomnessCleanFileIsClean) {
  EXPECT_TRUE(lint_fixture("randomness_clean.cc", "src/workload/seedy.cc").empty());
}

TEST(DcmLintTest, AmbientRandomnessColdSiteIsClean) {
  EXPECT_TRUE(lint_source("src/workload/seedy.cc",
                          "int cold_draw() { return rand() % 6; }\n")
                  .empty());
}

TEST(DcmLintTest, AmbientRandomnessCoversSweepCli) {
  // The sweep CLI feeds seeds into experiments; a stray rand() there would
  // break the bit-identical --jobs 1 vs --jobs N guarantee. dcm_run (and
  // examples/) are covered whole-file: nothing there is dispatch-reachable,
  // but nondeterministic seeding still poisons replay.
  EXPECT_FALSE(lint_fixture("randomness_fire.cc", "tools/dcm_run/main.cpp").empty());
  EXPECT_FALSE(
      lint_source("examples/quickstart.cpp", "int d() { return rand() % 6; }\n").empty());
}

// --- no-unordered-iteration ------------------------------------------------

TEST(DcmLintTest, UnorderedIterationFires) {
  const auto diags = lint_fixture("unordered_iter_fire.cc", "src/control/spread.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-unordered-iteration", 9},
                                       {"no-unordered-iteration", 17}}));
}

TEST(DcmLintTest, UnorderedIterationCleanFileIsClean) {
  EXPECT_TRUE(lint_fixture("unordered_iter_clean.cc", "src/control/spread.cc").empty());
}

TEST(DcmLintTest, UnorderedIterationIsTreeWide) {
  // Promoted from src/{sim,ntier,control,scenario} to all of src/ plus the
  // CLIs and examples: hash-order iteration anywhere in library code can
  // leak into logs, tables, or digests.
  EXPECT_FALSE(lint_fixture("unordered_iter_fire.cc", "src/fit/spread.cc").empty());
  EXPECT_FALSE(lint_fixture("unordered_iter_fire.cc", "examples/quickstart.cpp").empty());
}

TEST(DcmLintTest, UnorderedIterationCoversSweepMerge) {
  // Hash-order iteration in the scenario layer or the sweep CLI would leak
  // into run ordering and break sweep-digest invariance across job counts.
  EXPECT_FALSE(lint_fixture("unordered_iter_fire.cc", "src/scenario/sweep.cc").empty());
  EXPECT_FALSE(lint_fixture("unordered_iter_fire.cc", "tools/dcm_run/main.cpp").empty());
}

// --- no-raw-assert ---------------------------------------------------------

TEST(DcmLintTest, RawAssertFires) {
  const auto diags = lint_fixture("raw_assert_fire.cc", "src/model/invariants.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-raw-assert", 3}, {"no-raw-assert", 6}}));
}

TEST(DcmLintTest, RawAssertCleanFileIsClean) {
  EXPECT_TRUE(lint_fixture("raw_assert_clean.cc", "src/model/invariants.cc").empty());
}

TEST(DcmLintTest, RawAssertAppliesToTests) {
  EXPECT_FALSE(lint_fixture("raw_assert_fire.cc", "tests/model/invariants_test.cpp").empty());
}

// --- no-float-eq -----------------------------------------------------------

TEST(DcmLintTest, FloatEqFires) {
  const auto diags = lint_fixture("float_eq_fire.cc", "src/metrics/compare.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-float-eq", 2},
                                       {"no-float-eq", 4},
                                       {"no-float-eq", 6}}));
}

TEST(DcmLintTest, FloatEqCleanFileIsClean) {
  EXPECT_TRUE(lint_fixture("float_eq_clean.cc", "src/metrics/compare.cc").empty());
}

// --- no-raw-new-in-hot-path ------------------------------------------------

TEST(DcmLintTest, RawNewFires) {
  const auto diags = lint_fixture("raw_new_fire.cc", "src/sim/node_pool.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-raw-new-in-hot-path", 10},
                                       {"no-raw-new-in-hot-path", 12}}));
}

TEST(DcmLintTest, RawNewCleanFileIsClean) {
  EXPECT_TRUE(lint_fixture("raw_new_clean.cc", "src/sim/node_pool.cc").empty());
}

TEST(DcmLintTest, RawNewCoversRequestPath) {
  // The allocation-free invariant follows reachability, not directories: the
  // same seed-class fixture fires anywhere under src/.
  const auto diags = lint_fixture("raw_new_fire.cc", "src/ntier/node_pool.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-raw-new-in-hot-path", 10},
                                       {"no-raw-new-in-hot-path", 12}}));
}

TEST(DcmLintTest, RawNewCoversClientRequestPath) {
  // The closed-loop generator issues, times out and retries every request:
  // its members are seeds too, so a per-attempt allocation there fires.
  const auto diags = lint_fixture("raw_new_client_fire.cc", "src/workload/closed_loop.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-raw-new-in-hot-path", 13},
                                       {"no-raw-new-in-hot-path", 15}}));
}

TEST(DcmLintTest, RawNewColdSiteIsClean) {
  // The identical allocation in a free function nothing hot calls is fine,
  // even inside src/sim: cold setup may allocate.
  EXPECT_TRUE(lint_fixture("raw_new_cold.cc", "src/sim/node_pool.cc").empty());
  EXPECT_TRUE(lint_fixture("raw_new_cold.cc", "src/model/trainer.cc").empty());
}

TEST(DcmLintTest, CallGraphReachesTransitiveCallees) {
  // The allocation lives in a free helper, but EventQueue::pop calls it, so
  // the helper is hot by closure and the rule fires at the allocation site.
  const auto diags = lint_fixture("callgraph_transitive_fire.cc", "src/sim/jobs.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-raw-new-in-hot-path", 19}}));
}

// --- no-pointer-keyed-order ------------------------------------------------

TEST(DcmLintTest, PointerKeyedOrderFires) {
  const auto diags = lint_fixture("pointer_key_fire.cc", "src/ntier/vm_map.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-pointer-keyed-order", 10},
                                       {"no-pointer-keyed-order", 11},
                                       {"no-pointer-keyed-order", 12}}));
}

TEST(DcmLintTest, PointerKeyedOrderCleanFileIsClean) {
  EXPECT_TRUE(lint_fixture("pointer_key_clean.cc", "src/ntier/vm_map.cc").empty());
}

// --- no-unanchored-float-accumulate ----------------------------------------

TEST(DcmLintTest, FloatAccumulateFires) {
  const auto diags = lint_fixture("float_accumulate_fire.cc", "src/metrics/rate.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-unanchored-float-accumulate", 11},
                                       {"no-unanchored-float-accumulate", 17}}));
}

TEST(DcmLintTest, FloatAccumulateCleanFileIsClean) {
  // Local accumulators, members with a re-anchoring assignment, and
  // non-loop updates are all deterministic shapes.
  EXPECT_TRUE(lint_fixture("float_accumulate_clean.cc", "src/metrics/rate.cc").empty());
}

// --- layering & include cycles ---------------------------------------------

TEST(DcmLintTest, IncludeCycleIsReported) {
  const auto diags = lint_fixture_tree("tree_cycle");
  EXPECT_EQ(rules_fired(diags), (std::set<std::string>{"include-cycle"}));
}

TEST(DcmLintTest, UpwardIncludeIsLayeringViolation) {
  const auto diags = lint_fixture_tree("tree_upward");
  EXPECT_EQ(rules_fired(diags), (std::set<std::string>{"layering-violation"}));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].path, "src/sim/engine.h");
  EXPECT_EQ(diags[0].line, 4);
}

TEST(DcmLintTest, CleanLayeredTreeIsClean) {
  EXPECT_TRUE(lint_fixture_tree("tree_clean").empty());
}

// --- suppression comments --------------------------------------------------

TEST(DcmLintTest, SuppressionCoversSameLineAndPrecedingLine) {
  const auto diags = lint_fixture("suppression.cc", "src/metrics/compare.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-float-eq", 14}}));
}

TEST(DcmLintTest, SuppressionScopeIsPinned) {
  // Regression: a trailing allow() must not leak onto the next line, and a
  // standalone allow() skips blank lines to the next code line.
  const auto diags = lint_fixture("suppression_scope.cc", "src/metrics/compare.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-float-eq", 5}}));
}

TEST(DcmLintTest, AllowListNamingTwoRulesSuppressesBoth) {
  const auto diags = lint_fixture("multi_rule_line.cc", "src/model/invariants.cc");
  // Line 8 (assert + float-eq) is fully suppressed; line 12 keeps its
  // no-float-eq finding because the allow() names only no-raw-assert.
  EXPECT_EQ(findings(diags), (Expected{{"no-float-eq", 12}}));
}

TEST(DcmLintTest, SuppressionIsPerRule) {
  const auto diags =
      lint_source("src/metrics/compare.cc",
                  "bool f(double x) { return x == 0.0; }  // dcm-lint: allow(no-raw-assert)\n");
  EXPECT_EQ(findings(diags), (Expected{{"no-float-eq", 1}}));
}

TEST(DcmLintTest, SuppressionDoesNotReachPastNextLine) {
  const auto diags = lint_source("src/metrics/compare.cc",
                                 "// dcm-lint: allow(no-float-eq)\n"
                                 "int pad;\n"
                                 "bool f(double x) { return x == 0.0; }\n");
  EXPECT_EQ(findings(diags), (Expected{{"no-float-eq", 3}}));
}

TEST(DcmLintTest, SuppressionAppliesToTreePasses) {
  const auto diags =
      lint_sources({{"src/sim/engine.h",
                     "#pragma once\n"
                     "// dcm-lint: allow(layering-violation)\n"
                     "#include \"control/policy.h\"\n"},
                    {"src/control/policy.h", "#pragma once\n"}});
  EXPECT_TRUE(diags.empty());
}

TEST(DcmLintTest, UnknownRuleInAllowIsReported) {
  const auto diags = lint_source("src/metrics/compare.cc",
                                 "int x;  // dcm-lint: allow(no-such-rule)\n");
  EXPECT_EQ(findings(diags), (Expected{{"unknown-suppression", 1}}));
}

TEST(DcmLintTest, TreePassSuppressionNamesAreKnown) {
  EXPECT_TRUE(is_known_rule("layering-violation"));
  EXPECT_TRUE(is_known_rule("include-cycle"));
}

TEST(DcmLintTest, HeaderSelfSufficiencySuppressionNameIsKnown) {
  EXPECT_TRUE(is_known_rule("header-self-sufficiency"));
  EXPECT_TRUE(lint_source("src/common/x.h",
                          "int x;  // dcm-lint: allow(header-self-sufficiency)\n")
                  .empty());
}

// --- lexer hardening -------------------------------------------------------

TEST(DcmLintTest, LexerRawStringDoesNotDesync) {
  const auto diags = lint_fixture("lexer_raw_string_fire.cc", "src/metrics/doc.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-float-eq", 4}}));
}

TEST(DcmLintTest, LexerRawStringContentIsNotCode) {
  EXPECT_TRUE(lint_fixture("lexer_raw_string_clean.cc", "src/metrics/doc.cc").empty());
}

TEST(DcmLintTest, LexerDigitSeparatorDoesNotDesync) {
  const auto diags = lint_fixture("lexer_digit_separator_fire.cc", "src/metrics/nums.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-float-eq", 5}}));
}

TEST(DcmLintTest, LexerDigitSeparatorCleanFileIsClean) {
  EXPECT_TRUE(lint_fixture("lexer_digit_separator_clean.cc", "src/metrics/nums.cc").empty());
}

TEST(DcmLintTest, LexerBomIsSkipped) {
  const auto diags = lint_fixture("lexer_bom_fire.cc", "src/metrics/bom.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-float-eq", 3}}));
}

TEST(DcmLintTest, LexerBomDoesNotBreakSuppression) {
  EXPECT_TRUE(lint_fixture("lexer_bom_clean.cc", "src/metrics/bom.cc").empty());
}

TEST(DcmLintTest, LexerLineContinuationKeepsLineNumbers) {
  const auto diags =
      lint_fixture("lexer_line_continuation_fire.cc", "src/metrics/splice.cc");
  EXPECT_EQ(findings(diags), (Expected{{"no-float-eq", 4}}));
}

TEST(DcmLintTest, LexerLineContinuationSwallowsCommentText) {
  EXPECT_TRUE(
      lint_fixture("lexer_line_continuation_clean.cc", "src/metrics/splice.cc").empty());
}

// --- baseline --------------------------------------------------------------

TEST(DcmLintTest, BaselineWaivesExactFindingOnce) {
  std::vector<Diagnostic> diags = {
      {"no-float-eq", "src/a.cc", 3, "m"},
      {"no-float-eq", "src/a.cc", 3, "m"},
      {"no-float-eq", "src/a.cc", 9, "m"},
  };
  const std::vector<BaselineEntry> baseline = {{"no-float-eq", "src/a.cc", 3}};
  const auto kept = apply_baseline(diags, baseline);
  // One entry waives one finding; the duplicate and the other line survive.
  EXPECT_EQ(findings(kept),
            (Expected{{"no-float-eq", 3}, {"no-float-eq", 9}}));
}

TEST(DcmLintTest, BaselineRoundTripsThroughFormat) {
  const std::vector<Diagnostic> diags = {{"no-wall-clock", "src/b.cc", 7, "m"}};
  const std::string text = format_baseline(diags);
  EXPECT_NE(text.find("no-wall-clock\tsrc/b.cc\t7"), std::string::npos);
}

// --- emitters --------------------------------------------------------------

TEST(DcmLintTest, JsonEmitterEscapesAndStructures) {
  const std::vector<Diagnostic> diags = {{"r", "src/a.cc", 1, "say \"hi\"\n"}};
  const std::string json = to_json(diags);
  EXPECT_NE(json.find("\"rule\":\"r\""), std::string::npos);
  EXPECT_NE(json.find("say \\\"hi\\\"\\n"), std::string::npos);
}

TEST(DcmLintTest, SarifEmitterListsRulesAndResults) {
  const std::vector<Diagnostic> diags = {{"no-float-eq", "src/a.cc", 2, "m"},
                                         {"no-wall-clock", "src/b.cc", 5, "m"}};
  const std::string sarif = to_sarif(diags);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"no-float-eq\"}"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 5"), std::string::npos);
}

// --- engine determinism ----------------------------------------------------

TEST(DcmLintTest, DiagnosticsAreSortedAndStable) {
  const std::string content = read_fixture("randomness_fire.cc");
  const auto a = lint_source("src/workload/seedy.cc", content);
  const auto b = lint_source("src/workload/seedy.cc", content);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rule, b[i].rule);
    EXPECT_EQ(a[i].line, b[i].line);
    if (i > 0) {
      EXPECT_LE(a[i - 1].line, a[i].line);
    }
  }
}

// --- header-self-sufficiency (compiler-driven) -----------------------------

int compile_standalone(const std::string& header) {
  const std::string cmd = std::string(DCM_CXX_COMPILER) + " -std=c++20 -fsyntax-only -x c++ \"" +
                          std::string(DCM_LINT_FIXTURE_DIR) + "/" + header +
                          "\" > /dev/null 2>&1";
  return std::system(cmd.c_str());
}

TEST(DcmLintTest, HeaderSelfSufficiencyFires) {
  EXPECT_NE(compile_standalone("header_fire.h"), 0);
}

TEST(DcmLintTest, HeaderSelfSufficiencyCleanHeaderCompiles) {
  EXPECT_EQ(compile_standalone("header_clean.h"), 0);
}

}  // namespace
}  // namespace dcm::lint
