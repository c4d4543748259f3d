// Golden pins on the trace outputs themselves.
//
// The registry pins only result_digest, which tracing must never move. This
// file pins what tracing *produces*: the trace_digest (every span stream,
// annotation and attribution row, bit for bit) and an FNV-1a hash of the
// per-span CSV, for the traced runs `dcm_run run` makes at registry
// defaults. Any change to span storage, the attribution fold or the CSV
// writer that alters a single byte fails here by name.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "scenario/registry.h"
#include "scenario/result_writer.h"
#include "trace/attribution.h"
#include "trace/store.h"

namespace dcm::scenario {
namespace {

struct GoldenCase {
  const char* label;     // gtest name
  const char* scenario;  // registry name
  // dcm_run spelling: --trace sets trace.enabled, --trace-rate R also sets
  // trace.rate (formatted %.17g, as the CLI does).
  std::vector<std::pair<std::string, std::string>> overrides;
  uint64_t trace_digest;
  uint64_t spans_csv_hash;
};

std::vector<GoldenCase> golden_cases() {
  return {
      {"trace_attribution", "trace-attribution", {}, 15619993940063196244ull,
       1469472548869827119ull},
      {"chaos_resilience_trace", "chaos-resilience", {{"trace.enabled", "true"}},
       266774200389228278ull, 13839418038207951641ull},
      {"chaos_resilience_rate_quarter", "chaos-resilience",
       {{"trace.enabled", "true"}, {"trace.rate", "0.25"}}, 13068435409863635897ull,
       2626793979547015363ull},
      {"fanout_join_trace", "fanout-join", {{"trace.enabled", "true"}}, 6353006236253855114ull,
       2547664638261678765ull},
      {"diamond_cache", "diamond-cache", {}, 16038803485755255161ull,
       7041568867446969314ull},
  };
}

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.label; }

class TraceGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(TraceGoldenTest, TraceDigestAndSpansCsvMatchPinnedValues) {
  const GoldenCase& c = GetParam();
  const core::ExperimentResult result =
      core::run_experiment(get_scenario(c.scenario).with_overrides(c.overrides).experiment());
  ASSERT_NE(result.trace_report, nullptr);

  std::ostringstream csv;
  write_spans_csv(csv, result);
  Fnv1a csv_hash;
  csv_hash.mix(csv.view());

  EXPECT_EQ(trace_digest(*result.trace_report), c.trace_digest)
      << c.label << ": trace report (spans, annotations or attribution) changed";
  EXPECT_EQ(csv_hash.value(), c.spans_csv_hash) << c.label << ": spans CSV bytes changed";
}

INSTANTIATE_TEST_SUITE_P(RegistryRuns, TraceGoldenTest, ::testing::ValuesIn(golden_cases()),
                         [](const ::testing::TestParamInfo<GoldenCase>& param) {
                           return std::string(param.param.label);
                         });

// What the canonical traced run's store holds. The record sizes are pinned in
// tests/ntier/record_layout_test.cpp; this pins how many chunks the run opens
// and the bytes they add up to, so a layout change that grows trace memory
// fails here as a count.
TEST(TraceFootprintTest, TraceAttributionRunHoldsPinnedChunks) {
  const core::ExperimentResult result =
      core::run_experiment(get_scenario("trace-attribution").experiment());
  ASSERT_NE(result.trace_report, nullptr);
  const trace::TraceStore& store = *result.trace_report->store;
  EXPECT_EQ(store.span_chunks(), 57u);
  EXPECT_EQ(store.context_chunks(), 20u);
  // 57 span chunks of 48 KiB + 16 B, 20 context chunks of 512 x 88 B + 8 B.
  EXPECT_EQ(store.bytes_reserved(), 57u * 49'168u + 20u * 45'064u);
}

}  // namespace
}  // namespace dcm::scenario
