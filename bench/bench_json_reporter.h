// JSON trajectory reporter for the microbenchmarks.
//
// Emits a compact, diff-friendly BENCH_micro.json next to the working
// directory (override with DCM_BENCH_JSON=/path). One object per benchmark
// run with ns/op, items/s and any other user counter the benchmark sets
// (such as a layout figure), so successive PRs can be compared with a
// one-line jq against the committed baseline (see README, "Microbenchmark
// trajectory").
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace dcm::bench {

// Extends the console reporter so it can be installed as the (single)
// display reporter: normal console output plus the JSON side file.
class JsonTrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTrajectoryReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      // Keep per-run entries and mean aggregates; drop median/stddev/cv so
      // the file stays a flat name -> number mapping.
      if (run.run_type == Run::RT_Aggregate && run.aggregate_name != "mean") continue;
      Row row;
      row.name = run.benchmark_name();
      row.ns_per_op = run.GetAdjustedRealTime();  // benchmarks use ns time units
      for (const auto& [name, counter] : run.counters) {
        if (name == "items_per_second") {
          row.items_per_second = counter.value;
        } else {
          row.counters.emplace_back(name, counter.value);  // e.g. a layout figure
        }
      }
      rows_.push_back(std::move(row));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"schema\": \"dcm-bench-v1\",\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_op\": %.2f, \"items_per_second\": %.0f",
                   escaped(rows_[i].name).c_str(), rows_[i].ns_per_op,
                   rows_[i].items_per_second);
      for (const auto& [name, value] : rows_[i].counters) {
        std::fprintf(f, ", \"%s\": %.6g", escaped(name).c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

 private:
  struct Row {
    std::string name;
    double ns_per_op = 0.0;
    double items_per_second = 0.0;
    std::vector<std::pair<std::string, double>> counters;  // other user counters
  };

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<Row> rows_;
};

}  // namespace dcm::bench
