#include "scenario/result_writer.h"

#include <bit>
#include <cstdio>
#include <ostream>

#include "common/csv.h"
#include "common/strings.h"
#include "common/table.h"
#include "sim/time.h"

namespace dcm::scenario {
namespace {

double bucket_mean(const std::vector<metrics::BucketStat>& buckets, size_t i) {
  return i < buckets.size() ? buckets[i].stat.mean() : 0.0;
}

double bucket_sum(const std::vector<metrics::BucketStat>& buckets, size_t i) {
  return i < buckets.size() ? buckets[i].stat.sum() : 0.0;
}

void print_actions(const core::ExperimentResult& result) {
  for (const auto& action : result.actions) {
    std::printf("  %8.1fs  %-7s %-10s %s\n", sim::to_seconds(action.time),
                action.tier.c_str(), action.action.c_str(), action.detail.c_str());
  }
}

// Span tiers map onto the run's tier names; kClientTier is the client side.
std::string trace_tier_name(const core::ExperimentResult& result, int tier) {
  if (tier < 0) return "client";
  if (static_cast<size_t>(tier) < result.tiers.size()) return result.tiers[tier].name;
  return "tier" + std::to_string(tier);
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += str_format("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) { return str_format("%.17g", value); }

void Fnv1a::mix_bytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

void Fnv1a::mix(double v) { mix(std::bit_cast<uint64_t>(v)); }

void mix_series(Fnv1a& h, const metrics::TimeSeries& series) {
  h.mix(static_cast<uint64_t>(series.buckets().size()));
  for (const auto& bucket : series.buckets()) {
    h.mix(bucket.start);
    h.mix(bucket.stat.count());
    h.mix(bucket.stat.mean());
    h.mix(bucket.stat.min());
    h.mix(bucket.stat.max());
  }
}

uint64_t result_digest(const core::ExperimentResult& result) {
  Fnv1a h;
  h.mix(result.completed);
  h.mix(result.errors);
  h.mix(result.timeouts);
  h.mix(result.retries);
  h.mix(result.goodput);
  h.mix(result.error_rate);
  mix_series(h, result.client.response_time_series());
  mix_series(h, result.client.throughput_series());
  mix_series(h, result.client.error_series());
  mix_series(h, result.client.goodput_series());
  for (const auto& tier : result.tiers) {
    h.mix(tier.name);
    mix_series(h, tier.provisioned_vms);
    mix_series(h, tier.cpu_util);
    mix_series(h, tier.concurrency);
  }
  h.mix(static_cast<uint64_t>(result.actions.size()));
  for (const auto& action : result.actions) {
    h.mix(action.time);
    h.mix(action.tier);
    h.mix(action.action);
    h.mix(action.detail);
  }
  h.mix(static_cast<uint64_t>(result.fault_log.size()));
  for (const auto& entry : result.fault_log) {
    h.mix(entry.at);
    h.mix(entry.kind);
    h.mix(entry.target);
    h.mix(entry.detail);
  }
  return h.value();
}

uint64_t trace_digest(const trace::TraceReport& report) {
  Fnv1a h;
  h.mix(static_cast<uint64_t>(report.spec.enabled ? 1 : 0));
  h.mix(report.spec.rate);
  h.mix(report.sampled);
  h.mix(report.finalized);
  h.mix(report.completed);
  h.mix(static_cast<uint64_t>(report.traces.size()));
  for (const auto& context : report.traces) {
    h.mix(context->request_id);
    h.mix(static_cast<int64_t>(context->servlet));
    h.mix(context->started);
    h.mix(context->finished);
    h.mix(static_cast<uint64_t>(context->ok ? 1 : 0));
    h.mix(static_cast<int64_t>(context->attempts));
    h.mix(static_cast<uint64_t>(context->spans.size()));
    for (const auto& span : context->spans) {
      h.mix(static_cast<uint64_t>(span.kind));
      h.mix(static_cast<int64_t>(span.tier));
      h.mix(static_cast<int64_t>(span.edge));
      h.mix(span.start);
      h.mix(span.end);
      h.mix(span.value);
    }
  }
  h.mix(static_cast<uint64_t>(report.annotations.size()));
  for (const auto& annotation : report.annotations) {
    h.mix(annotation.at);
    h.mix(annotation.kind);
    h.mix(annotation.detail);
  }
  h.mix(static_cast<uint64_t>(report.attribution.size()));
  for (const auto& row : report.attribution) {
    h.mix(static_cast<int64_t>(row.tier));
    h.mix(static_cast<uint64_t>(row.cause));
    h.mix(row.traces);
    h.mix(row.total_seconds);
    h.mix(row.mean_seconds);
    h.mix(row.p50_share);
    h.mix(row.p95_share);
    h.mix(row.p99_share);
  }
  h.mix(static_cast<uint64_t>(report.edge_attribution.size()));
  for (const auto& row : report.edge_attribution) {
    h.mix(static_cast<int64_t>(row.tier));
    h.mix(static_cast<int64_t>(row.edge));
    h.mix(row.traces);
    h.mix(row.total_seconds);
    h.mix(row.mean_seconds);
    h.mix(row.p50_share);
    h.mix(row.p95_share);
    h.mix(row.p99_share);
  }
  return h.value();
}

uint64_t sweep_digest(const std::vector<SweepRun>& runs) {
  Fnv1a h;
  h.mix(static_cast<uint64_t>(runs.size()));
  for (const auto& run : runs) {
    h.mix(static_cast<uint64_t>(run.index));
    h.mix(run.scenario.seed);
    h.mix(result_digest(run.result));
  }
  return h.value();
}

void write_result_json(std::ostream& out, const std::string& name,
                       const std::vector<SweepRun>& runs) {
  out << "{\n"
      << "  \"schema\": \"dcm-result-v1\",\n"
      << "  \"name\": \"" << json_escape(name) << "\",\n"
      << "  \"digest\": \"" << sweep_digest(runs) << "\",\n"
      << "  \"runs\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    const SweepRun& run = runs[i];
    const core::ExperimentResult& r = run.result;
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\n"
        << "      \"index\": " << run.index << ",\n"
        << "      \"scenario\": \"" << json_escape(run.scenario.name) << "\",\n"
        << "      \"seed\": " << run.scenario.seed << ",\n"
        << "      \"digest\": \"" << result_digest(r) << "\",\n"
        << "      \"overrides\": {";
    for (size_t o = 0; o < run.overrides.size(); ++o) {
      out << (o == 0 ? "" : ", ") << "\"" << json_escape(run.overrides[o].first)
          << "\": \"" << json_escape(run.overrides[o].second) << "\"";
    }
    out << "},\n"
        << "      \"summary\": {\n"
        << "        \"mean_throughput\": " << json_number(r.mean_throughput) << ",\n"
        << "        \"mean_response_time\": " << json_number(r.mean_response_time) << ",\n"
        << "        \"p95_response_time\": " << json_number(r.p95_response_time) << ",\n"
        << "        \"max_response_time\": " << json_number(r.max_response_time) << ",\n"
        << "        \"completed\": " << r.completed << ",\n"
        << "        \"errors\": " << r.errors << ",\n"
        << "        \"timeouts\": " << r.timeouts << ",\n"
        << "        \"retries\": " << r.retries << ",\n"
        << "        \"goodput\": " << json_number(r.goodput) << ",\n"
        << "        \"error_rate\": " << json_number(r.error_rate) << ",\n"
        << "        \"sla_violation_fraction\": " << json_number(r.sla_violation_fraction)
        << ",\n"
        << "        \"total_vm_seconds\": " << json_number(r.total_vm_seconds) << ",\n"
        << "        \"requests_per_vm_second\": " << json_number(r.requests_per_vm_second)
        << ",\n"
        << "        \"scale_outs\": " << r.action_count("scale_out") << ",\n"
        << "        \"scale_ins\": " << r.action_count("scale_in") << ",\n"
        << "        \"soft_actions\": "
        << r.action_count("set_stp") + r.action_count("set_conns") << "\n"
        << "      },\n"
        << "      \"faults\": [";
    for (size_t f = 0; f < r.fault_log.size(); ++f) {
      const auto& entry = r.fault_log[f];
      out << (f == 0 ? "\n" : ",\n")
          << "        {\"t\": " << json_number(sim::to_seconds(entry.at))
          << ", \"kind\": \"" << json_escape(entry.kind) << "\", \"target\": \""
          << json_escape(entry.target) << "\", \"detail\": \"" << json_escape(entry.detail)
          << "\"}";
    }
    out << (r.fault_log.empty() ? "]" : "\n      ]");
    if (r.trace_report != nullptr) {
      const trace::TraceReport& tr = *r.trace_report;
      out << ",\n      \"trace\": {\n"
          << "        \"rate\": " << json_number(tr.spec.rate) << ",\n"
          << "        \"sampled\": " << tr.sampled << ",\n"
          << "        \"finalized\": " << tr.finalized << ",\n"
          << "        \"completed\": " << tr.completed << ",\n"
          << "        \"digest\": \"" << trace_digest(tr) << "\",\n"
          << "        \"attribution\": [";
      for (size_t a = 0; a < tr.attribution.size(); ++a) {
        const auto& arow = tr.attribution[a];
        out << (a == 0 ? "\n" : ",\n")
            << "          {\"tier\": \"" << json_escape(trace_tier_name(r, arow.tier))
            << "\", \"cause\": \"" << trace::span_kind_name(arow.cause)
            << "\", \"traces\": " << arow.traces
            << ", \"total_seconds\": " << json_number(arow.total_seconds)
            << ", \"mean_seconds\": " << json_number(arow.mean_seconds)
            << ", \"p50_share\": " << json_number(arow.p50_share)
            << ", \"p95_share\": " << json_number(arow.p95_share)
            << ", \"p99_share\": " << json_number(arow.p99_share) << "}";
      }
      out << (tr.attribution.empty() ? "]" : "\n        ]") << ",\n"
          << "        \"edge_attribution\": [";
      for (size_t a = 0; a < tr.edge_attribution.size(); ++a) {
        const auto& erow = tr.edge_attribution[a];
        out << (a == 0 ? "\n" : ",\n")
            << "          {\"tier\": \"" << json_escape(trace_tier_name(r, erow.tier))
            << "\", \"edge\": " << erow.edge
            << ", \"traces\": " << erow.traces
            << ", \"total_seconds\": " << json_number(erow.total_seconds)
            << ", \"mean_seconds\": " << json_number(erow.mean_seconds)
            << ", \"p50_share\": " << json_number(erow.p50_share)
            << ", \"p95_share\": " << json_number(erow.p95_share)
            << ", \"p99_share\": " << json_number(erow.p99_share) << "}";
      }
      out << (tr.edge_attribution.empty() ? "]\n" : "\n        ]\n") << "      }";
    }
    out << "\n    }";
  }
  out << "\n  ]\n}\n";
}

void write_timeline_csv(std::ostream& out, const core::ExperimentResult& result,
                        const workload::Trace* trace) {
  CsvWriter writer(out);
  std::vector<std::string> header = {"t_s"};
  if (trace != nullptr) header.push_back("users");
  header.push_back("rt_ms");
  header.push_back("throughput");
  header.push_back("errors");
  header.push_back("goodput");
  for (const auto& tier : result.tiers) {
    header.push_back(tier.name + "_vms");
    header.push_back(tier.name + "_util");
    header.push_back(tier.name + "_concurrency");
  }
  writer.write_header(header);

  const auto& rt = result.client.response_time_series().buckets();
  const auto& tp = result.client.throughput_series().buckets();
  size_t seconds = std::max(rt.size(), tp.size());
  for (const auto& tier : result.tiers) {
    seconds = std::max(seconds, tier.provisioned_vms.buckets().size());
  }
  for (size_t t = 0; t < seconds; ++t) {
    std::vector<double> row = {static_cast<double>(t)};
    if (trace != nullptr) {
      row.push_back(static_cast<double>(
          trace->users_at(sim::from_seconds(static_cast<double>(t)))));
    }
    row.push_back(bucket_mean(rt, t) * 1e3);
    row.push_back(bucket_sum(tp, t));
    row.push_back(bucket_sum(result.client.error_series().buckets(), t));
    row.push_back(bucket_sum(result.client.goodput_series().buckets(), t));
    for (const auto& tier : result.tiers) {
      row.push_back(bucket_mean(tier.provisioned_vms.buckets(), t));
      row.push_back(bucket_mean(tier.cpu_util.buckets(), t));
      row.push_back(bucket_mean(tier.concurrency.buckets(), t));
    }
    writer.write_row(row);
  }
}

void write_spans_csv(std::ostream& out, const core::ExperimentResult& result) {
  if (result.trace_report == nullptr) return;
  CsvWriter writer(out);
  writer.write_header({"request_id", "servlet", "ok", "attempts", "span", "kind", "tier",
                       "edge", "start_s", "end_s", "duration_s", "value"});
  for (const auto& context : result.trace_report->traces) {
    size_t s = 0;
    for (const trace::Span& span : context->spans) {
      writer.write_row(std::vector<std::string>{
          std::to_string(context->request_id), std::to_string(context->servlet),
          context->ok ? "1" : "0", std::to_string(context->attempts), std::to_string(s++),
          trace::span_kind_name(span.kind), trace_tier_name(result, span.tier),
          span.edge == trace::kNoEdge ? "" : std::to_string(span.edge),
          str_format("%.9f", sim::to_seconds(span.start)),
          str_format("%.9f", sim::to_seconds(span.end)),
          str_format("%.9f", sim::to_seconds(span.end - span.start)),
          str_format("%.9g", span.value)});
    }
  }
}

void print_trace_summary(const core::ExperimentResult& result) {
  if (result.trace_report == nullptr) return;
  const trace::TraceReport& report = *result.trace_report;
  std::printf("trace                 : rate %.3g, sampled %llu, finalized %llu, ok %llu\n",
              report.spec.rate, static_cast<unsigned long long>(report.sampled),
              static_cast<unsigned long long>(report.finalized),
              static_cast<unsigned long long>(report.completed));
  if (report.attribution.empty()) return;
  std::printf("latency attribution (share of end-to-end latency per cause):\n");
  TextTable table({"tier", "cause", "traces", "total_s", "mean_ms", "p50", "p95", "p99"});
  for (const auto& row : report.attribution) {
    table.add_row(std::vector<std::string>{
        trace_tier_name(result, row.tier), trace::span_kind_name(row.cause),
        std::to_string(row.traces), format_number(row.total_seconds, 1),
        format_number(row.mean_seconds * 1e3, 2), format_number(row.p50_share * 100.0, 1) + "%",
        format_number(row.p95_share * 100.0, 1) + "%",
        format_number(row.p99_share * 100.0, 1) + "%"});
  }
  table.print();
  if (!report.edge_attribution.empty()) {
    std::printf("edge attribution (downstream subtree share per service-graph edge):\n");
    TextTable edge_table({"tier", "edge", "traces", "total_s", "mean_ms", "p50", "p95", "p99"});
    for (const auto& row : report.edge_attribution) {
      edge_table.add_row(std::vector<std::string>{
          trace_tier_name(result, row.tier), std::to_string(row.edge),
          std::to_string(row.traces), format_number(row.total_seconds, 1),
          format_number(row.mean_seconds * 1e3, 2),
          format_number(row.p50_share * 100.0, 1) + "%",
          format_number(row.p95_share * 100.0, 1) + "%",
          format_number(row.p99_share * 100.0, 1) + "%"});
    }
    edge_table.print();
  }
  if (!report.annotations.empty()) {
    std::printf("trace annotations     : %zu control/fault events overlap the run\n",
                report.annotations.size());
  }
}

void print_summary(const core::ExperimentResult& result) {
  std::printf("throughput            : %.1f req/s\n", result.mean_throughput);
  std::printf("response time         : mean %.0f ms, p95 %.0f ms, max %.0f ms\n",
              result.mean_response_time * 1e3, result.p95_response_time * 1e3,
              result.max_response_time * 1e3);
  std::printf("completed / errors    : %llu / %llu\n",
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.errors));
  if (result.timeouts > 0 || result.retries > 0 || result.errors > 0 ||
      !result.fault_log.empty()) {
    std::printf("goodput / error rate  : %.1f req/s / %.2f%%\n", result.goodput,
                result.error_rate * 100.0);
    std::printf("timeouts / retries    : %llu / %llu\n",
                static_cast<unsigned long long>(result.timeouts),
                static_cast<unsigned long long>(result.retries));
  }
  std::printf("SLA violation (>1 s)  : %.1f%% of seconds\n",
              result.sla_violation_fraction * 100.0);
  std::printf("VM-seconds            : %.0f (%.2f req per VM-second)\n",
              result.total_vm_seconds, result.requests_per_vm_second);
  std::printf("control actions       : %zu\n", result.actions.size());
  print_actions(result);
  if (!result.fault_log.empty()) {
    std::printf("fault log             : %zu entries\n", result.fault_log.size());
    for (const auto& entry : result.fault_log) {
      std::printf("  %8.1fs  %-14s %-10s %s\n", sim::to_seconds(entry.at),
                  entry.kind.c_str(), entry.target.c_str(), entry.detail.c_str());
    }
  }
}

double series_window_mean(const metrics::TimeSeries& series, size_t from, size_t width,
                          bool rate) {
  const auto& buckets = series.buckets();
  double sum = 0.0;
  size_t n = 0;
  for (size_t s = from; s < from + width; ++s) {
    sum += rate ? bucket_sum(buckets, s) : bucket_mean(buckets, s);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

void print_windowed_timeline(const std::string& label, const core::ExperimentResult& result,
                             const workload::Trace* trace, size_t duration_seconds,
                             size_t window_seconds) {
  std::printf("--- %s: %zu s-window series (panels a/c/e style) ---\n", label.c_str(),
              window_seconds);
  std::vector<std::string> header = {"t_s"};
  if (trace != nullptr) header.push_back("users");
  header.insert(header.end(), {"rt_ms", "x_req_s"});
  // Tier 0 (web) is never the scaling story; the panels track app + db.
  for (size_t tier = 1; tier < result.tiers.size(); ++tier) {
    header.push_back(result.tiers[tier].name + "_vms");
    header.push_back(result.tiers[tier].name + "_util");
  }
  TextTable table(std::move(header));
  for (size_t t = 0; t + window_seconds <= duration_seconds; t += window_seconds) {
    std::vector<double> row = {static_cast<double>(t)};
    if (trace != nullptr) {
      row.push_back(static_cast<double>(
          trace->users_at(sim::from_seconds(static_cast<double>(t)))));
    }
    row.push_back(series_window_mean(result.client.response_time_series(), t,
                                     window_seconds) *
                  1000.0);
    row.push_back(series_window_mean(result.client.throughput_series(), t, window_seconds,
                                     /*rate=*/true));
    for (size_t tier = 1; tier < result.tiers.size(); ++tier) {
      row.push_back(series_window_mean(result.tiers[tier].provisioned_vms, t, window_seconds));
      row.push_back(series_window_mean(result.tiers[tier].cpu_util, t, window_seconds));
    }
    table.add_row(row, 2);
  }
  table.print();

  std::printf("\n--- %s: scaling & soft-resource activity ---\n", label.c_str());
  print_actions(result);
  std::puts("");
}

void print_comparison(const std::vector<std::string>& labels,
                      const std::vector<const core::ExperimentResult*>& results) {
  std::vector<std::string> header = {"metric"};
  header.insert(header.end(), labels.begin(), labels.end());
  TextTable table(std::move(header));

  const auto row = [&](const std::string& metric, auto&& value) {
    std::vector<std::string> cells = {metric};
    for (const auto* r : results) cells.push_back(value(*r));
    table.add_row(std::move(cells));
  };
  row("mean response time (ms)",
      [](const auto& r) { return format_number(r.mean_response_time * 1e3, 1); });
  row("p95 response time (ms)",
      [](const auto& r) { return format_number(r.p95_response_time * 1e3, 1); });
  row("max response time (ms)",
      [](const auto& r) { return format_number(r.max_response_time * 1e3, 1); });
  row("mean throughput (req/s)",
      [](const auto& r) { return format_number(r.mean_throughput, 1); });
  row("completed requests", [](const auto& r) { return std::to_string(r.completed); });
  row("goodput (req/s, rt<=1s)",
      [](const auto& r) { return format_number(r.goodput, 1); });
  row("error rate", [](const auto& r) {
    return format_number(r.error_rate * 100.0, 2) + "%";
  });
  row("timeouts", [](const auto& r) { return std::to_string(r.timeouts); });
  row("retries", [](const auto& r) { return std::to_string(r.retries); });
  row("scale-out events",
      [](const auto& r) { return std::to_string(r.action_count("scale_out")); });
  row("scale-in events",
      [](const auto& r) { return std::to_string(r.action_count("scale_in")); });
  row("SLA violation (rt>1s)", [](const auto& r) {
    return format_number(r.sla_violation_fraction * 100.0, 1) + "%";
  });
  row("VM-seconds (scalable tiers)",
      [](const auto& r) { return format_number(r.total_vm_seconds, 0); });
  row("requests per VM-second",
      [](const auto& r) { return format_number(r.requests_per_vm_second, 2); });
  row("soft-resource actions", [](const auto& r) {
    return std::to_string(r.action_count("set_stp") + r.action_count("set_conns"));
  });
  table.print();
}

}  // namespace dcm::scenario
