#include "harness/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace systemr {

namespace {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      out->push_back(c);
    }
  }
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace

double QError(double est, double actual) {
  double e = std::max(est, 1.0);
  double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

Status WriteFuzzReport(const FuzzReport& report, const std::string& path) {
  std::vector<double> q_cost, q_pages, q_rsi, q_rows;
  for (const CalibrationRecord& r : report.records) {
    q_cost.push_back(QError(r.est_cost, r.actual_cost));
    q_pages.push_back(
        QError(r.est_pages, static_cast<double>(r.stats.page_io())));
    q_rsi.push_back(QError(r.est_rsi, static_cast<double>(r.stats.rsi_calls)));
    q_rows.push_back(QError(r.est_rows, static_cast<double>(r.actual_rows)));
  }

  ExecStats total;
  for (const CalibrationRecord& r : report.records) total += r.stats;

  std::string out = "{\n";
  out += "  \"seeds\": " + std::to_string(report.seeds) + ",\n";
  out += "  \"queries\": " + std::to_string(report.queries) + ",\n";
  out += "  \"buffer\": {\n";
  out += "    \"gets\": " + std::to_string(total.buffer_gets) + ",\n";
  out += "    \"hits\": " + std::to_string(total.buffer_hits) + ",\n";
  out += "    \"hit_ratio\": " + Num(total.BufferHitRatio()) + "\n";
  out += "  },\n";
  out += "  \"batch\": {\n";
  out += "    \"batches\": " + std::to_string(total.batches) + ",\n";
  out += "    \"rows_in\": " + std::to_string(total.batch_rows_in) + ",\n";
  out += "    \"rows_out\": " + std::to_string(total.batch_rows_out) + ",\n";
  out += "    \"selection_density\": " + Num(total.AvgSelectionDensity()) +
         ",\n";
  out += "    \"hash_build_rows\": " + std::to_string(total.hash_build_rows) +
         ",\n";
  out += "    \"hash_probe_rows\": " + std::to_string(total.hash_probe_rows) +
         "\n";
  out += "  },\n";
  out += "  \"faults\": {\n";
  out += "    \"queries\": " + std::to_string(report.fault_queries) + ",\n";
  out += "    \"clean_results\": " +
         std::to_string(report.fault_clean_results) + ",\n";
  out += "    \"clean_errors\": " + std::to_string(report.fault_clean_errors) +
         ",\n";
  out += "    \"budget_aborts\": " +
         std::to_string(report.fault_budget_aborts) + ",\n";
  out += "    \"injected\": " + std::to_string(report.faults_injected) + "\n";
  out += "  },\n";
  out += "  \"violations\": " + std::to_string(report.violations.size()) +
         ",\n";
  out += "  \"violation_messages\": [";
  for (size_t i = 0; i < report.violations.size(); ++i) {
    out += i > 0 ? ", " : "";
    out += "\"";
    AppendEscaped(&out, report.violations[i]);
    out += "\"";
  }
  out += "],\n";
  out += "  \"qerror\": {\n";
  out += "    \"cost_median\": " + Num(Percentile(q_cost, 0.5)) + ",\n";
  out += "    \"cost_p90\": " + Num(Percentile(q_cost, 0.9)) + ",\n";
  out += "    \"pages_median\": " + Num(Percentile(q_pages, 0.5)) + ",\n";
  out += "    \"pages_p90\": " + Num(Percentile(q_pages, 0.9)) + ",\n";
  out += "    \"rsi_median\": " + Num(Percentile(q_rsi, 0.5)) + ",\n";
  out += "    \"rsi_p90\": " + Num(Percentile(q_rsi, 0.9)) + ",\n";
  out += "    \"rows_median\": " + Num(Percentile(q_rows, 0.5)) + ",\n";
  out += "    \"rows_p90\": " + Num(Percentile(q_rows, 0.9)) + "\n";
  out += "  },\n";
  out += "  \"records\": [\n";
  for (size_t i = 0; i < report.records.size(); ++i) {
    const CalibrationRecord& r = report.records[i];
    out += "    {\"seed\": " + std::to_string(r.seed) + ", \"sql\": \"";
    AppendEscaped(&out, r.sql);
    const uint64_t pages = r.stats.page_io();
    out += "\", \"est_cost\": " + Num(r.est_cost);
    out += ", \"actual_cost\": " + Num(r.actual_cost);
    out += ", \"est_pages\": " + Num(r.est_pages);
    out += ", \"actual_pages\": " + std::to_string(pages);
    out += ", \"est_rsi\": " + Num(r.est_rsi);
    out += ", \"actual_rsi\": " + std::to_string(r.stats.rsi_calls);
    out += ", \"est_rows\": " + Num(r.est_rows);
    out += ", \"actual_rows\": " + std::to_string(r.actual_rows);
    out += ", \"buffer_gets\": " + std::to_string(r.stats.buffer_gets);
    out += ", \"buffer_hits\": " + std::to_string(r.stats.buffer_hits);
    out += ", \"batches\": " + std::to_string(r.stats.batches);
    out += ", \"batch_rows_in\": " + std::to_string(r.stats.batch_rows_in);
    out += ", \"batch_rows_out\": " + std::to_string(r.stats.batch_rows_out);
    out += ", \"hash_build_rows\": " +
           std::to_string(r.stats.hash_build_rows);
    out += ", \"hash_probe_rows\": " +
           std::to_string(r.stats.hash_probe_rows);
    out += ", \"page_fetch_ratio\": " +
           Num(pages > 0 ? r.est_pages / pages : r.est_pages);
    out += "}";
    out += i + 1 < report.records.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open report file: " + path);
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return Status::OK();
}

}  // namespace systemr
