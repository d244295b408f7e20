// perfbench: the end-to-end benchmark with a traced per-layer breakdown.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--trace-out F]
//
// W is one of oltp_wire, olap_mix, adhoc_plan. Every input (data
// and SQL) is generated from --seed. --seconds sets the statement count of
// the timed phase (a fixed count per second, so state growth does not
// depend on engine speed). With --trace 0 the last stdout line carries the
// end-to-end metrics; with --trace 1 it carries every per-layer metric, a
// metric the workload does not exercise reading 0. Exit status 1 means a
// correctness check failed.
#include <sched.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

const char* const kClasses[] = {"scan", "join3", "hjoin", "hagg",
                                "count", "sort",  "subq"};

struct MetricSpec {
  std::string name;
  std::string unit;
};

std::vector<MetricSpec> PerLayerSpecs() {
  std::vector<MetricSpec> m = {
      {"host.spin_ns", "ns"},
      {"host.effective_cores", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"net.wire_us", "us"},
      {"net.rtt_p99_us", "us"},
      {"net.codec_ns", "ns"},
      {"net.bytes_per_stmt", "bytes"},
      {"net.admit_queued_frac", "ratio"},
      {"op.point_p50_us", "us"},
      {"op.range_p50_us", "us"},
      {"op.update_p50_us", "us"},
      {"db.read_us", "us"},
      {"db.update_us", "us"},
      {"rss.wal_bytes_per_update", "bytes"},
      {"rss.wal_syncs", "count"},
      {"session.cache_hit_ratio", "ratio"},
      {"session.invalidations", "count"},
      {"session.optimizations", "count"},
      {"session.feedback_replans", "count"},
      {"sql.parse_us", "us"},
      {"sql.bind_us", "us"},
      {"optimizer.optimize_us", "us"},
      {"optimizer.plans_generated", "count"},
      {"optimizer.plans_stored", "count"},
      {"optimizer.search_bytes", "bytes"},
      {"exec.run_us", "us"},
      {"exec.ns_per_rsi", "ns"},
      {"exec.rows_out", "count"},
      {"exec.batches", "count"},
      {"exec.sel_density", "ratio"},
      {"exec.hash_build_rows", "count"},
      {"exec.hash_probe_rows", "count"},
      {"exec.subquery_evals", "count"},
      {"exec.subquery_cache_hits", "count"},
      {"rss.buffer_gets", "count"},
      {"rss.page_fetches", "count"},
      {"rss.rsi_calls", "count"},
      {"rss.buffer_hit_ratio", "ratio"},
      {"rss.scan_ns_per_tuple", "ns"},
      {"parallel.workers", "count"},
      {"parallel.morsels", "count"},
  };
  const std::pair<const char*, const char*> per_class[] = {
      {"exec.run_us.", "us"},         {"parallel.speedup.", "ratio"},
      {"rss.buffer_gets.", "count"},  {"rss.page_fetches.", "count"},
      {"rss.rsi_calls.", "count"},    {"exec.rows_out.", "count"},
      {"exec.batches.", "count"},     {"parallel.morsels.", "count"},
  };
  for (const auto& [prefix, unit] : per_class) {
    for (const char* c : kClasses) m.push_back({prefix + std::string(c), unit});
  }
  return m;
}

const MetricSpec kEndToEnd[] = {{"stmts_per_s", "1/s"},
                                {"p50_us", "us"},
                                {"p90_us", "us"},
                                {"setup_s", "s"},
                                {"peak_rss_mb", "MB"}};

// A percentile that lands on a failed statement is +inf; JSON has no
// infinity, so it is written as 1e300 (slower than any limit).
std::string Num(double v) {
  if (!std::isfinite(v)) return "1e300";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

// Confines this process, and every thread it starts later, to the
// highest-numbered CPU it may use. On a shared virtual machine a second
// core comes and goes (host.effective_cores reads anywhere from 0.9 to 2
// between runs), and cross-CPU wake-ups between client and server threads
// cost a varying amount; one fixed CPU keeps one run comparable with the
// next. See METHOD.md, "Steadiness".
bool PinToLastCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  cpu_set_t pin;
  CPU_ZERO(&pin);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pin);
      return sched_setaffinity(0, sizeof pin, &pin) == 0;
    }
  }
  return false;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload oltp_wire|olap_mix|adhoc_plan "
               "--seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int Main(int argc, char** argv) {
  Options opt;
  uint64_t seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      opt.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      if (!ParseUint(v, &opt.seed)) return Usage();
      have_seed = true;
    } else if (std::strcmp(k, "--seconds") == 0) {
      if (!ParseUint(v, &seconds)) return Usage();
    } else if (std::strcmp(k, "--trace") == 0) {
      if (!ParseUint(v, &trace)) return Usage();
    } else if (std::strcmp(k, "--trace-out") == 0) {
      opt.trace_out = v;
    } else {
      return Usage();
    }
  }
  const bool known = opt.workload == "oltp_wire" ||
                     opt.workload == "olap_mix" || opt.workload == "adhoc_plan";
  if (argc % 2 != 1 || !known || !have_seed || seconds < 1 ||
      seconds > 600 || trace > 1) {
    return Usage();
  }
  opt.seconds = static_cast<int>(seconds);
  opt.trace = trace == 1;

  // Host context, never gated: the concurrency two spinning threads got on
  // the whole machine, and a fixed spin loop before and after the run on
  // the CPU the run uses.
  double cores = EffectiveCores();
  if (!PinToLastCpu()) {
    std::fprintf(stderr, "perfbench: could not set CPU affinity\n");
    return 2;
  }
  double spin_before = SpinNs();

  Report report;
  if (opt.workload == "oltp_wire") {
    RunOltpWire(opt, &report);
  } else if (opt.workload == "olap_mix") {
    RunOlap(opt, &report);
  } else {
    RunAdhocPlan(opt, &report);
  }
  double spin_after = SpinNs();
  double spin = 0.5 * (spin_before + spin_after);

  std::map<std::string, double> got;
  for (const Metric& m : report.metrics) got[m.name] = m.value;
  struct Out {
    MetricSpec spec;
    double value;
  };
  std::vector<Out> out;
  if (opt.trace) {
    got["host.spin_ns"] = spin;
    got["host.effective_cores"] = cores;
    for (const MetricSpec& s : PerLayerSpecs()) {
      auto it = got.find(s.name);
      out.push_back({s, it == got.end() ? 0.0 : it->second});
      if (it != got.end()) got.erase(it);
    }
  } else {
    for (const MetricSpec& s : kEndToEnd) {
      auto it = got.find(s.name);
      if (it == got.end()) {
        std::fprintf(stderr, "perfbench: workload did not report %s\n",
                     s.name.c_str());
        return 3;
      }
      out.push_back({s, it->second});
      got.erase(it);
    }
  }
  if (!got.empty()) {
    std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                 got.begin()->first.c_str());
    return 3;
  }

  std::printf("workload=%s seed=%llu seconds=%d trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& n : report.notes) std::printf("  %s\n", n.c_str());
  for (const Out& m : out) {
    std::printf("  %-28s %14.4f %s\n", m.spec.name.c_str(), m.value,
                m.spec.unit.c_str());
  }
  std::printf("  attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf("  host: spin_ns before=%.0f after=%.0f effective_cores=%.3f "
              "hardware_threads=%u\n",
              spin_before, spin_after, cores,
              std::thread::hardware_concurrency());
  for (const std::string& e : report.errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].spec.name + "\": {\"value\": " + Num(out[i].value) +
            ", \"unit\": \"" + out[i].spec.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
