// fuzz_driver: differential + metamorphic fuzzing of the optimizer and
// executor against the trusted reference executor.
//
//   fuzz_driver [--seeds N] [--queries M] [--start S] [--out PATH]
//               [--no-baselines] [--no-metamorphic] [--threads T]
//               [--dop N] [--join-method nlj|merge|hash|auto]
//
// `--join-method` leaves one join method enabled: merge or hash wherever an
// equi predicate allows it, nested loop everywhere else — targeted
// differential coverage of a single operator.
//
// `--dop N` (N > 1) forces morsel-driven parallel plans on the engine —
// past the cost model, so even tiny fuzz tables run under an exchange —
// while the reference executor and baselines stay serial.
//
// Every iteration is fully determined by its seed: to reproduce a reported
// failure run `fuzz_driver --seeds 1 --start <seed>`.
//
// With `--threads T` (T > 1) each seed builds one shared Database and T
// concurrent sessions fuzz it in parallel, each checked against its own
// reference executor; per-thread query streams are still deterministic, so
// a violating (seed, thread) pair replays with the same flags.
//
// `--dml N` interleaves one random INSERT/UPDATE/DELETE before every Nth
// query; the statement must behave identically on the engine and the
// index-less twin, and all later query oracles run on the mutated data.
//
// `--wire N` switches to wire-protocol robustness fuzzing (see
// harness/wire_fuzz.h): N seeds of malformed-frame attacks against a live
// in-process server — oversized/zero/truncated lengths, unknown opcodes,
// garbage bodies, mid-frame disconnects — checking that every attack earns
// a clean protocol error (never a crash or hang) and the server still
// answers a well-formed probe afterward.
//
// `--crash` switches to crash-recovery fuzzing (see harness/crash_fuzz.h):
// each seed runs a transactional DML workload, kills the engine at a seeded
// random WAL offset (every third seed with a torn garbage tail), recovers a
// fresh engine from the surviving bytes, and checks that exactly the
// committed prefix of the workload survived — then that the recovered
// database still answers queries and accepts DML.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/crash_fuzz.h"
#include "harness/fuzz_session.h"
#include "harness/wire_fuzz.h"

int main(int argc, char** argv) {
  uint64_t seeds = 100;
  uint64_t start = 1;
  int threads = 1;
  bool crash_mode = false;
  bool wire_mode = false;
  std::string out_path = "fuzz_report.json";
  systemr::FuzzOptions options;
  systemr::CrashFuzzOptions crash_options;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seeds") == 0) {
      seeds = std::strtoull(need_value("--seeds"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      options.queries_per_seed =
          static_cast<int>(std::strtol(need_value("--queries"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--start") == 0) {
      start = std::strtoull(need_value("--start"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = need_value("--out");
    } else if (std::strcmp(argv[i], "--no-baselines") == 0) {
      options.check_baselines = false;
    } else if (std::strcmp(argv[i], "--no-metamorphic") == 0) {
      options.metamorphic = false;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      options.inject_faults = true;
    } else if (std::strcmp(argv[i], "--crash") == 0) {
      crash_mode = true;
    } else if (std::strcmp(argv[i], "--wire") == 0) {
      wire_mode = true;
      seeds = std::strtoull(need_value("--wire"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--units") == 0) {
      crash_options.units =
          static_cast<int>(std::strtol(need_value("--units"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--dml") == 0) {
      options.dml_every =
          static_cast<int>(std::strtol(need_value("--dml"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--table1") == 0) {
      // Paper-faithful estimator: no histograms, no feedback. Used to record
      // the calibration baseline in EXPERIMENTS.md.
      options.use_column_stats = false;
      options.use_feedback = false;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = static_cast<int>(std::strtol(need_value("--threads"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--dop") == 0) {
      // Forced morsel parallelism: every eligible engine plan runs under an
      // exchange with up to N workers; the reference and baselines stay
      // serial, so interleaving bugs surface as multiset mismatches.
      options.max_dop =
          static_cast<int>(std::strtol(need_value("--dop"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--join-method") == 0) {
      const char* m = need_value("--join-method");
      bool all = std::strcmp(m, "auto") == 0;
      systemr::JoinEnumerator::Options& join = options.join;
      join.enable_nested_loop = all || std::strcmp(m, "nlj") == 0;
      join.enable_merge_join = all || std::strcmp(m, "merge") == 0;
      join.enable_hash_join = all || std::strcmp(m, "hash") == 0;
      if (!join.enable_nested_loop && !join.enable_merge_join &&
          !join.enable_hash_join) {
        std::fprintf(stderr, "bad --join-method %s (nlj|merge|hash|auto)\n", m);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: fuzz_driver [--seeds N] [--queries M] [--start S] "
                   "[--out PATH] [--no-baselines] [--no-metamorphic] "
                   "[--faults] [--crash] [--wire N] [--units N] [--dml N] "
                   "[--table1] [--threads T] [--dop N] "
                   "[--join-method nlj|merge|hash|auto]\n");
      return 2;
    }
  }

  if (wire_mode) {
    // Wire-protocol robustness mode: one live server, seeded frame attacks.
    systemr::WireFuzzResult result = systemr::RunWireFuzz(start, seeds);
    for (const std::string& v : result.violations) {
      std::fprintf(stderr, "VIOLATION %s\n", v.c_str());
    }
    std::printf(
        "fuzz_driver --wire: %llu seeds, %llu attacks, %zu violations\n",
        static_cast<unsigned long long>(result.seeds),
        static_cast<unsigned long long>(result.attacks),
        result.violations.size());
    return result.violations.empty() ? 0 : 1;
  }

  // One seed of the chosen mode. Crash and concurrent seeds check their own
  // oracles and write no report; a single-session seed also records its
  // calibration into `report`.
  systemr::FuzzReport report;
  auto run_seed = [&](uint64_t seed) {
    if (crash_mode) return systemr::RunCrashFuzzSeed(seed, crash_options);
    if (threads > 1) {
      return systemr::RunConcurrentFuzzSeed(seed, threads,
                                            options.queries_per_seed,
                                            options.join, options.max_dop);
    }
    return systemr::RunFuzzSeed(seed, options, &report);
  };
  uint64_t failed_seeds = 0, statements = 0, violations = 0;
  for (uint64_t seed = start; seed < start + seeds; ++seed) {
    systemr::SeedResult result = run_seed(seed);
    statements += result.queries;
    violations += result.violations.size();
    if (!result.violations.empty()) {
      ++failed_seeds;
      for (const std::string& v : result.violations) {
        std::fprintf(stderr, "VIOLATION %s\n", v.c_str());
      }
    }
    if ((seed - start + 1) % 50 == 0) {
      std::printf("... %llu/%llu seeds, %llu violations\n",
                  static_cast<unsigned long long>(seed - start + 1),
                  static_cast<unsigned long long>(seeds),
                  static_cast<unsigned long long>(violations));
      std::fflush(stdout);
    }
  }

  if (crash_mode) {
    std::printf(
        "fuzz_driver --crash: %llu seeds, %llu DML statements, %llu "
        "violations (%llu bad seeds)\n",
        static_cast<unsigned long long>(seeds),
        static_cast<unsigned long long>(statements),
        static_cast<unsigned long long>(violations),
        static_cast<unsigned long long>(failed_seeds));
    return violations == 0 ? 0 : 1;
  }
  if (threads > 1) {
    std::printf(
        "fuzz_driver: %llu seeds x %d threads, %llu queries, %llu violations "
        "(%llu bad seeds)\n",
        static_cast<unsigned long long>(seeds), threads,
        static_cast<unsigned long long>(statements),
        static_cast<unsigned long long>(violations),
        static_cast<unsigned long long>(failed_seeds));
    return violations == 0 ? 0 : 1;
  }

  systemr::Status st = systemr::WriteFuzzReport(report, out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "report write failed: %s\n", st.message().c_str());
    return 2;
  }
  if (options.inject_faults) {
    std::printf(
        "faults: %llu queries under injection, %llu clean results, %llu "
        "clean errors (%llu budget aborts), %llu faults injected\n",
        static_cast<unsigned long long>(report.fault_queries),
        static_cast<unsigned long long>(report.fault_clean_results),
        static_cast<unsigned long long>(report.fault_clean_errors),
        static_cast<unsigned long long>(report.fault_budget_aborts),
        static_cast<unsigned long long>(report.faults_injected));
  }
  std::printf(
      "fuzz_driver: %llu seeds, %llu queries, %zu violations (%llu bad "
      "seeds); report: %s\n",
      static_cast<unsigned long long>(report.seeds),
      static_cast<unsigned long long>(report.queries),
      report.violations.size(),
      static_cast<unsigned long long>(failed_seeds), out_path.c_str());
  return report.violations.empty() ? 0 : 1;
}
