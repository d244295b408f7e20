#include "harness/crash_fuzz.h"

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "harness/differ.h"
#include "workload/querygen.h"

namespace systemr {

namespace {

// One unit of crash-atomic work: either a single auto-commit statement or an
// explicit BEGIN..COMMIT / BEGIN..ROLLBACK block. `end` is the WAL size when
// the unit finished — the unit is durable across a crash at offset X exactly
// when it committed and end <= (valid prefix of the first X bytes).
struct WorkUnit {
  enum class Mode { kAutoCommit, kCommit, kRollback };
  Mode mode = Mode::kAutoCommit;
  std::vector<std::string> stmts;
  std::vector<bool> ok;           // Per-statement outcome in the live run.
  std::vector<size_t> affected;   // Affected rows (0 when the stmt failed).
  bool committed = false;
  Lsn end = 0;
};

const char* ModeName(WorkUnit::Mode m) {
  switch (m) {
    case WorkUnit::Mode::kAutoCommit: return "auto";
    case WorkUnit::Mode::kCommit: return "commit";
    case WorkUnit::Mode::kRollback: return "rollback";
  }
  return "?";
}

// Live rows of one table, read through the storage scan (tombstones and
// loser holes excluded), in scan order — callers compare multisets.
StatusOr<std::vector<Row>> DumpTable(Database* db, RelId id) {
  std::vector<Row> rows;
  RETURN_IF_ERROR(ScanAll(db->rss().OpenSegmentScan(id, {}).get(),
                          [&rows](Row& row, Tid) {
                            rows.push_back(std::move(row));
                            return Status::OK();
                          }));
  return rows;
}

struct CrashViolation {
  std::vector<std::string>* sink;
  uint64_t seed;

  void Add(const std::string& oracle, const std::string& detail) {
    sink->push_back("seed=" + std::to_string(seed) + " oracle=" + oracle +
                    " " + detail);
  }
};

}  // namespace

SeedResult RunCrashFuzzSeed(uint64_t seed, const CrashFuzzOptions& options) {
  SeedResult out;
  out.seed = seed;
  CrashViolation v{&out.violations, seed};

  auto family = static_cast<FuzzSchema::Family>(seed % 3);
  FuzzSchema schema = MakeFuzzSchema(family, seed);

  Database db(64);
  Status built = BuildFuzzSchema(&db, schema, seed, /*secondary_indexes=*/true);
  if (!built.ok()) {
    v.Add("schema-build", built.message());
    return out;
  }
  // The build is system-transaction work; force it durable so every crash
  // point below lands inside the DML workload region.
  db.rss().wal().Sync();
  const Lsn workload_start = db.rss().wal().size();

  // --- Phase 1: the transactional workload, with full bookkeeping. ---
  FuzzQueryGen gen(schema, seed ^ 0x5bf0363557a9c1b3ULL);
  Rng rng(seed ^ 0xc2a5a5f00d15ea5eULL);

  std::vector<WorkUnit> units;
  units.reserve(options.units);
  for (int u = 0; u < options.units; ++u) {
    WorkUnit unit;
    int64_t m = rng.Uniform(0, 9);
    unit.mode = m < 4   ? WorkUnit::Mode::kAutoCommit
                : m < 8 ? WorkUnit::Mode::kCommit
                        : WorkUnit::Mode::kRollback;
    if (unit.mode == WorkUnit::Mode::kAutoCommit) {
      std::string sql = gen.NextDml();
      auto res = db.Mutate(sql, nullptr);
      unit.stmts.push_back(std::move(sql));
      unit.ok.push_back(res.ok());
      unit.affected.push_back(res.ok() ? *res : 0);
      unit.committed = unit.ok.back();
    } else {
      std::unique_ptr<Txn> txn = db.BeginTxn();
      int64_t n = rng.Uniform(1, options.max_stmts_per_txn);
      for (int64_t s = 0; s < n; ++s) {
        std::string sql = gen.NextDml();
        // A failed statement rolls back to its savepoint; the transaction
        // stays alive and the block continues — deliberately, so commits of
        // partially-failed blocks are part of the crash surface.
        auto res = db.Mutate(sql, txn.get());
        unit.stmts.push_back(std::move(sql));
        unit.ok.push_back(res.ok());
        unit.affected.push_back(res.ok() ? *res : 0);
      }
      if (unit.mode == WorkUnit::Mode::kCommit) {
        Status s = db.CommitTxn(txn.get());
        if (!s.ok()) v.Add("commit", s.ToString());
        unit.committed = s.ok();
      } else {
        Status s = db.RollbackTxn(txn.get());
        if (!s.ok()) v.Add("rollback", s.ToString());
        unit.committed = false;
      }
    }
    out.queries += unit.stmts.size();
    unit.end = db.rss().wal().size();
    units.push_back(std::move(unit));
  }
  const Lsn final_size = db.rss().wal().size();

  // --- Phase 2: crash. Keep a seeded random prefix of the written bytes;
  // every third seed also suffers a torn tail of garbage, which recovery
  // must reject via the record checksums. ---
  const Lsn crash_at = static_cast<Lsn>(
      rng.Uniform(static_cast<int64_t>(workload_start),
                  static_cast<int64_t>(final_size)));
  std::string surviving = db.rss().wal().SnapshotBytes(crash_at);
  const bool torn = seed % 3 == 0;
  if (torn) {
    int64_t garbage = rng.Uniform(1, 64);
    for (int64_t i = 0; i < garbage; ++i) {
      surviving.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
  }

  // --- Phase 3: restart. ---
  Database recovered(64);
  auto stats = recovered.Recover(surviving);
  if (!stats.ok()) {
    v.Add("recover", "crash_at=" + std::to_string(crash_at) +
                         (torn ? " torn" : "") + " " +
                         stats.status().ToString());
    return out;
  }
  if (stats->valid_prefix > crash_at) {
    v.Add("recover", "valid prefix " + std::to_string(stats->valid_prefix) +
                         " extends past the crash point " +
                         std::to_string(crash_at) +
                         (torn ? " (torn tail accepted)" : ""));
  }

  // --- Phase 4: the expected database — replay exactly the committed
  // prefix. Work units are serial, so a unit is durable iff its commit made
  // the valid prefix; every earlier committed unit then did too, which makes
  // the replayed data states line up statement by statement. ---
  Database expected(64);
  built = BuildFuzzSchema(&expected, schema, seed, /*secondary_indexes=*/true);
  if (!built.ok()) {
    v.Add("schema-build", "expected twin: " + built.message());
    return out;
  }
  for (size_t ui = 0; ui < units.size(); ++ui) {
    const WorkUnit& unit = units[ui];
    if (!unit.committed || unit.end > stats->valid_prefix) continue;
    std::unique_ptr<Txn> txn;
    if (unit.mode != WorkUnit::Mode::kAutoCommit) txn = expected.BeginTxn();
    for (size_t s = 0; s < unit.stmts.size(); ++s) {
      auto res = expected.Mutate(unit.stmts[s], txn.get());
      if (res.ok() != unit.ok[s] ||
          (res.ok() && *res != unit.affected[s])) {
        v.Add("replay-parity",
              "unit=" + std::to_string(ui) + "/" + ModeName(unit.mode) +
                  " sql=[" + unit.stmts[s] + "] live=" +
                  (unit.ok[s] ? "ok/" + std::to_string(unit.affected[s])
                              : "err") +
                  " replay=" +
                  (res.ok() ? "ok/" + std::to_string(*res)
                            : res.status().ToString()));
      }
    }
    if (txn != nullptr) {
      Status s = expected.CommitTxn(txn.get());
      if (!s.ok()) v.Add("replay-parity", "replay commit failed: " + s.ToString());
    }
  }

  // --- Phase 5: compare. Exactly the committed prefix must have survived —
  // any missing committed row is a durability loss, any extra row is a
  // resurrected loser (atomicity breach). ---
  if (recovered.catalog().num_tables() != expected.catalog().num_tables()) {
    v.Add("catalog", "recovered " +
                         std::to_string(recovered.catalog().num_tables()) +
                         " tables, expected " +
                         std::to_string(expected.catalog().num_tables()));
    return out;
  }
  for (RelId id = 0; id < expected.catalog().num_tables(); ++id) {
    auto got = DumpTable(&recovered, id);
    auto want = DumpTable(&expected, id);
    if (!got.ok() || !want.ok()) {
      v.Add("dump", "table " + std::to_string(id) + ": " +
                        (got.ok() ? want.status() : got.status()).ToString());
      continue;
    }
    if (!SameRowMultiset(*want, *got)) {
      v.Add("crash-diff",
            "table " + expected.catalog().table(id)->name + " crash_at=" +
                std::to_string(crash_at) + (torn ? " torn " : " ") +
                DiffSummary(*want, *got));
    }
  }

  // --- Phase 6: the recovered database must still work. Queries are checked
  // differentially against the expected twin (this also validates the
  // rebuilt indexes: the twin's were built normally), and one more round of
  // DML must behave identically on both. ---
  FuzzQueryGen probe(schema, seed ^ 0x9e3779b97f4a7c15ULL);
  for (int qi = 0; qi < options.probe_queries; ++qi) {
    std::string dml = probe.NextDml();
    auto r1 = recovered.Mutate(dml, nullptr);
    auto r2 = expected.Mutate(dml, nullptr);
    if (r1.ok() != r2.ok() || (r1.ok() && *r1 != *r2)) {
      v.Add("probe-dml",
            "sql=[" + dml + "] recovered=" +
                (r1.ok() ? "ok/" + std::to_string(*r1)
                         : r1.status().ToString()) +
                " expected=" +
                (r2.ok() ? "ok/" + std::to_string(*r2)
                         : r2.status().ToString()));
    }
    std::string sql = probe.Next().Sql();
    auto q1 = recovered.Query(sql);
    auto q2 = expected.Query(sql);
    if (!q1.ok() || !q2.ok()) {
      if (q1.ok() != q2.ok()) {
        v.Add("probe-query",
              "sql=[" + sql + "] recovered=" +
                  (q1.ok() ? "ok" : q1.status().ToString()) + " expected=" +
                  (q2.ok() ? "ok" : q2.status().ToString()));
      }
      continue;
    }
    if (!SameRowMultiset(q2->rows, q1->rows)) {
      v.Add("probe-query",
            "sql=[" + sql + "] " + DiffSummary(q2->rows, q1->rows));
    }
  }

  return out;
}

}  // namespace systemr
