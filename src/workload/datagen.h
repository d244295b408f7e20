// Synthetic data generation: the paper's EMP/DEPT/JOB example database
// (Fig. 1) and parameterized synthetic relations (cardinality, domains,
// skew, clustering, index sets) for the evaluation benches.
#ifndef SYSTEMR_WORKLOAD_DATAGEN_H_
#define SYSTEMR_WORKLOAD_DATAGEN_H_

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/database.h"

namespace systemr {

struct ColumnSpec {
  std::string name;
  ValueType type = ValueType::kInt64;
  /// Integers drawn from [0, domain); strings from a pool of `domain`
  /// distinct values.
  int64_t domain = 100;
  /// Zipf exponent; 0 = uniform.
  double zipf = 0.0;
  /// Sequential 0..n-1 values (a key column).
  bool sequential = false;
  size_t str_len = 8;
};

struct IndexSpec {
  std::string name;
  std::vector<std::string> columns;
  bool unique = false;
  bool clustered = false;
};

struct TableSpec {
  std::string name;
  int64_t num_rows = 1000;
  std::vector<ColumnSpec> columns;
  std::vector<IndexSpec> indexes;
  /// Load rows sorted by this column so the matching index is clustered.
  std::optional<std::string> cluster_by;
};

class DataGen {
 public:
  DataGen(Database* db, uint64_t seed) : db_(db), rng_(seed) {}

  /// Creates the table, loads `num_rows` synthetic rows, builds the indexes
  /// (statistics are initialized by index creation), and runs UPDATE
  /// STATISTICS.
  Status CreateAndLoad(const TableSpec& spec);
  /// CreateAndLoad's first step: creates the table and loads its rows, with
  /// no index and no statistics yet.
  Status CreateAndInsertRows(const TableSpec& spec);

  /// Loads the Fig.-1 database: EMP(NAME,DNO,JOB,SAL), DEPT(DNO,DNAME,LOC),
  /// JOB(JOB,TITLE), with the access paths the paper's example assumes
  /// (indexes on EMP.DNO, EMP.JOB, DEPT.DNO, JOB.JOB). TITLE includes the
  /// paper's CLERK/TYPIST/SALES/MECHANIC rows; LOC includes 'DENVER'.
  Status LoadPaperExample(int64_t emps = 10000, int64_t depts = 100,
                          int64_t jobs = 50);

  Rng& rng() { return rng_; }

 private:
  Database* db_;
  Rng rng_;
};

}  // namespace systemr

#endif  // SYSTEMR_WORKLOAD_DATAGEN_H_
