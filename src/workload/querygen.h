// Random query generation over a synthetic "chain" schema, used for the §7
// accuracy and optimization-cost studies (E7/E8): relations R0..Rk-1 where
// Ri has a unique key PK, a foreign key FK referencing R(i+1).PK, and two
// payload columns A (indexed) and B (not indexed).
#ifndef SYSTEMR_WORKLOAD_QUERYGEN_H_
#define SYSTEMR_WORKLOAD_QUERYGEN_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "workload/datagen.h"

namespace systemr {

struct ChainSchemaSpec {
  int num_tables = 3;
  int64_t base_rows = 2000;    // R0 cardinality.
  double shrink = 0.5;         // R(i+1) has shrink * |Ri| rows.
  int64_t a_domain = 50;       // Domain of the indexed payload column.
  int64_t b_domain = 50;       // Domain of the un-indexed payload column.
  bool cluster_fk = true;      // Cluster each table on FK.
};

/// The chain schema's tables R0..R(n-1), each with indexes on PK (unique),
/// FK, and A.
std::vector<TableSpec> ChainTableSpecs(const ChainSchemaSpec& spec);

/// Builds the chain schema: CreateAndLoad of each ChainTableSpecs table, in
/// order, with one DataGen seeded by `seed`.
Status BuildChainSchema(Database* db, const ChainSchemaSpec& spec,
                        uint64_t seed);

class QueryGen {
 public:
  QueryGen(const ChainSchemaSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed) {}

  /// A single-table query on a random Ri with 1-3 random predicates
  /// (equality, range, BETWEEN, IN-list) and an optional ORDER BY.
  std::string RandomSingleTableQuery();

  /// A join query over `num_tables` consecutive chain relations joined on
  /// FK = PK, with random local predicates and an optional ORDER BY.
  std::string RandomJoinQuery(int num_tables);

 private:
  std::string TableName(int i) const { return "R" + std::to_string(i); }
  std::string RandomPredicate(const std::string& alias);

  ChainSchemaSpec spec_;
  Rng rng_;
};

// ---------------------------------------------------------------------------
// Fuzzing extension (src/harness): schema families beyond the chain, and a
// query generator that emits *structured* queries so the harness can apply
// metamorphic transformations (conjunct shuffling) without re-parsing SQL.
// ---------------------------------------------------------------------------

struct FuzzColumn {
  std::string name;
  int64_t domain = 8;  // Values drawn from [0, domain); domain 1 = all dups.
};

struct FuzzTable {
  std::string name;
  int64_t rows = 0;

  struct Link {
    std::string fk_column;  // Column of this table.
    int target = 0;         // Index into FuzzSchema::tables; joins FK = PK.
  };
  std::vector<Link> links;
  std::vector<FuzzColumn> payload;  // Non-key columns (A, B, D...).
};

/// A generated database shape: chain, star, or snowflake of F-tables plus a
/// deliberately empty table, every table carrying a sequential unique PK.
struct FuzzSchema {
  enum class Family { kChain, kStar, kSnowflake };
  Family family = Family::kChain;
  std::vector<FuzzTable> tables;

  const FuzzTable& table(int i) const { return tables[i]; }
};

/// Derives the table shapes (cardinalities, domains, link structure) for one
/// family from `seed`. Purely descriptive; no database is touched.
FuzzSchema MakeFuzzSchema(FuzzSchema::Family family, uint64_t seed);

/// Creates and loads every table of `schema` into `db`. The row data drawn
/// from `seed` is byte-identical whether or not `secondary_indexes` is set
/// (only the PK index exists when false) — the basis for the harness's
/// drop-the-indexes metamorphic oracle.
Status BuildFuzzSchema(Database* db, const FuzzSchema& schema, uint64_t seed,
                       bool secondary_indexes);

/// A query in structured form: the WHERE clause is kept as a list of
/// conjuncts so the harness can emit semantically identical permutations.
struct GeneratedQuery {
  std::string select_clause;           // Rendered list, without "SELECT".
  bool distinct = false;
  std::vector<std::string> from;       // Table names, FROM-list order.
  std::vector<std::string> conjuncts;  // ANDed; OR groups pre-parenthesized.
  std::vector<std::string> group_by;   // Qualified columns, or empty.
  std::string having;                  // Without "HAVING", or empty.
  std::string order_by;                // Without "ORDER BY", or empty.

  /// (select-list position, ascending) for each ORDER BY key. The generator
  /// only orders by selected columns, so the harness can check sortedness of
  /// the engine's projected output directly.
  std::vector<std::pair<size_t, bool>> order_positions;

  /// Renders SQL. `perm`, if given, is a permutation of conjunct indexes.
  std::string Sql(const std::vector<size_t>* perm = nullptr) const;
};

class FuzzQueryGen {
 public:
  FuzzQueryGen(const FuzzSchema& schema, uint64_t seed)
      : schema_(schema), rng_(seed) {}

  /// The next random query: single-table / join / aggregate / subquery
  /// shapes with =, <>, ranges, BETWEEN, IN-list, IN-subquery, OR/NOT
  /// mixes, DISTINCT, GROUP BY + HAVING, and ORDER BY.
  GeneratedQuery Next();

  /// The next random INSERT / UPDATE / DELETE. Designed so that a statement
  /// run against two databases holding identical data (or replayed later on
  /// an identical copy) behaves identically regardless of access path:
  ///   - INSERTs draw fresh PKs from a per-table high-water counter, with an
  ///     occasional deliberate duplicate to exercise the unique-violation /
  ///     statement-rollback path (row order within a statement is fixed, so
  ///     the failure is deterministic too);
  ///   - UPDATEs only SET payload columns — never PK/FK — so per-row updates
  ///     commute and the scan order chosen by the optimizer cannot change
  ///     the outcome;
  ///   - DELETEs use narrow PK ranges or payload equality so tables drain
  ///     slowly enough for later statements to still find rows.
  std::string NextDml();

 private:
  // A column usable in predicates: qualified name + its value domain.
  struct ColRef {
    std::string qualified;
    int64_t domain = 0;
  };
  std::vector<ColRef> Columns(int table) const;
  int64_t Literal(int64_t domain);
  std::string SimpleCompare(const ColRef& c);
  std::string Conjunct(const std::vector<int>& scope);
  std::string SubqueryConjunct(int outer_table);
  void AddSelectAndOrder(const std::vector<int>& scope, GeneratedQuery* q);
  GeneratedQuery AggregateQuery();

  FuzzSchema schema_;
  Rng rng_;
  std::vector<int64_t> next_pk_;  // Per-table fresh-PK high-water marks.
};

}  // namespace systemr

#endif  // SYSTEMR_WORKLOAD_QUERYGEN_H_
