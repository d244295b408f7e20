#include "workload/querygen.h"

#include <algorithm>

namespace systemr {

std::vector<TableSpec> ChainTableSpecs(const ChainSchemaSpec& spec) {
  std::vector<TableSpec> tables;
  int64_t rows = spec.base_rows;
  for (int i = 0; i < spec.num_tables; ++i) {
    int64_t next_rows = std::max<int64_t>(
        1, static_cast<int64_t>(rows * spec.shrink));
    TableSpec t;
    t.name = "R" + std::to_string(i);
    t.num_rows = rows;
    // FK of the last table points into a domain of its own size (no
    // successor), which is harmless: join queries never use it.
    int64_t fk_domain =
        i + 1 < spec.num_tables ? next_rows : std::max<int64_t>(rows, 1);
    t.columns = {
        {"PK", ValueType::kInt64, rows, 0, /*sequential=*/true},
        {"FK", ValueType::kInt64, fk_domain, 0, false},
        {"A", ValueType::kInt64, spec.a_domain, 0, false},
        {"B", ValueType::kInt64, spec.b_domain, 0, false},
    };
    t.indexes = {
        {t.name + "_PK", {"PK"}, /*unique=*/true, /*clustered=*/!spec.cluster_fk},
        {t.name + "_FK", {"FK"}, false, spec.cluster_fk},
        {t.name + "_A", {"A"}, false, false},
    };
    if (spec.cluster_fk) t.cluster_by = "FK";
    tables.push_back(std::move(t));
    rows = next_rows;
  }
  return tables;
}

Status BuildChainSchema(Database* db, const ChainSchemaSpec& spec,
                        uint64_t seed) {
  DataGen gen(db, seed);
  for (const TableSpec& t : ChainTableSpecs(spec)) {
    RETURN_IF_ERROR(gen.CreateAndLoad(t));
  }
  return Status::OK();
}

std::string QueryGen::RandomPredicate(const std::string& alias) {
  // Column: A (indexed), B (not indexed), or PK.
  int which = static_cast<int>(rng_.Uniform(0, 2));
  std::string col = which == 0 ? "A" : (which == 1 ? "B" : "PK");
  int64_t domain = which == 0   ? spec_.a_domain
                   : which == 1 ? spec_.b_domain
                                : spec_.base_rows;
  std::string qual = alias + "." + col;
  switch (rng_.Uniform(0, 4)) {
    case 0:
      return qual + " = " + std::to_string(rng_.Uniform(0, domain - 1));
    case 1:
      return qual + " > " + std::to_string(rng_.Uniform(0, domain - 1));
    case 2:
      return qual + " < " + std::to_string(rng_.Uniform(1, domain));
    case 3: {
      int64_t lo = rng_.Uniform(0, domain - 1);
      int64_t hi = rng_.Uniform(lo, domain - 1);
      return qual + " BETWEEN " + std::to_string(lo) + " AND " +
             std::to_string(hi);
    }
    default: {
      std::string in = qual + " IN (";
      int n = static_cast<int>(rng_.Uniform(2, 4));
      for (int i = 0; i < n; ++i) {
        if (i > 0) in += ", ";
        in += std::to_string(rng_.Uniform(0, domain - 1));
      }
      return in + ")";
    }
  }
}

std::string QueryGen::RandomSingleTableQuery() {
  int t = static_cast<int>(rng_.Uniform(0, spec_.num_tables - 1));
  std::string name = TableName(t);
  std::string sql = "SELECT PK, A, B FROM " + name;
  int preds = static_cast<int>(rng_.Uniform(1, 3));
  for (int p = 0; p < preds; ++p) {
    sql += (p == 0 ? " WHERE " : " AND ") + RandomPredicate(name);
  }
  if (rng_.Bernoulli(0.3)) sql += " ORDER BY A";
  return sql;
}

FuzzSchema MakeFuzzSchema(FuzzSchema::Family family, uint64_t seed) {
  Rng r(seed ^ 0xf00d5eedULL);
  FuzzSchema schema;
  schema.family = family;
  auto payload = [&]() {
    return std::vector<FuzzColumn>{
        {"A", r.Uniform(5, 9)},
        {"B", r.Uniform(9, 15)},
        {"D", 1},  // All-duplicates column.
    };
  };
  auto add = [&](const std::string& name, int64_t rows,
                 std::vector<FuzzTable::Link> links) {
    FuzzTable t;
    t.name = name;
    t.rows = rows;
    t.links = std::move(links);
    t.payload = payload();
    schema.tables.push_back(std::move(t));
  };
  switch (family) {
    case FuzzSchema::Family::kChain:
      add("F0", r.Uniform(40, 80), {{"FK", 1}});
      add("F1", r.Uniform(12, 26), {{"FK", 2}});
      add("F2", r.Uniform(6, 14), {});
      break;
    case FuzzSchema::Family::kStar:
      add("F0", r.Uniform(45, 85), {{"FK1", 1}, {"FK2", 2}, {"FK3", 3}});
      add("F1", r.Uniform(8, 18), {});
      add("F2", r.Uniform(8, 18), {});
      add("F3", r.Uniform(6, 12), {});
      break;
    case FuzzSchema::Family::kSnowflake:
      add("F0", r.Uniform(40, 75), {{"FK1", 1}, {"FK2", 2}});
      add("F1", r.Uniform(10, 22), {{"FK", 3}});
      add("F2", r.Uniform(8, 16), {});
      add("F3", r.Uniform(6, 12), {});
      break;
  }
  add("FE", 0, {});  // Deliberately empty table.
  return schema;
}

Status BuildFuzzSchema(Database* db, const FuzzSchema& schema, uint64_t seed,
                       bool secondary_indexes) {
  // One DataGen for all tables: the rng draw sequence depends only on the
  // column specs and row counts, never on the index list, so both index
  // variants load byte-identical data.
  DataGen gen(db, seed);
  for (const FuzzTable& ft : schema.tables) {
    TableSpec t;
    t.name = ft.name;
    t.num_rows = ft.rows;
    t.columns.push_back({"PK", ValueType::kInt64,
                         std::max<int64_t>(ft.rows, 1), 0,
                         /*sequential=*/true});
    for (const FuzzTable::Link& link : ft.links) {
      // Domain one past the target PK range: a few FKs dangle on purpose.
      t.columns.push_back({link.fk_column, ValueType::kInt64,
                           schema.tables[link.target].rows + 1, 0, false});
    }
    for (const FuzzColumn& c : ft.payload) {
      t.columns.push_back({c.name, ValueType::kInt64, c.domain, 0, false});
    }
    t.indexes = {{ft.name + "_PK", {"PK"}, /*unique=*/true,
                  /*clustered=*/true}};
    if (secondary_indexes) {
      for (const FuzzTable::Link& link : ft.links) {
        t.indexes.push_back(
            {ft.name + "_" + link.fk_column, {link.fk_column}, false, false});
      }
      t.indexes.push_back({ft.name + "_A", {"A"}, false, false});
    }
    RETURN_IF_ERROR(gen.CreateAndLoad(t));
  }
  return Status::OK();
}

std::string GeneratedQuery::Sql(const std::vector<size_t>* perm) const {
  std::string sql = "SELECT ";
  if (distinct) sql += "DISTINCT ";
  sql += select_clause + " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += from[i];
  }
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    size_t idx = perm != nullptr ? (*perm)[i] : i;
    sql += (i == 0 ? " WHERE " : " AND ") + conjuncts[idx];
  }
  for (size_t i = 0; i < group_by.size(); ++i) {
    sql += (i == 0 ? " GROUP BY " : ", ") + group_by[i];
  }
  if (!having.empty()) sql += " HAVING " + having;
  if (!order_by.empty()) sql += " ORDER BY " + order_by;
  return sql;
}

std::vector<FuzzQueryGen::ColRef> FuzzQueryGen::Columns(int table) const {
  const FuzzTable& t = schema_.tables[table];
  std::vector<ColRef> cols;
  cols.push_back({t.name + ".PK", std::max<int64_t>(t.rows, 1)});
  for (const FuzzTable::Link& link : t.links) {
    cols.push_back({t.name + "." + link.fk_column,
                    schema_.tables[link.target].rows + 1});
  }
  for (const FuzzColumn& c : t.payload) {
    cols.push_back({t.name + "." + c.name, c.domain});
  }
  return cols;
}

int64_t FuzzQueryGen::Literal(int64_t domain) {
  if (rng_.Bernoulli(0.15)) {
    // Domain edges: just below, the ends, just above.
    switch (rng_.Uniform(0, 3)) {
      case 0: return -1;
      case 1: return 0;
      case 2: return domain - 1;
      default: return domain;
    }
  }
  return rng_.Uniform(0, std::max<int64_t>(domain - 1, 0));
}

std::string FuzzQueryGen::SimpleCompare(const ColRef& c) {
  static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  const char* op = kOps[rng_.Uniform(0, 5)];
  return c.qualified + " " + op + " " + std::to_string(Literal(c.domain));
}

std::string FuzzQueryGen::Conjunct(const std::vector<int>& scope) {
  int t = scope[rng_.Uniform(0, static_cast<int64_t>(scope.size()) - 1)];
  std::vector<ColRef> cols = Columns(t);
  const ColRef& c = cols[rng_.Uniform(0, static_cast<int64_t>(cols.size()) - 1)];
  switch (rng_.Uniform(0, 6)) {
    case 0:
    case 1:
      return SimpleCompare(c);
    case 2: {
      int64_t lo = Literal(c.domain);
      int64_t hi = Literal(c.domain);
      if (lo > hi && rng_.Bernoulli(0.7)) std::swap(lo, hi);  // Else empty.
      return c.qualified + " BETWEEN " + std::to_string(lo) + " AND " +
             std::to_string(hi);
    }
    case 3: {
      std::string in = c.qualified + " IN (";
      int n = static_cast<int>(rng_.Uniform(2, 4));
      for (int i = 0; i < n; ++i) {
        if (i > 0) in += ", ";
        in += std::to_string(Literal(c.domain));
      }
      return in + ")";
    }
    case 4: {
      int t2 = scope[rng_.Uniform(0, static_cast<int64_t>(scope.size()) - 1)];
      std::vector<ColRef> cols2 = Columns(t2);
      const ColRef& c2 =
          cols2[rng_.Uniform(0, static_cast<int64_t>(cols2.size()) - 1)];
      return "(" + SimpleCompare(c) + " OR " + SimpleCompare(c2) + ")";
    }
    case 5:
      return "NOT (" + SimpleCompare(c) + ")";
    default: {
      // Arithmetic over two payload columns (int-only, no overflow risk).
      const FuzzTable& ft = schema_.tables[t];
      const FuzzColumn& a = ft.payload[0];
      const FuzzColumn& b = ft.payload[1];
      static const char* kArith[] = {"+", "-", "*"};
      const char* op = kArith[rng_.Uniform(0, 2)];
      int64_t domain = a.domain * b.domain + a.domain + b.domain;
      static const char* kCmps[] = {"<", "<=", ">", ">=", "="};
      return "(" + ft.name + "." + a.name + " " + op + " " + ft.name + "." +
             b.name + ") " + kCmps[rng_.Uniform(0, 4)] + " " +
             std::to_string(Literal(domain));
    }
  }
}

std::string FuzzQueryGen::SubqueryConjunct(int outer_table) {
  const FuzzTable& outer = schema_.tables[outer_table];
  // Pick a subquery target distinct from the outer table (10%: the empty
  // table, so empty-input subquery semantics get exercised).
  int target = outer_table;
  if (rng_.Bernoulli(0.1)) {
    target = static_cast<int>(schema_.tables.size()) - 1;  // "FE".
    if (target == outer_table) target = 0;
  }
  while (target == outer_table) {
    target = static_cast<int>(
        rng_.Uniform(0, static_cast<int64_t>(schema_.tables.size()) - 1));
  }
  const FuzzTable& u = schema_.tables[target];
  std::vector<ColRef> ocols = Columns(outer_table);
  const ColRef& oc =
      ocols[rng_.Uniform(0, static_cast<int64_t>(ocols.size()) - 1)];

  int kind = static_cast<int>(rng_.Uniform(0, 3));
  if (kind <= 1) {
    // IN-subquery (optionally negated): membership over u.PK or u.A.
    std::string inner_col = rng_.Bernoulli(0.5) ? "PK" : "A";
    std::string sub = oc.qualified + " IN (SELECT " + u.name + "." +
                      inner_col + " FROM " + u.name;
    if (rng_.Bernoulli(0.6)) {
      std::vector<ColRef> ucols = Columns(target);
      sub += " WHERE " +
             SimpleCompare(
                 ucols[rng_.Uniform(0, static_cast<int64_t>(ucols.size()) - 1)]);
    }
    sub += ")";
    return kind == 0 ? sub : "NOT (" + sub + ")";
  }
  // Scalar subquery: always an aggregate, so it returns exactly one row.
  static const char* kCmps[] = {"<", "<=", ">", ">=", "="};
  const char* cmp = kCmps[rng_.Uniform(0, 4)];
  std::string agg;
  switch (rng_.Uniform(0, 2)) {
    case 0: agg = "COUNT(*)"; break;
    case 1: agg = "MIN(" + u.name + ".A)"; break;
    default: agg = "MAX(" + u.name + ".A)"; break;
  }
  std::string sub = "(SELECT " + agg + " FROM " + u.name;
  if (kind == 3 || !outer.links.empty()) {
    // Correlated: restrict the inner rows through an outer FK when one
    // exists, otherwise correlate on the all-duplicates column.
    if (!outer.links.empty() && rng_.Bernoulli(0.7)) {
      const FuzzTable::Link& link =
          outer.links[rng_.Uniform(0, static_cast<int64_t>(outer.links.size()) - 1)];
      if (link.target == target) {
        sub += " WHERE " + u.name + ".PK = " + outer.name + "." +
               link.fk_column;
      } else if (rng_.Bernoulli(0.5)) {
        sub += " WHERE " + u.name + ".D = " + outer.name + ".D";
      }
    } else if (rng_.Bernoulli(0.5)) {
      sub += " WHERE " + u.name + ".D = " + outer.name + ".D";
    }
  }
  sub += ")";
  return oc.qualified + " " + cmp + " " + sub;
}

void FuzzQueryGen::AddSelectAndOrder(const std::vector<int>& scope,
                                     GeneratedQuery* q) {
  std::vector<ColRef> all;
  for (int t : scope) {
    std::vector<ColRef> cols = Columns(t);
    all.insert(all.end(), cols.begin(), cols.end());
  }
  int n = static_cast<int>(rng_.Uniform(1, 3));
  std::vector<std::string> select;
  for (int i = 0; i < n; ++i) {
    select.push_back(
        all[rng_.Uniform(0, static_cast<int64_t>(all.size()) - 1)].qualified);
  }
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) q->select_clause += ", ";
    q->select_clause += select[i];
  }
  q->distinct = rng_.Bernoulli(0.25);
  if (rng_.Bernoulli(0.4)) {
    int keys = static_cast<int>(rng_.Uniform(1, std::min<int64_t>(2, n)));
    for (int k = 0; k < keys; ++k) {
      size_t pos = static_cast<size_t>(rng_.Uniform(0, n - 1));
      bool asc = rng_.Bernoulli(0.7);
      if (k > 0) q->order_by += ", ";
      q->order_by += select[pos] + (asc ? "" : " DESC");
      q->order_positions.push_back({pos, asc});
    }
  }
}

GeneratedQuery FuzzQueryGen::AggregateQuery() {
  GeneratedQuery q;
  int num_real = 0;
  for (const FuzzTable& t : schema_.tables) num_real += t.rows > 0 ? 1 : 0;
  int t0 = rng_.Bernoulli(0.08)
               ? static_cast<int>(schema_.tables.size()) - 1  // Empty table.
               : static_cast<int>(rng_.Uniform(0, num_real - 1));
  std::vector<int> scope = {t0};
  q.from.push_back(schema_.tables[t0].name);
  const FuzzTable& ft = schema_.tables[t0];
  if (!ft.links.empty() && rng_.Bernoulli(0.3)) {
    const FuzzTable::Link& link =
        ft.links[rng_.Uniform(0, static_cast<int64_t>(ft.links.size()) - 1)];
    scope.push_back(link.target);
    q.from.push_back(schema_.tables[link.target].name);
    q.conjuncts.push_back(ft.name + "." + link.fk_column + " = " +
                          schema_.tables[link.target].name + ".PK");
  }

  bool grouped = rng_.Bernoulli(0.6);
  std::vector<std::string> select;
  if (grouped) {
    // Group on low-cardinality columns so groups are well-populated.
    int gt = scope[rng_.Uniform(0, static_cast<int64_t>(scope.size()) - 1)];
    const FuzzTable& g = schema_.tables[gt];
    std::string gcol =
        g.name + "." + g.payload[rng_.Uniform(0, 2)].name;
    q.group_by.push_back(gcol);
    select.push_back(gcol);
    if (rng_.Bernoulli(0.25)) {
      std::string g2 = g.name + "." + g.payload[rng_.Uniform(0, 2)].name;
      if (g2 != gcol) {
        q.group_by.push_back(g2);
        select.push_back(g2);
      }
    }
  }
  int naggs = static_cast<int>(rng_.Uniform(1, 2));
  for (int i = 0; i < naggs; ++i) {
    int at = scope[rng_.Uniform(0, static_cast<int64_t>(scope.size()) - 1)];
    std::vector<ColRef> cols = Columns(at);
    const ColRef& c =
        cols[rng_.Uniform(0, static_cast<int64_t>(cols.size()) - 1)];
    switch (rng_.Uniform(0, 4)) {
      case 0: select.push_back("COUNT(*)"); break;
      case 1: select.push_back("SUM(" + c.qualified + ")"); break;
      case 2: select.push_back("MIN(" + c.qualified + ")"); break;
      case 3: select.push_back("MAX(" + c.qualified + ")"); break;
      default: select.push_back("AVG(" + c.qualified + ")"); break;
    }
  }
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) q.select_clause += ", ";
    q.select_clause += select[i];
  }

  int extra = static_cast<int>(rng_.Uniform(0, 2));
  for (int i = 0; i < extra; ++i) q.conjuncts.push_back(Conjunct(scope));

  if (grouped && rng_.Bernoulli(0.4)) {
    q.having = rng_.Bernoulli(0.5)
                   ? "COUNT(*) >= " + std::to_string(rng_.Uniform(0, 3))
                   : "MAX(" + schema_.tables[scope[0]].name + ".B) > " +
                         std::to_string(rng_.Uniform(0, 8));
  }
  if (grouped && rng_.Bernoulli(0.5)) {
    // ORDER BY a group column; always position 0 of the select list.
    bool asc = rng_.Bernoulli(0.7);
    q.order_by = select[0] + (asc ? "" : " DESC");
    q.order_positions.push_back({0, asc});
  }
  return q;
}

std::string FuzzQueryGen::NextDml() {
  if (next_pk_.empty()) {
    for (const FuzzTable& t : schema_.tables) next_pk_.push_back(t.rows);
  }
  int ti = static_cast<int>(
      rng_.Uniform(0, static_cast<int64_t>(schema_.tables.size()) - 1));
  const FuzzTable& t = schema_.tables[ti];

  // Narrow row-selecting predicate for UPDATE / DELETE.
  auto narrow_where = [&]() -> std::string {
    int64_t hw = std::max<int64_t>(next_pk_[ti], 1);
    switch (rng_.Uniform(0, 2)) {
      case 0: {
        int64_t pk = rng_.Uniform(0, hw - 1);
        return "PK = " + std::to_string(pk);
      }
      case 1: {
        int64_t lo = rng_.Uniform(0, hw - 1);
        int64_t hi = lo + rng_.Uniform(0, 3);
        return "PK BETWEEN " + std::to_string(lo) + " AND " +
               std::to_string(hi);
      }
      default: {
        const FuzzColumn& c =
            t.payload[rng_.Uniform(0, static_cast<int64_t>(t.payload.size()) -
                                          1)];
        int64_t v = rng_.Uniform(0, std::max<int64_t>(c.domain - 1, 0));
        int64_t lo = rng_.Uniform(0, std::max<int64_t>(next_pk_[ti] - 1, 0));
        return c.name + " = " + std::to_string(v) + " AND PK >= " +
               std::to_string(lo);
      }
    }
  };

  int64_t kind = rng_.Uniform(0, 9);
  if (kind <= 4) {  // INSERT: half the mix, so tables grow on balance.
    int rows = 1 + static_cast<int>(rng_.Uniform(0, 2));
    std::string sql = "INSERT INTO " + t.name + " VALUES ";
    for (int r = 0; r < rows; ++r) {
      // Mostly fresh PKs; an occasional deliberate duplicate drives the
      // unique-violation / statement-rollback path. Statement row order is
      // fixed, so the failing row is the same on every replay.
      int64_t pk = rng_.Bernoulli(0.08) && next_pk_[ti] > 0
                       ? rng_.Uniform(0, next_pk_[ti] - 1)
                       : next_pk_[ti]++;
      if (r > 0) sql += ", ";
      sql += "(" + std::to_string(pk);
      for (const FuzzTable::Link& link : t.links) {
        sql += ", " + std::to_string(rng_.Uniform(
                          0, schema_.tables[link.target].rows));
      }
      for (const FuzzColumn& c : t.payload) {
        sql += ", " +
               std::to_string(rng_.Uniform(0, std::max<int64_t>(c.domain - 1,
                                                                0)));
      }
      sql += ")";
    }
    return sql;
  }
  if (kind <= 7) {  // UPDATE: payload columns only (see header).
    const FuzzColumn& c = t.payload[rng_.Uniform(
        0, static_cast<int64_t>(t.payload.size()) - 1)];
    std::string rhs =
        rng_.Bernoulli(0.3)
            ? c.name + " + 1"  // Pre-image arithmetic: still order-free.
            : std::to_string(rng_.Uniform(0, std::max<int64_t>(c.domain - 1,
                                                               0)));
    return "UPDATE " + t.name + " SET " + c.name + " = " + rhs + " WHERE " +
           narrow_where();
  }
  return "DELETE FROM " + t.name + " WHERE " + narrow_where();
}

GeneratedQuery FuzzQueryGen::Next() {
  int num_real = 0;
  for (const FuzzTable& t : schema_.tables) num_real += t.rows > 0 ? 1 : 0;
  int shape = static_cast<int>(rng_.Uniform(0, 9));
  if (shape >= 6 && shape <= 7) return AggregateQuery();

  GeneratedQuery q;
  int t0 = rng_.Bernoulli(0.08)
               ? static_cast<int>(schema_.tables.size()) - 1  // Empty table.
               : static_cast<int>(rng_.Uniform(0, num_real - 1));
  std::vector<int> scope = {t0};
  q.from.push_back(schema_.tables[t0].name);

  if (shape >= 3 && shape <= 5) {
    // Join 2-3 link-connected tables (start from a linked table if t0 has
    // no outgoing links).
    if (schema_.tables[t0].links.empty()) {
      t0 = 0;  // Fact/head table always has links.
      scope = {t0};
      q.from = {schema_.tables[t0].name};
    }
    const FuzzTable& head = schema_.tables[t0];
    const FuzzTable::Link& l1 =
        head.links[rng_.Uniform(0, static_cast<int64_t>(head.links.size()) - 1)];
    scope.push_back(l1.target);
    q.from.push_back(schema_.tables[l1.target].name);
    q.conjuncts.push_back(head.name + "." + l1.fk_column + " = " +
                          schema_.tables[l1.target].name + ".PK");
    if (rng_.Bernoulli(0.45)) {
      // Third table: another link of the head (star) or a link of the
      // second table (chain / snowflake), whichever exists.
      const FuzzTable& second = schema_.tables[l1.target];
      if (!second.links.empty() && rng_.Bernoulli(0.5)) {
        const FuzzTable::Link& l2 = second.links[0];
        scope.push_back(l2.target);
        q.from.push_back(schema_.tables[l2.target].name);
        q.conjuncts.push_back(second.name + "." + l2.fk_column + " = " +
                              schema_.tables[l2.target].name + ".PK");
      } else if (head.links.size() > 1) {
        for (const FuzzTable::Link& l2 : head.links) {
          if (l2.target == l1.target) continue;
          scope.push_back(l2.target);
          q.from.push_back(schema_.tables[l2.target].name);
          q.conjuncts.push_back(head.name + "." + l2.fk_column + " = " +
                                schema_.tables[l2.target].name + ".PK");
          break;
        }
      }
    }
  }

  int preds = static_cast<int>(rng_.Uniform(shape <= 2 ? 1 : 0, 3));
  for (int i = 0; i < preds; ++i) q.conjuncts.push_back(Conjunct(scope));
  if (shape >= 8) q.conjuncts.push_back(SubqueryConjunct(t0));

  AddSelectAndOrder(scope, &q);
  return q;
}

std::string QueryGen::RandomJoinQuery(int num_tables) {
  num_tables = std::min(num_tables, spec_.num_tables);
  int start = static_cast<int>(
      rng_.Uniform(0, spec_.num_tables - num_tables));
  std::string sql = "SELECT " + TableName(start) + ".PK FROM ";
  for (int i = 0; i < num_tables; ++i) {
    if (i > 0) sql += ", ";
    sql += TableName(start + i);
  }
  std::vector<std::string> preds;
  for (int i = 0; i + 1 < num_tables; ++i) {
    preds.push_back(TableName(start + i) + ".FK = " +
                    TableName(start + i + 1) + ".PK");
  }
  int extra = static_cast<int>(rng_.Uniform(1, 2));
  for (int p = 0; p < extra; ++p) {
    int t = start + static_cast<int>(rng_.Uniform(0, num_tables - 1));
    preds.push_back(RandomPredicate(TableName(t)));
  }
  for (size_t i = 0; i < preds.size(); ++i) {
    sql += (i == 0 ? " WHERE " : " AND ") + preds[i];
  }
  if (rng_.Bernoulli(0.25)) {
    sql += " ORDER BY " + TableName(start) + ".FK";
  }
  return sql;
}

}  // namespace systemr
