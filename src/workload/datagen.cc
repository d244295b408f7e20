#include "workload/datagen.h"

#include <algorithm>

namespace systemr {

Status DataGen::CreateAndLoad(const TableSpec& spec) {
  RETURN_IF_ERROR(CreateAndInsertRows(spec));
  for (const IndexSpec& idx : spec.indexes) {
    ASSIGN_OR_RETURN(IndexInfo * ignored,
                     db_->catalog().CreateIndex(idx.name, spec.name,
                                                idx.columns, idx.unique,
                                                idx.clustered));
    (void)ignored;
  }
  return db_->catalog().UpdateStatistics(spec.name);
}

Status DataGen::CreateAndInsertRows(const TableSpec& spec) {
  std::vector<ColumnDef> cols;
  for (const ColumnSpec& c : spec.columns) {
    cols.push_back(ColumnDef{c.name, c.type});
  }
  Schema schema(std::move(cols));
  ASSIGN_OR_RETURN(TableInfo * table,
                   db_->catalog().CreateTable(spec.name, schema));
  (void)table;

  // String pools so string columns have controlled ICARDs.
  std::vector<std::vector<std::string>> pools(spec.columns.size());
  for (size_t c = 0; c < spec.columns.size(); ++c) {
    if (spec.columns[c].type == ValueType::kString) {
      for (int64_t i = 0; i < spec.columns[c].domain; ++i) {
        pools[c].push_back(rng_.RandomString(spec.columns[c].str_len));
      }
    }
  }

  std::vector<Row> rows;
  rows.reserve(spec.num_rows);
  for (int64_t r = 0; r < spec.num_rows; ++r) {
    Row row;
    for (size_t c = 0; c < spec.columns.size(); ++c) {
      const ColumnSpec& cs = spec.columns[c];
      int64_t v;
      if (cs.sequential) {
        v = r;
      } else if (cs.zipf > 0) {
        v = rng_.Zipf(cs.domain, cs.zipf) - 1;
      } else {
        v = rng_.Uniform(0, cs.domain - 1);
      }
      switch (cs.type) {
        case ValueType::kInt64:
          row.push_back(Value::Int(v));
          break;
        case ValueType::kDouble:
          row.push_back(Value::Real(static_cast<double>(v) +
                                    rng_.NextDouble()));
          break;
        case ValueType::kString:
          row.push_back(Value::Str(pools[c][v % pools[c].size()]));
          break;
        case ValueType::kNull:
          row.push_back(Value::Null());
          break;
      }
    }
    rows.push_back(std::move(row));
  }

  if (spec.cluster_by.has_value()) {
    auto col = schema.FindColumn(*spec.cluster_by);
    if (!col.has_value()) {
      return Status::NotFound("cluster_by column not found");
    }
    size_t c = *col;
    std::stable_sort(rows.begin(), rows.end(),
                     [c](const Row& a, const Row& b) {
                       return a[c].Compare(b[c]) < 0;
                     });
  }
  for (const Row& row : rows) {
    RETURN_IF_ERROR(db_->catalog().Insert(spec.name, row));
  }
  return Status::OK();
}

Status DataGen::LoadPaperExample(int64_t emps, int64_t depts, int64_t jobs) {
  // JOB: the paper's job catalog. JOB=5 CLERK, 6 TYPIST, 9 SALES,
  // 12 MECHANIC (Fig. 1); the rest get synthetic titles.
  {
    TableSpec job;
    job.name = "JOB";
    job.num_rows = 0;  // Loaded manually below.
    job.columns = {{"JOB", ValueType::kInt64, jobs, 0, true},
                   {"TITLE", ValueType::kString, jobs, 0, false, 8}};
    RETURN_IF_ERROR(CreateAndLoad(job));
    for (int64_t j = 0; j < jobs; ++j) {
      std::string title;
      switch (j) {
        case 5: title = "CLERK"; break;
        case 6: title = "TYPIST"; break;
        case 9: title = "SALES"; break;
        case 12: title = "MECHANIC"; break;
        default: title = "TITLE" + std::to_string(j);
      }
      RETURN_IF_ERROR(db_->catalog().Insert(
          "JOB", {Value::Int(j), Value::Str(title)}));
    }
    ASSIGN_OR_RETURN(IndexInfo * ignored,
                     db_->catalog().CreateIndex("JOB_JOB", "JOB", {"JOB"},
                                                /*unique=*/true,
                                                /*clustered=*/true));
    (void)ignored;
    RETURN_IF_ERROR(db_->catalog().UpdateStatistics("JOB"));
  }

  // DEPT: DNO sequential, DNAME synthetic, LOC from a small set incl DENVER.
  {
    TableSpec dept;
    dept.name = "DEPT";
    dept.num_rows = 0;
    dept.columns = {{"DNO", ValueType::kInt64, depts, 0, true},
                    {"DNAME", ValueType::kString, depts, 0, false, 10},
                    {"LOC", ValueType::kString, 10, 0, false, 8}};
    RETURN_IF_ERROR(CreateAndLoad(dept));
    const char* locs[] = {"DENVER",  "SAN JOSE", "NEW YORK", "AUSTIN",
                          "CHICAGO", "BOSTON",   "SEATTLE",  "MIAMI",
                          "DALLAS",  "PORTLAND"};
    for (int64_t d = 0; d < depts; ++d) {
      RETURN_IF_ERROR(db_->catalog().Insert(
          "DEPT", {Value::Int(d), Value::Str("DEPT" + std::to_string(d)),
                   Value::Str(locs[rng_.Uniform(0, 9)])}));
    }
    ASSIGN_OR_RETURN(IndexInfo * ignored,
                     db_->catalog().CreateIndex("DEPT_DNO", "DEPT", {"DNO"},
                                                /*unique=*/true,
                                                /*clustered=*/true));
    (void)ignored;
    RETURN_IF_ERROR(db_->catalog().UpdateStatistics("DEPT"));
  }

  // EMP: names synthetic, DNO uniform over departments, JOB skewed so some
  // titles are common, SAL uniform.
  {
    TableSpec emp;
    emp.name = "EMP";
    emp.num_rows = emps;
    emp.columns = {{"NAME", ValueType::kString, emps, 0, false, 10},
                   {"DNO", ValueType::kInt64, depts, 0, false},
                   {"JOB", ValueType::kInt64, jobs, 0.5, false},
                   {"SAL", ValueType::kInt64, 50000, 0, false}};
    emp.indexes = {{"EMP_DNO", {"DNO"}, false, true},
                   {"EMP_JOB", {"JOB"}, false, false}};
    emp.cluster_by = "DNO";
    RETURN_IF_ERROR(CreateAndLoad(emp));
  }
  return Status::OK();
}

}  // namespace systemr
