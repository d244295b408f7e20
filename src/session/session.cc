#include "session/session.h"

#include <algorithm>
#include <cmath>

#include "optimizer/explain.h"
#include "optimizer/feedback.h"
#include "sql/lexer.h"

namespace systemr {

StatusOr<std::shared_ptr<const OptimizedQuery>> Session::PlanFor(
    std::vector<Token> tokens, const std::string& key, uint64_t* version_out,
    bool mark_replanned) {
  // The version is read BEFORE optimizing: if DDL lands between the read and
  // the Prepare, the entry is stored under the older version and the next
  // lookup conservatively re-optimizes — never the reverse.
  uint64_t version = db_->catalog().version();
  if (cache_ != nullptr && !mark_replanned) {
    if (std::shared_ptr<const OptimizedQuery> plan =
            cache_->Lookup(key, version)) {
      ++stats_.cache_hits;
      *version_out = version;
      return plan;
    }
  }
  ASSIGN_OR_RETURN(Statement stmt, Parse(std::move(tokens)));
  ASSIGN_OR_RETURN(
      OptimizedQuery query,
      db_->Prepare(stmt, max_dop_ > 1 ? max_dop_ : db_->options().max_dop));
  ++stats_.optimizations;
  query.feedback_replanned = mark_replanned;
  auto plan = std::make_shared<const OptimizedQuery>(std::move(query));
  if (cache_ != nullptr) cache_->Insert(key, version, plan);
  *version_out = version;
  return plan;
}

StatusOr<PreparedStatement> Session::Prepare(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  return Prepare(sql, std::move(tokens));
}

StatusOr<PreparedStatement> Session::Prepare(const std::string& sql,
                                             std::vector<Token> tokens) {
  // One lex: the tokens render the cache key and, on a miss, are parsed.
  std::string key = NormalizeSql(tokens);
  // Parallel plans are distinct cache entries: a session running PARALLEL 4
  // must not serve (or poison) another session's serial plan for the same
  // normalized text.
  if (max_dop_ > 1) {
    key += "#dop=" + std::to_string(max_dop_);
    if (db_->options().force_parallel) key += "!";
  }
  uint64_t version = 0;
  ASSIGN_OR_RETURN(std::shared_ptr<const OptimizedQuery> plan,
                   PlanFor(std::move(tokens), key, &version));
  return PreparedStatement(this, sql, std::move(key), std::move(plan),
                           version);
}

StatusOr<QueryResult> Session::ExecuteQuery(const std::string& sql,
                                            const std::vector<Value>& params) {
  ASSIGN_OR_RETURN(PreparedStatement stmt, Prepare(sql));
  return stmt.Execute(params);
}

Status Session::Begin() { return db_->Begin(&txn_); }

Status Session::Commit() { return db_->Commit(&txn_); }

Status Session::Rollback() { return db_->Rollback(&txn_); }

StatusOr<size_t> Session::Mutate(const std::string& sql) {
  return db_->Mutate(sql, txn_.get(), &limits_);
}

StatusOr<QueryResult> Session::Execute(const std::string& sql,
                                       const std::vector<Value>& params) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  return Execute(sql, std::move(tokens), params);
}

StatusOr<QueryResult> Session::Execute(const std::string& sql,
                                       std::vector<Token> tokens,
                                       const std::vector<Value>& params) {
  TokenType lead = LeadingToken(tokens);
  if (lead == TokenType::kSelect) {
    ASSIGN_OR_RETURN(PreparedStatement stmt, Prepare(sql, std::move(tokens)));
    return stmt.Execute(params);
  }
  if (lead == TokenType::kExplain) {
    // Without its EXPLAIN the statement is the SELECT it explains, and
    // shares that SELECT's cache key and plan.
    tokens.erase(std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
      return t.type == TokenType::kExplain;
    }));
    ASSIGN_OR_RETURN(PreparedStatement stmt, Prepare(sql, std::move(tokens)));
    return QueryResult::ForExplain(stmt.plan());
  }
  ASSIGN_OR_RETURN(Statement stmt, Parse(std::move(tokens)));
  return db_->Execute(stmt, params, &limits_, &txn_);
}

StatusOr<QueryResult> PreparedStatement::Execute(
    const std::vector<Value>& params) {
  // §2: "if one or more of the dependencies has changed, the statement is
  // re-optimized at the next execution" — detected here by version drift.
  uint64_t current = session_->db()->catalog().version();
  if (current != catalog_version_) {
    ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql_));
    ASSIGN_OR_RETURN(plan_, session_->PlanFor(std::move(tokens), key_,
                                              &catalog_version_));
    ++session_->stats_.reprepares;
  }
  ASSIGN_OR_RETURN(QueryResult result,
                   session_->db()->Run(*plan_, params, &session_->limits_,
                                       session_->txn_.get()));
  ++session_->stats_.executions;

  // Selectivity-feedback divergence: when the actual result cardinality is
  // off the estimate by more than the q-error threshold, the execution above
  // has already pushed corrected selectivities into the feedback store —
  // re-optimize once so the cached plan benefits. The replanned flag stops a
  // statement whose cardinality the model simply cannot capture from
  // re-optimizing on every execution.
  if (session_->db()->options().feedback != nullptr &&
      !plan_->feedback_replanned) {
    double est = std::max(plan_->est_rows, 1.0);
    double actual = std::max(static_cast<double>(result.rows.size()), 1.0);
    double q = std::max(est / actual, actual / est);
    if (q > kReplanQErrorThreshold) {
      if (session_->cache() != nullptr) session_->cache()->Remove(key_);
      ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql_));
      ASSIGN_OR_RETURN(plan_, session_->PlanFor(std::move(tokens), key_,
                                                &catalog_version_,
                                                /*mark_replanned=*/true));
      ++session_->stats_.feedback_replans;
    }
  }
  return result;
}

std::string PreparedStatement::Explain() const {
  return ExplainPlan(plan_->root, *plan_->block);
}

}  // namespace systemr
