// Recursive-descent parser for the System R SQL subset: SELECT queries
// (joins, nested/correlated subqueries, GROUP BY / ORDER BY, aggregates),
// plus the DDL/DML needed to build databases (CREATE TABLE / CREATE INDEX /
// INSERT / UPDATE STATISTICS) and EXPLAIN.
#ifndef SYSTEMR_SQL_PARSER_H_
#define SYSTEMR_SQL_PARSER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/token.h"

namespace systemr {

/// Parses a single statement (a trailing semicolon is allowed).
StatusOr<Statement> Parse(const std::string& sql);

/// Same, from tokens already lexed (they must end with kEof, as Lex's do):
/// a caller that needs the tokens too lexes once and parses them.
StatusOr<Statement> Parse(std::vector<Token> tokens);

/// The type of the token a statement starts with: the parser skips leading
/// semicolons, then picks the statement's kind by this keyword. kEof when
/// the tokens hold no statement.
TokenType LeadingToken(const std::vector<Token>& tokens);

/// Parses a semicolon-separated script.
StatusOr<std::vector<Statement>> ParseScript(const std::string& sql);

}  // namespace systemr

#endif  // SYSTEMR_SQL_PARSER_H_
