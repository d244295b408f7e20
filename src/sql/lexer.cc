#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <unordered_map>

namespace systemr {

namespace {

const std::unordered_map<std::string, TokenType>& KeywordMap() {
  static const auto* kMap = new std::unordered_map<std::string, TokenType>{
      {"SELECT", TokenType::kSelect},
      {"FROM", TokenType::kFrom},
      {"WHERE", TokenType::kWhere},
      {"AND", TokenType::kAnd},
      {"OR", TokenType::kOr},
      {"NOT", TokenType::kNot},
      {"BETWEEN", TokenType::kBetween},
      {"IN", TokenType::kIn},
      {"GROUP", TokenType::kGroup},
      {"ORDER", TokenType::kOrder},
      {"BY", TokenType::kBy},
      {"ASC", TokenType::kAsc},
      {"DESC", TokenType::kDesc},
      {"CREATE", TokenType::kCreate},
      {"TABLE", TokenType::kTable},
      {"INDEX", TokenType::kIndex},
      {"UNIQUE", TokenType::kUnique},
      {"CLUSTERED", TokenType::kClustered},
      {"ON", TokenType::kOn},
      {"INSERT", TokenType::kInsert},
      {"INTO", TokenType::kInto},
      {"VALUES", TokenType::kValues},
      {"UPDATE", TokenType::kUpdate},
      {"STATISTICS", TokenType::kStatistics},
      {"EXPLAIN", TokenType::kExplain},
      {"INT", TokenType::kInt},
      {"INTEGER", TokenType::kInt},
      {"REAL", TokenType::kReal},
      {"DOUBLE", TokenType::kReal},
      {"STRING", TokenType::kString},
      {"VARCHAR", TokenType::kString},
      {"CHAR", TokenType::kString},
      {"AVG", TokenType::kAvg},
      {"COUNT", TokenType::kCount},
      {"MIN", TokenType::kMin},
      {"MAX", TokenType::kMax},
      {"SUM", TokenType::kSum},
      {"AS", TokenType::kAs},
      {"NULL", TokenType::kNull},
      {"IS", TokenType::kIs},
      {"DELETE", TokenType::kDelete},
      {"SET", TokenType::kSet},
      {"HAVING", TokenType::kHaving},
      {"DISTINCT", TokenType::kDistinct},
      {"LIKE", TokenType::kLike},
      {"BEGIN", TokenType::kBegin},
      {"COMMIT", TokenType::kCommit},
      {"ROLLBACK", TokenType::kRollback},
      {"TRANSACTION", TokenType::kTransaction},
      {"WORK", TokenType::kTransaction},
  };
  return *kMap;
}

}  // namespace

StatusOr<std::vector<Token>> Lex(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    // Comments: -- to end of line.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      std::string word = sql.substr(start, i - start);
      for (char& ch : word) ch = std::toupper(static_cast<unsigned char>(ch));
      auto it = KeywordMap().find(word);
      if (it != KeywordMap().end()) {
        tok.type = it->second;
      } else {
        tok.type = TokenType::kIdentifier;
      }
      tok.text = std::move(word);
      tokens.push_back(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_real = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        is_real = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      const char* first = sql.data() + start;
      const char* last = sql.data() + i;
      tok.type = is_real ? TokenType::kRealLiteral : TokenType::kIntLiteral;
      std::errc ec = is_real ? std::from_chars(first, last, tok.real_value).ec
                             : std::from_chars(first, last, tok.int_value).ec;
      if (ec != std::errc()) {
        return Status::InvalidArgument(
            std::string(is_real ? "real" : "integer") +
            " literal out of range at offset " + std::to_string(start));
      }
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string body;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // Escaped quote.
            body.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        body.push_back(sql[i++]);
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated string literal at offset " +
                                       std::to_string(tok.offset));
      }
      tok.type = TokenType::kStringLiteral;
      tok.text = std::move(body);
      tokens.push_back(std::move(tok));
      continue;
    }
    // Operators and punctuation.
    auto two = [&](char second) {
      return i + 1 < n && sql[i + 1] == second;
    };
    switch (c) {
      case '(': tok.type = TokenType::kLParen; ++i; break;
      case ')': tok.type = TokenType::kRParen; ++i; break;
      case ',': tok.type = TokenType::kComma; ++i; break;
      case '.': tok.type = TokenType::kDot; ++i; break;
      case '*': tok.type = TokenType::kStar; ++i; break;
      case '+': tok.type = TokenType::kPlus; ++i; break;
      case '-': tok.type = TokenType::kMinus; ++i; break;
      case '/': tok.type = TokenType::kSlash; ++i; break;
      case ';': tok.type = TokenType::kSemicolon; ++i; break;
      case '?': tok.type = TokenType::kQuestion; ++i; break;
      case '=': tok.type = TokenType::kEq; ++i; break;
      case '<':
        if (two('=')) {
          tok.type = TokenType::kLe;
          i += 2;
        } else if (two('>')) {
          tok.type = TokenType::kNe;
          i += 2;
        } else {
          tok.type = TokenType::kLt;
          ++i;
        }
        break;
      case '>':
        if (two('=')) {
          tok.type = TokenType::kGe;
          i += 2;
        } else {
          tok.type = TokenType::kGt;
          ++i;
        }
        break;
      case '!':
        if (two('=')) {
          tok.type = TokenType::kNe;
          i += 2;
          break;
        }
        [[fallthrough]];
      default:
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' at offset " +
                                       std::to_string(i));
    }
    tokens.push_back(std::move(tok));
  }
  Token eof;
  eof.type = TokenType::kEof;
  eof.offset = n;
  tokens.push_back(std::move(eof));
  return tokens;
}

}  // namespace systemr
