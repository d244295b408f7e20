#include "session/plan_cache.h"

#include <charconv>

#include "common/value.h"
#include "sql/lexer.h"

namespace systemr {

std::string NormalizeSql(const std::vector<Token>& tokens) {
  std::string key;
  char num[32];
  for (const Token& t : tokens) {
    if (t.type == TokenType::kEof) break;
    if (!key.empty()) key += ' ';
    switch (t.type) {
      case TokenType::kIdentifier:
        key += t.text;  // Already upper-cased by the lexer.
        break;
      case TokenType::kIntLiteral: {
        char* end = std::to_chars(num, num + sizeof(num), t.int_value).ptr;
        key.append(num, end - num);
        break;
      }
      case TokenType::kRealLiteral:
        // Distinct doubles never share a key.
        AppendShortestReal(t.real_value, &key);
        break;
      case TokenType::kStringLiteral:
        key += '\'';
        for (char c : t.text) {
          key += c;
          if (c == '\'') key += '\'';  // Re-escaped as the lexer reads it.
        }
        key += '\'';
        break;
      default:
        key += TokenTypeName(t.type);
        break;
    }
  }
  return key;
}

std::string NormalizeSql(const std::string& sql) {
  StatusOr<std::vector<Token>> tokens = Lex(sql);
  if (!tokens.ok()) return sql;
  return NormalizeSql(*tokens);
}

std::shared_ptr<const OptimizedQuery> PlanCache::Lookup(
    const std::string& key, uint64_t current_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second.version != current_version) {
    // Compiled against an old catalog: drop it, the caller re-optimizes.
    ++stats_.invalidations;
    ++stats_.misses;
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.plan;
}

void PlanCache::Insert(const std::string& key, uint64_t version,
                       std::shared_ptr<const OptimizedQuery> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Two sessions optimized the same statement concurrently; last wins.
    it->second.plan = std::move(plan);
    it->second.version = version;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(key);
  entries_[key] = Entry{std::move(plan), version, lru_.begin()};
  while (entries_.size() > capacity_) {
    ++stats_.evictions;
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
}

void PlanCache::Remove(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  ++stats_.invalidations;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PlanCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = PlanCacheStats();
}

}  // namespace systemr
