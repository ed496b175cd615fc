#include "serving/spec_grammar.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace fcad::serving {
namespace {

std::string trim(const std::string& text) {
  std::size_t lo = text.find_first_not_of(" \t");
  if (lo == std::string::npos) return "";
  std::size_t hi = text.find_last_not_of(" \t");
  return text.substr(lo, hi - lo + 1);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(trim(text.substr(start)));
      return parts;
    }
    parts.push_back(trim(text.substr(start, pos - start)));
    start = pos + 1;
  }
}

}  // namespace

bool SpecClause::take(const std::string& key, double* out) {
  for (auto it = values.begin(); it != values.end(); ++it) {
    if (it->first == key) {
      *out = it->second;
      values.erase(it);
      return true;
    }
  }
  return false;
}

StatusOr<bool> SpecClause::take_int(const std::string& key, int* out) {
  double v = 0;
  if (!take(key, &v)) return false;
  if (v != std::floor(v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return error(kind + " " + key + " must be an integer, got " +
                 format_spec_number(v));
  }
  *out = static_cast<int>(v);
  return true;
}

Status SpecClause::finish() const {
  if (values.empty()) return Status::ok();
  return error("unknown key '" + values.front().first + "' in clause '" +
               kind + "'");
}

Status SpecClause::error(const std::string& message) const {
  return Status::invalid_argument(grammar + ": " + message);
}

StatusOr<std::vector<SpecClause>> parse_spec_clauses(
    const std::string& grammar, const std::string& text) {
  std::vector<SpecClause> clauses;
  const std::string trimmed = trim(text);
  if (trimmed.empty() || trimmed == "none") return clauses;
  for (const std::string& part : split(trimmed, ';')) {
    if (part.empty()) continue;
    SpecClause clause;
    clause.grammar = grammar;
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos) {
      return clause.error("clause '" + part + "' is missing ':'");
    }
    clause.kind = trim(part.substr(0, colon));
    for (const std::string& pair : split(part.substr(colon + 1), ',')) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return clause.error("expected key=value, got '" + pair + "'");
      }
      const std::string key = trim(pair.substr(0, eq));
      const std::string number = trim(pair.substr(eq + 1));
      char* end = nullptr;
      const double v = std::strtod(number.c_str(), &end);
      if (end == number.c_str() || *end != '\0') {
        return clause.error("bad number '" + number + "'");
      }
      // NaN would slip through every range check written as `x < lo`.
      if (std::isnan(v)) {
        return clause.error(clause.kind + " " + key + " is not a number");
      }
      clause.values.emplace_back(key, v);
    }
    clauses.push_back(std::move(clause));
  }
  return clauses;
}

std::string format_spec_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  if (std::strtod(buf, nullptr) == v) return buf;
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace fcad::serving
