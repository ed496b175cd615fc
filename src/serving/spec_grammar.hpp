// The text grammar the scenario and elastic specs share:
//   kind:key=value,key=value;kind:key=value
// Both parsers read their clauses through here, so number parsing,
// canonical number formatting, and field errors cannot drift apart.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace fcad::serving {

/// One parsed `kind:key=value,...` clause. Values are never NaN.
struct SpecClause {
  std::string grammar;  ///< "scenario" or "elastic": prefixes every error
  std::string kind;
  std::vector<std::pair<std::string, double>> values;

  /// Removes `key` and stores its value in `*out`; false when absent.
  bool take(const std::string& key, double* out);
  /// take() for an integer field: a fraction or a value outside int is an
  /// error naming the field, never a silent truncation.
  StatusOr<bool> take_int(const std::string& key, int* out);
  /// Errors when a key was left untaken (unknown to the clause kind).
  Status finish() const;
  /// Status::invalid_argument("<grammar>: <message>").
  Status error(const std::string& message) const;
};

/// Splits `text` into clauses ("" and "none" yield none). Malformed
/// clauses, non-numeric values, and NaN are errors naming the field.
StatusOr<std::vector<SpecClause>> parse_spec_clauses(
    const std::string& grammar, const std::string& text);

/// Shortest decimal form that parses back to exactly `v` ("inf" for
/// infinity): canonical spec strings stay human-typable and byte-stable,
/// which the checkpoint fingerprint relies on.
std::string format_spec_number(double v);

}  // namespace fcad::serving
