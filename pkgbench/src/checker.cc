#include "checker.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

#include "bench_util.h"

namespace pkgbench {
namespace {

constexpr double kNull = std::numeric_limits<double>::quiet_NaN();

bool SameName(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

bool ParseNumber(const std::string& text, double* out) {
  if (text.empty() || text == "NULL") {
    *out = kNull;
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// Tolerance of a linear-constraint check: the solver works to about
/// 1e-9 relative; sums of ten values keep well inside 1e-7 of the scale.
double Slack(double bound, double activity) {
  return 1e-7 * std::max({1.0, std::fabs(bound), std::fabs(activity)});
}

/// "SUM(P.col)" -> col.
std::string AggColumn(const std::string& token, size_t open) {
  size_t dot = token.find('.', open);
  size_t close = token.rfind(')');
  if (dot == std::string::npos || close == std::string::npos || close < dot) {
    return "";
  }
  return token.substr(dot + 1, close - dot - 1);
}

}  // namespace

Rows Rows::FromCsv(const std::string& path) {
  return FromCsvText(ReadFileOrDie(path));
}

Rows Rows::FromCsvText(const std::string& text) {
  Rows rows;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) Die("empty CSV");
  for (const std::string& field : SplitOn(line, ',')) {
    rows.columns_.push_back(field.substr(0, field.find(':')));
  }
  rows.values_.resize(rows.columns_.size());
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitOn(line, ',');
    if (fields.size() != rows.columns_.size()) Die("ragged CSV row: " + line);
    for (size_t c = 0; c < fields.size(); ++c) {
      double v;
      if (!ParseNumber(fields[c], &v)) Die("bad CSV number: " + fields[c]);
      rows.values_[c].push_back(v);
    }
    rows.live_.push_back(1);
  }
  rows.num_live_ = rows.live_.size();
  return rows;
}

int Rows::Column(const std::string& name) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (SameName(columns_[c], name)) return static_cast<int>(c);
  }
  return -1;
}

bool Rows::ApplyUpdateLine(const std::string& line, std::string* error) {
  std::istringstream in(line);
  std::string verb, table, payload;
  in >> verb >> table >> payload;
  if (payload.empty()) {
    *error = "update line without payload: " + line;
    return false;
  }
  if (verb == "INSERT") {
    for (const std::string& row_text : SplitOn(payload, ';')) {
      std::vector<std::string> fields = SplitOn(row_text, ',');
      if (fields.size() != columns_.size()) {
        *error = "insert row arity: " + row_text;
        return false;
      }
      for (size_t c = 0; c < fields.size(); ++c) {
        double v;
        if (!ParseNumber(fields[c], &v)) {
          *error = "insert value: " + fields[c];
          return false;
        }
        values_[c].push_back(v);
      }
      live_.push_back(1);
      ++num_live_;
    }
    return true;
  }
  if (verb == "DELETE") {
    for (const std::string& id_text : SplitOn(payload, ',')) {
      uint64_t id = std::strtoull(id_text.c_str(), nullptr, 10);
      if (!live(id)) {
        *error = "delete of a row that is not live: " + id_text;
        return false;
      }
      live_[id] = 0;
      --num_live_;
    }
    return true;
  }
  *error = "unknown update verb: " + verb;
  return false;
}

bool ParseSpec(const std::string& paql, const Rows& rows, Spec* spec,
               std::string* error) {
  *spec = Spec();
  std::istringstream in(paql);
  std::vector<std::string> tok;
  for (std::string t; in >> t;) tok.push_back(t);
  size_t i = 0;
  auto expect = [&](const std::string& word) {
    if (i < tok.size() && SameName(tok[i], word)) {
      ++i;
      return true;
    }
    *error = "expected '" + word + "' at token " + std::to_string(i) +
             " of: " + paql;
    return false;
  };
  auto number = [&](double* out) {
    if (i >= tok.size() || !ParseNumber(tok[i], out) || std::isnan(*out)) {
      *error = "expected a number at token " + std::to_string(i);
      return false;
    }
    ++i;
    return true;
  };
  // <op> <v> | BETWEEN <lo> AND <hi>, into `bound`.
  auto comparison = [&](Bound* bound) {
    if (i >= tok.size()) {
      *error = "truncated comparison";
      return false;
    }
    std::string op = tok[i++];
    if (SameName(op, "BETWEEN")) {
      return number(&bound->lo) && expect("AND") && number(&bound->hi);
    }
    double v;
    if (!number(&v)) return false;
    if (op == "<=") {
      bound->hi = v;
    } else if (op == ">=") {
      bound->lo = v;
    } else if (op == "=") {
      bound->lo = bound->hi = v;
    } else {
      *error = "unsupported comparison " + op;
      return false;
    }
    return true;
  };
  auto column = [&](const std::string& name, int* col) {
    *col = rows.Column(name);
    if (*col < 0) {
      *error = "unknown column " + name;
      return false;
    }
    return true;
  };

  if (!expect("SELECT") || i >= tok.size()) return false;
  ++i;  // PACKAGE(A)
  if (!expect("AS") || i >= tok.size()) return false;
  ++i;  // P
  if (!expect("FROM") || i + 1 >= tok.size()) return false;
  spec->table = tok[i];
  std::string alias = tok[i + 1] + ".";
  i += 2;
  double repeat;
  if (!expect("REPEAT") || !number(&repeat)) return false;
  spec->repeat = static_cast<int64_t>(repeat);
  if (i < tok.size() && SameName(tok[i], "WHERE")) {
    ++i;
    while (true) {
      if (i >= tok.size() || tok[i].rfind(alias, 0) != 0) {
        *error = "WHERE term must read " + alias + "<col>";
        return false;
      }
      Bound b;
      if (!column(tok[i++].substr(alias.size()), &b.col)) return false;
      if (!comparison(&b)) return false;
      spec->where.push_back(b);
      if (i < tok.size() && SameName(tok[i], "AND")) {
        ++i;
        continue;
      }
      break;
    }
  }
  if (!expect("SUCH") || !expect("THAT")) return false;
  while (true) {
    if (i >= tok.size()) {
      *error = "truncated SUCH THAT";
      return false;
    }
    std::string agg = tok[i++];
    std::string upper = agg;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    if (upper == "COUNT(P.*)") {
      Bound b;
      if (!comparison(&b)) return false;
      if (b.lo != b.hi) {
        *error = "COUNT must be an equality";
        return false;
      }
      spec->count = static_cast<int64_t>(b.lo);
    } else if (upper.rfind("SUM(", 0) == 0 || upper.rfind("AVG(", 0) == 0) {
      Bound b;
      if (!column(AggColumn(agg, 3), &b.col) || !comparison(&b)) return false;
      (upper[0] == 'S' ? spec->sums : spec->avgs).push_back(b);
    } else {
      *error = "unsupported aggregate " + agg;
      return false;
    }
    if (i < tok.size() && SameName(tok[i], "AND")) {
      ++i;
      continue;
    }
    break;
  }
  if (i < tok.size()) {
    spec->has_objective = true;
    if (SameName(tok[i], "MAXIMIZE")) {
      spec->maximize = true;
    } else if (!SameName(tok[i], "MINIMIZE")) {
      *error = "expected MINIMIZE or MAXIMIZE";
      return false;
    }
    ++i;
    if (i >= tok.size()) {
      *error = "objective without aggregate";
      return false;
    }
    if (!column(AggColumn(tok[i++], 3), &spec->objective_col)) return false;
  }
  if (i != tok.size()) {
    *error = "trailing tokens in: " + paql;
    return false;
  }
  return true;
}

bool ParsePkgLine(const std::string& line, ReturnedPackage* package) {
  *package = ReturnedPackage();
  std::istringstream in(line);
  std::string head;
  size_t count = 0;
  if (!(in >> head >> count >> package->reported_objective) || head != "PKG") {
    return false;
  }
  for (std::string pair; in >> pair;) {
    size_t colon = pair.find(':');
    if (colon == std::string::npos) return false;
    package->ids.push_back(std::strtoull(pair.c_str(), nullptr, 10));
    package->mult.push_back(std::strtoll(pair.c_str() + colon + 1, nullptr, 10));
  }
  return package->ids.size() == count;
}

bool CheckPackage(const Spec& spec, const Rows& rows,
                  const ReturnedPackage& package, double* objective,
                  std::string* error) {
  int64_t size = 0;
  for (size_t k = 0; k < package.ids.size(); ++k) {
    uint64_t id = package.ids[k];
    if (k > 0 && id <= package.ids[k - 1]) {
      *error = "row ids not strictly ascending";
      return false;
    }
    if (!rows.live(id)) {
      *error = "row " + std::to_string(id) + " is not live";
      return false;
    }
    if (package.mult[k] < 1 || package.mult[k] > spec.repeat + 1) {
      *error = "row " + std::to_string(id) + " breaks REPEAT " +
               std::to_string(spec.repeat);
      return false;
    }
    for (const Bound& b : spec.where) {
      double v = rows.value(b.col, id);
      if (std::isnan(v) || v < b.lo || v > b.hi) {
        *error = "row " + std::to_string(id) + " fails WHERE on " +
                 rows.columns()[b.col];
        return false;
      }
    }
    size += package.mult[k];
  }
  if (spec.count >= 0 && size != spec.count) {
    *error = "COUNT is " + std::to_string(size) + ", want " +
             std::to_string(spec.count);
    return false;
  }
  auto sum_of = [&](int col) {
    double sum = 0;
    for (size_t k = 0; k < package.ids.size(); ++k) {
      double v = rows.value(col, package.ids[k]);
      if (!std::isnan(v)) sum += v * static_cast<double>(package.mult[k]);
    }
    return sum;
  };
  auto within = [&](const Bound& b, double v, const char* what) {
    if (v < b.lo - Slack(b.lo, v) || v > b.hi + Slack(b.hi, v)) {
      std::ostringstream os;
      os.precision(17);
      os << what << "(" << rows.columns()[b.col] << ") = " << v
         << " outside [" << b.lo << ", " << b.hi << "]";
      *error = os.str();
      return false;
    }
    return true;
  };
  for (const Bound& b : spec.sums) {
    if (!within(b, sum_of(b.col), "SUM")) return false;
  }
  for (const Bound& b : spec.avgs) {
    if (size == 0) {
      *error = "AVG over an empty package";
      return false;
    }
    double avg = sum_of(b.col) / static_cast<double>(size);
    if (!within(b, avg, "AVG")) return false;
  }
  *objective = spec.has_objective ? sum_of(spec.objective_col) : 0;
  // The wire prints the objective with six significant digits.
  if (spec.has_objective &&
      std::fabs(*objective - package.reported_objective) >
          1e-5 * std::max(1.0, std::fabs(*objective))) {
    std::ostringstream os;
    os.precision(17);
    os << "reported objective " << package.reported_objective
       << " but the package sums to " << *objective;
    *error = os.str();
    return false;
  }
  return true;
}

double TopKOptimum(const Spec& spec, const Rows& rows) {
  if (!spec.has_objective || spec.count < 0 || !spec.sums.empty() ||
      !spec.avgs.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::vector<double> candidates;
  for (uint64_t id = 0; id < rows.num_rows(); ++id) {
    if (!rows.live(id)) continue;
    bool pass = true;
    for (const Bound& b : spec.where) {
      double v = rows.value(b.col, id);
      if (std::isnan(v) || v < b.lo || v > b.hi) pass = false;
    }
    if (!pass) continue;
    double v = rows.value(spec.objective_col, id);
    candidates.push_back(std::isnan(v) ? 0.0 : v);
  }
  if (spec.maximize) {
    std::sort(candidates.begin(), candidates.end(), std::greater<double>());
  } else {
    std::sort(candidates.begin(), candidates.end());
  }
  // Greedy by value: each row may be taken up to repeat+1 times.
  double best = 0;
  int64_t left = spec.count;
  for (double v : candidates) {
    if (left == 0) break;
    int64_t take = std::min<int64_t>(left, spec.repeat + 1);
    best += v * static_cast<double>(take);
    left -= take;
  }
  if (left > 0) return std::numeric_limits<double>::quiet_NaN();
  return best;
}

double ObjectiveRatio(bool maximize, double got, double optimum) {
  return maximize ? optimum / got : got / optimum;
}

bool CheckerSelfTest() {
  Rows rows = Rows::FromCsvText(
      "id:INT64,x:DOUBLE,y:DOUBLE\n"
      "0,1,5\n1,2,4\n2,3,3\n3,4,2\n4,5,1\n");
  Spec spec;
  std::string error;
  const std::string paql =
      "SELECT PACKAGE(R) AS P FROM t R REPEAT 0 WHERE R.x <= 4 SUCH THAT "
      "COUNT(P.*) = 2 AND SUM(P.y) >= 5 MAXIMIZE SUM(P.x)";
  if (!ParseSpec(paql, rows, &spec, &error)) {
    std::cerr << "selftest: " << error << "\n";
    return false;
  }
  auto verdict = [&](const std::string& pkg) {
    ReturnedPackage p;
    double objective;
    return ParsePkgLine(pkg, &p) && CheckPackage(spec, rows, p, &objective,
                                                 &error);
  };
  bool ok = true;
  // Rows 2 and 3: x = 3 + 4 = 7, y = 3 + 2 = 5. Valid.
  if (!verdict("PKG 2 7 2:1 3:1")) {
    std::cerr << "selftest: a valid package was rejected: " << error << "\n";
    ok = false;
  }
  // Row 3 swapped for row 4: row 4 fails WHERE (x = 5).
  if (verdict("PKG 2 8 2:1 4:1")) {
    std::cerr << "selftest: a swapped row was accepted\n";
    ok = false;
  }
  // Row 3 swapped for row 0: objective 4, and the reported 7 is wrong.
  if (verdict("PKG 2 7 0:1 2:1")) {
    std::cerr << "selftest: a swapped row with a stale objective was "
                 "accepted\n";
    ok = false;
  }
  // A deleted row.
  if (!rows.ApplyUpdateLine("DELETE t 3", &error)) {
    std::cerr << "selftest: " << error << "\n";
    return false;
  }
  if (verdict("PKG 2 7 2:1 3:1")) {
    std::cerr << "selftest: a deleted row was accepted\n";
    ok = false;
  }
  // A perturbed objective on a valid package (rows 1 and 2: x = 5).
  if (!verdict("PKG 2 5 1:1 2:1") || verdict("PKG 2 5.01 1:1 2:1")) {
    std::cerr << "selftest: the objective check is off\n";
    ok = false;
  }
  // REPEAT 0 forbids a second copy.
  if (verdict("PKG 1 6 2:2")) {
    std::cerr << "selftest: a repeated row was accepted under REPEAT 0\n";
    ok = false;
  }
  // Top-k optimum: live rows with x <= 4 are 0, 1, 2 -> 3 + 2 = 5.
  Spec topk;
  if (!ParseSpec("SELECT PACKAGE(R) AS P FROM t R REPEAT 0 WHERE R.x <= 4 "
                 "SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.x)",
                 rows, &topk, &error) ||
      TopKOptimum(topk, rows) != 5) {
    std::cerr << "selftest: top-k optimum is off\n";
    ok = false;
  }
  return ok;
}

}  // namespace pkgbench
