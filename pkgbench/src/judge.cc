#include "judge.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "bench_util.h"

namespace pkgbench {
namespace {

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

}  // namespace

std::map<std::string, ReferenceOptimum> ReadReferenceOptima(
    const std::string& path) {
  std::map<std::string, ReferenceOptimum> out;
  for (const std::string& line : ReadLinesOrDie(path)) {
    if (line[0] == '#') continue;
    std::istringstream in(line);
    std::string name, objective, proven, paql;
    if (!std::getline(in, name, '\t') || !std::getline(in, objective, '\t') ||
        !std::getline(in, proven, '\t') || !std::getline(in, paql)) {
      Die("malformed reference line in " + path);
    }
    out[paql] = {std::strtod(objective.c_str(), nullptr), proven == "1"};
  }
  return out;
}

void Judge::AddTable(const std::string& name, Rows* rows) {
  tables_[Lower(name)] = rows;
}

Rows* Judge::TableFor(const std::string& name, std::string* error) {
  auto it = tables_.find(Lower(name));
  if (it == tables_.end()) {
    *error = "checker has no rows for table " + name;
    return nullptr;
  }
  return it->second;
}

bool Judge::Check(const Statement& statement, const std::string& pkg_line,
                  double* ratio, std::string* error) {
  *ratio = std::numeric_limits<double>::quiet_NaN();
  // The FROM table is the sixth token of every benchmark statement.
  std::istringstream in(statement.paql);
  std::string token;
  for (int i = 0; i < 6 && in >> token; ++i) {
  }
  Rows* rows = TableFor(token, error);
  if (rows == nullptr) return false;
  Spec spec;
  if (!ParseSpec(statement.paql, *rows, &spec, error)) return false;
  ReturnedPackage package;
  if (!ParsePkgLine(pkg_line, &package)) {
    *error = "malformed reply: " + pkg_line;
    return false;
  }
  double objective = 0;
  if (!CheckPackage(spec, *rows, package, &objective, error)) {
    *error = statement.name + ": " + *error;
    return false;
  }
  if (!spec.has_objective) return true;
  if (statement.kind == "topk") {
    double optimum = TopKOptimum(spec, *rows);
    *ratio = ObjectiveRatio(spec.maximize, objective, optimum);
    // The checker's optimum is exact: nothing may beat it.
    if (*ratio < 1 - 1e-9) {
      *error = statement.name + ": objective beats the exact top-k optimum";
      return false;
    }
  } else if (statement.kind == "ref") {
    auto it = optima_.find(statement.paql);
    if (it == optima_.end()) {
      *error = statement.name +
               ": no reference optimum for this statement; make the "
               "reference file anew";
      return false;
    }
    const double optimum = it->second.objective;
    const bool beaten = spec.maximize ? objective > optimum * (1 + 1e-9)
                                      : objective < optimum * (1 - 1e-9);
    // A zero optimum (TPC-H Q7 sums NULLs as 0) has no ratio.
    if (optimum != 0) {
      *ratio = ObjectiveRatio(spec.maximize, objective, optimum);
    }
    if (it->second.proven && beaten) {
      std::ostringstream os;
      os.precision(17);
      os << statement.name << ": objective " << objective
         << " beats the proven optimum " << it->second.objective;
      *error = os.str();
      return false;
    }
  }
  return true;
}

}  // namespace pkgbench
