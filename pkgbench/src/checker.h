// The independent package checker.
//
// It shares no code with the system under test: it reads the generated
// CSV files with its own parser, keeps its own record of every batch the
// benchmark applied (live row ids, inserted values), parses the
// benchmark's statements with its own small grammar, and recomputes each
// returned package from those rows — live row ids, REPEAT, the WHERE
// predicate per row, every SUCH THAT aggregate, and the objective.
//
// Grammar (all the benchmark's statements use it):
//   SELECT PACKAGE(A) AS P FROM <table> A REPEAT <r>
//     [WHERE <cond> {AND <cond>}]
//     SUCH THAT <agg> {AND <agg>}
//     [MINIMIZE|MAXIMIZE SUM(P.<col>)]
//   cond := A.<col> (<=|>=) <v> | A.<col> BETWEEN <lo> AND <hi>
//   agg  := COUNT(P.*) = <k> | (SUM|AVG)(P.<col>) (<=|>=) <v>
//         | (SUM|AVG)(P.<col>) BETWEEN <lo> AND <hi>
// Aggregates read a NULL value as 0; AVG divides by the package size.
#ifndef PKGBENCH_CHECKER_H_
#define PKGBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pkgbench {

/// The benchmark's own copy of one table: column-major doubles (NaN is
/// NULL) plus a live flag per row id.
class Rows {
 public:
  static Rows FromCsv(const std::string& path);
  static Rows FromCsvText(const std::string& text);

  size_t num_rows() const { return live_.size(); }
  size_t num_live() const { return num_live_; }
  bool live(uint64_t id) const { return id < live_.size() && live_[id]; }
  double value(int col, uint64_t id) const { return values_[col][id]; }
  /// Column index by case-insensitive name, or -1.
  int Column(const std::string& name) const;
  const std::vector<std::string>& columns() const { return columns_; }

  /// Applies one protocol update line ("INSERT <t> v,..;v,.." or
  /// "DELETE <t> id,id"); returns false (with `error`) on a malformed
  /// line, an unknown row or a double delete.
  bool ApplyUpdateLine(const std::string& line, std::string* error);

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> values_;  // [col][row id]
  std::vector<uint8_t> live_;
  size_t num_live_ = 0;
};

struct Bound {
  int col = -1;
  double lo = -1e308;
  double hi = 1e308;
};

struct Spec {
  std::string table;
  int64_t repeat = 0;
  std::vector<Bound> where;
  int64_t count = -1;          // COUNT(P.*) = count; -1 when absent
  std::vector<Bound> sums;
  std::vector<Bound> avgs;
  bool has_objective = false;
  bool maximize = false;
  int objective_col = -1;
};

bool ParseSpec(const std::string& paql, const Rows& rows, Spec* spec,
               std::string* error);

struct ReturnedPackage {
  std::vector<uint64_t> ids;
  std::vector<int64_t> mult;
  double reported_objective = 0;
};

/// Parses "PKG <count> <objective> <id:mult>...".
bool ParsePkgLine(const std::string& line, ReturnedPackage* package);

/// Checks `package` against `spec` over `rows`; on success `objective`
/// receives the recomputed objective.
bool CheckPackage(const Spec& spec, const Rows& rows,
                  const ReturnedPackage& package, double* objective,
                  std::string* error);

/// The optimum of a statement whose only SUCH THAT predicate is the
/// COUNT (a top-k selection the checker can solve exactly by sorting).
/// NaN when the statement has other aggregates.
double TopKOptimum(const Spec& spec, const Rows& rows);

/// The returned objective against the optimum, oriented so that 1 is
/// optimal and worse is larger.
double ObjectiveRatio(bool maximize, double got, double optimum);

/// Self-test: a swapped row, a deleted row and a perturbed objective must
/// each be rejected. Returns false and prints the failure otherwise.
bool CheckerSelfTest();

}  // namespace pkgbench

#endif  // PKGBENCH_CHECKER_H_
