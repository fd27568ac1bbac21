// Judges server replies with the independent checker: parses the reply,
// recomputes the package over the benchmark's own rows, and works out the
// objective ratio against the statement's known optimum.
#ifndef PKGBENCH_JUDGE_H_
#define PKGBENCH_JUDGE_H_

#include <map>
#include <string>

#include "checker.h"
#include "inputs.h"

namespace pkgbench {

struct ReferenceOptimum {
  double objective = 0;
  bool proven = false;
};

/// Reads the reference-optima file: one "name<TAB>objective<TAB>proven
/// <TAB>paql" line per statement, keyed by statement text.
std::map<std::string, ReferenceOptimum> ReadReferenceOptima(
    const std::string& path);

class Judge {
 public:
  /// `rows` is not owned and may change between checks (the update
  /// stream applies to it).
  void AddTable(const std::string& name, Rows* rows);
  void SetReference(std::map<std::string, ReferenceOptimum> optima) {
    optima_ = std::move(optima);
  }

  /// Checks the "PKG ..." reply of `statement`. On success `ratio`
  /// receives the objective ratio (NaN when no optimum is known).
  bool Check(const Statement& statement, const std::string& pkg_line,
             double* ratio, std::string* error);

 private:
  Rows* TableFor(const std::string& name, std::string* error);

  std::map<std::string, Rows*> tables_;  // lower-case name
  std::map<std::string, ReferenceOptimum> optima_;
};

}  // namespace pkgbench

#endif  // PKGBENCH_JUDGE_H_
