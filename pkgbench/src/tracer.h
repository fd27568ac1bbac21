// An in-memory span recorder for the traced runs.
//
// Spans (name, start, end, parent, operation id) are kept in a vector and
// written out as JSON lines when the run ends. A span's layer is the part
// of its name before the first '.', and its self time is its duration
// minus its children's. Nothing inside the system under test is
// instrumented: spans wrap calls to the layers' public functions.
#ifndef PKGBENCH_TRACER_H_
#define PKGBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pkgbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t op = -1;
    double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name)
        : tracer_(tracer), id_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
   private:
    Tracer* tracer_;
    int id_;
  };

  Tracer();

  int Begin(const std::string& name);
  void End(int id);
  /// Operation id stamped on spans opened from now on.
  void SetOp(int64_t op) { op_ = op; }

  /// Attaches a counter to the innermost open span (or the run).
  void Count(const std::string& name, double value);

  /// Durations of every span called `name`, in seconds.
  std::vector<double> Durations(const std::string& name) const;
  /// Values of every counter called `name`.
  std::vector<double> Counter(const std::string& name) const;
  /// Self time per layer, in seconds.
  std::map<std::string, double> LayerSelfSeconds() const;

  /// Writes one JSON object per span, then one per counter.
  void Write(const std::string& path) const;

 private:
  int64_t Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t op_ = -1;
  struct CounterValue {
    std::string name;
    double value;
    int span;
  };
  std::vector<CounterValue> counters_;
};

/// Sum, mean and median helpers for derived metrics (0 on empty input).
double Sum(const std::vector<double>& values);
double Mean(const std::vector<double>& values);
double MedianOrZero(const std::vector<double>& values);

}  // namespace pkgbench

#endif  // PKGBENCH_TRACER_H_
