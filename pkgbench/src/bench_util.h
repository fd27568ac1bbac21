// Shared pieces of the benchmark driver: arguments, a deterministic PRNG,
// the loopback line client, quantiles, resident-memory probes and the
// result line every run prints last.
#ifndef PKGBENCH_BENCH_UTIL_H_
#define PKGBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pkgbench {

struct Args {
  std::string mode;       // gen | run | reference | selftest
  std::string workload;   // serve | watch | restart
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;   // generated inputs of this workload and seed
  std::string ref;        // the reference-optima file (read or written)
};

/// Parses `pkgbench <mode> --workload W --seed N --seconds S --trace 0|1
/// --data DIR [--ref FILE]`. Exits with a message on malformed input.
Args ParseArgs(int argc, char** argv);

/// splitmix64: tiny, portable and fully specified, so the same seed gives
/// the same inputs on every platform and standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform(double lo, double hi);      // [lo, hi)
  uint64_t Below(uint64_t n);                // [0, n)
 private:
  uint64_t state_;
};

/// Mixes a workload-specific stream id into the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// A blocking client for the server's line protocol.
class LineClient {
 public:
  ~LineClient();
  bool Connect(uint16_t port);
  bool SendLine(const std::string& line);
  bool ReadLine(std::string* line);
  /// Sends `request` and reads the reply up to and including its final
  /// "OK <micros>" or "ERR ..." line. `lines` receives every reply line.
  bool Request(const std::string& request, std::vector<std::string>* lines);
  void Close();
 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Quantile by linear interpolation between closest ranks (q in [0,1]).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double GeoMean(const std::vector<double>& values);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMiB();

/// One metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Prints the last line of the run: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::map<std::string, Metric>& metrics);

/// Writes `text` to `path`, aborting the run on failure.
void WriteFileOrDie(const std::string& path, const std::string& text);
std::string ReadFileOrDie(const std::string& path);
std::vector<std::string> ReadLinesOrDie(const std::string& path);

/// Aborts the run (exit code 2) with a message on stderr.
[[noreturn]] void Die(const std::string& message);

}  // namespace pkgbench

#endif  // PKGBENCH_BENCH_UTIL_H_
