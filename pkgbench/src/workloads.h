// The three workloads, each in an untraced mode (closed loop over the
// wire, end-to-end metrics) and a traced mode (the same operations
// replayed in-process through the layers' public functions, per-layer
// metrics).
#ifndef PKGBENCH_WORKLOADS_H_
#define PKGBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/server.h"

namespace pkgbench {

/// Server settings of each workload; the traced runs open their sessions
/// with the same engine options.
paql::service::ServerOptions ServeServerOptions();
paql::service::ServerOptions WatchServerOptions(const std::string& wal_dir);
paql::service::ServerOptions RestartServerOptions(const std::string& wal_dir);

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  /// Records a wrong answer (printed on stderr; the run reports
  /// correct=false).
  void Wrong(const std::string& why);
};

/// Fills the five end-to-end metrics every workload reports.
void SetEndToEnd(Outcome* out, const std::vector<double>& setup_s,
                 double loop_seconds, const std::vector<double>& latency_ms,
                 double peak_rss_mib, const std::vector<double>& ratios);

Outcome RunServe(const Args& args);
Outcome RunWatch(const Args& args);
Outcome RunRestart(const Args& args);

Outcome TraceServe(const Args& args);
Outcome TraceWatch(const Args& args);
Outcome TraceRestart(const Args& args);

/// Solves every "ref" statement of the serve workload with DIRECT (one
/// worker, generous budget) and writes the reference-optima file.
void MakeReference(const Args& args);

}  // namespace pkgbench

#endif  // PKGBENCH_WORKLOADS_H_
