// pkgbench — the end-to-end benchmark driver.
//
//   pkgbench gen       --workload W --seed N --data DIR
//   pkgbench run       --workload W --seed N --seconds S --trace 0|1
//                      --data DIR --ref FILE
//   pkgbench reference --data DIR --ref FILE   (DIR from gen --workload serve)
//   pkgbench selftest
//
// `run` prints one JSON result as its last line; pkgbench/run.py builds
// the driver, generates the inputs and calls it (see pkgbench/README.md).
#include <iostream>

#include "checker.h"
#include "inputs.h"
#include "workloads.h"

namespace pkgbench {

void Outcome::Wrong(const std::string& why) {
  std::cerr << "pkgbench: wrong answer: " << why << "\n";
  correct = false;
}

void SetEndToEnd(Outcome* out, const std::vector<double>& setup_s,
                 double loop_seconds, const std::vector<double>& latency_ms,
                 double peak_rss_mib, const std::vector<double>& ratios) {
  out->metrics["setup_s"] = {Median(setup_s), "s"};
  out->metrics["ops_per_s"] = {
      static_cast<double>(latency_ms.size()) / loop_seconds, "1/s"};
  out->metrics["op_p50_ms"] = {Median(latency_ms), "ms"};
  out->metrics["peak_rss_mb"] = {peak_rss_mib, "MiB"};
  out->metrics["objective_ratio"] = {GeoMean(ratios), "ratio"};
  if (ratios.empty()) out->Wrong("no answered objective statement");
  std::cerr << "pkgbench: " << latency_ms.size() << " operations; latency ms"
            << " p50 " << Quantile(latency_ms, 0.5) << " p90 "
            << Quantile(latency_ms, 0.9) << " p99 "
            << Quantile(latency_ms, 0.99) << " max "
            << Quantile(latency_ms, 1.0) << "\n";
}

namespace {

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.mode == "gen") {
    GenerateInputs(args);
    return 0;
  }
  if (args.mode == "reference") {
    MakeReference(args);
    return 0;
  }
  if (args.mode == "selftest") {
    bool ok = CheckerSelfTest();
    std::cout << (ok ? "checker selftest passed" : "checker selftest FAILED")
              << std::endl;
    return ok ? 0 : 1;
  }
  if (args.mode != "run") Die("unknown mode " + args.mode);
  if (args.data_dir.empty()) Die("run needs --data");
  Outcome out;
  if (args.workload == "serve") {
    out = args.trace ? TraceServe(args) : RunServe(args);
  } else if (args.workload == "watch") {
    out = args.trace ? TraceWatch(args) : RunWatch(args);
  } else if (args.workload == "restart") {
    out = args.trace ? TraceRestart(args) : RunRestart(args);
  } else {
    Die("unknown workload " + args.workload);
  }
  PrintResult(out.correct, out.attempted, out.failed, out.metrics);
  return 0;
}

}  // namespace
}  // namespace pkgbench

int main(int argc, char** argv) { return pkgbench::Main(argc, argv); }
