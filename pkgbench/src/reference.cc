// Reference optima for the serve workload's objective ratio.
//
// Each "ref" statement is solved with DIRECT — the exact whole-problem
// ILP — on one worker with a generous budget. A solve that finishes is a
// proven optimum; one that runs out of budget falls back to the package
// the planner's own route returns, recorded as not proven. The file keeps
// the statement text, so a change to the datasets or statements makes the
// run fail until the file is made anew.
#include <iostream>
#include <sstream>

#include "common/stopwatch.h"
#include "engine/engine.h"
#include "inputs.h"
#include "relation/csv.h"
#include "workloads.h"

namespace pkgbench {

namespace {

constexpr double kReferenceBudgetSeconds = 600;

}  // namespace

void MakeReference(const Args& args) {
  if (args.ref.empty()) Die("reference needs --ref FILE");
  const std::string& dir = args.data_dir;
  std::vector<Statement> statements = ReadStatements(dir + "/statements.tsv");

  paql::EngineOptions options;
  options.exec.threads = 1;
  options.exec.limits.time_limit_s = kReferenceBudgetSeconds;
  options.planner.force = paql::engine::Strategy::kDirect;
  auto session = paql::Engine::OpenCsv(dir + "/galaxy.csv", options);
  if (!session.ok()) Die(session.status().ToString());
  if (!session->AddTableFromCsv(dir + "/tpch.csv").ok()) Die("tpch.csv");

  std::ostringstream file;
  file << "# Reference optima of the serve workload's SKETCHREFINE "
          "statements.\n"
       << "# name\tobjective\tproven\tstatement. Made by: python3 "
          "pkgbench/run.py --make-reference\n";
  file.precision(17);
  for (const Statement& s : statements) {
    if (s.kind != "ref") continue;
    paql::Stopwatch watch;
    session->options().planner.force = paql::engine::Strategy::kDirect;
    auto direct = session->Execute(s.paql);
    bool proven = direct.ok();
    double objective = 0;
    if (proven) {
      objective = direct->objective;
    } else {
      session->options().planner.force = paql::engine::Strategy::kAuto;
      session->options().planner.partition_size_threshold = kServeTau;
      auto fallback = session->Execute(s.paql);
      if (!fallback.ok()) Die(s.name + ": " + fallback.status().ToString());
      objective = fallback->objective;
    }
    std::cerr << s.name << ": " << objective
              << (proven ? " (proven)" : " (not proven: " +
                                             direct.status().ToString() + ")")
              << " in " << watch.ElapsedSeconds() << " s\n";
    file << s.name << "\t" << objective << "\t" << (proven ? 1 : 0) << "\t"
         << s.paql << "\n";
  }
  WriteFileOrDie(args.ref, file.str());
}

}  // namespace pkgbench
