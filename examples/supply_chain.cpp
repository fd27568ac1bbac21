// Supply-chain procurement: a multi-relation package query.
//
// TPC-H style scenario (the paper builds its benchmark from exactly this
// kind of schema): `offers` lists per-supplier part offers, `suppliers`
// holds supplier metadata. The buyer wants a procurement package — a set
// of offers — that joins the two relations, filters to reliable suppliers,
// caps total cost, guarantees a minimum total quantity, and minimizes lead
// time. The session materializes the join automatically (paper §4.5) and
// rewrites the query onto the join result; forcing SKETCHREFINE on the
// same query with four worker threads (ExecContext::threads, which drives
// its scans and branch-and-bound) runs the scalable path without touching
// any low-level evaluator.
//
// Build & run:  cmake --build build && ./build/examples/supply_chain
#include <cstdio>
#include <iostream>

#include "common/rng.h"
#include "engine/engine.h"

using paql::Engine;
using paql::Rng;
using paql::engine::Strategy;
using paql::relation::DataType;
using paql::relation::RowId;
using paql::relation::Schema;
using paql::relation::Table;
using paql::relation::Value;

int main() {
  // --- 1. Two relations: offers and suppliers. ---
  Rng rng(7);
  Table suppliers{Schema({{"supp_id", DataType::kInt64},
                          {"region", DataType::kString},
                          {"reliability", DataType::kDouble}})};
  const int kSuppliers = 40;
  for (int s = 0; s < kSuppliers; ++s) {
    auto status = suppliers.AppendRow(
        {Value(int64_t{s}), Value(s % 3 ? "domestic" : "overseas"),
         Value(rng.Uniform(0.5, 1.0))});
    if (!status.ok()) return 1;
  }
  Table offers{Schema({{"offer_id", DataType::kInt64},
                       {"supp_id", DataType::kInt64},
                       {"unit_cost", DataType::kDouble},
                       {"quantity", DataType::kDouble},
                       {"lead_days", DataType::kDouble}})};
  const int kOffers = 2000;
  for (int o = 0; o < kOffers; ++o) {
    auto status = offers.AppendRow(
        {Value(int64_t{o}), Value(rng.UniformInt(0, kSuppliers - 1)),
         Value(rng.Uniform(5, 50)), Value(rng.Uniform(10, 200)),
         Value(rng.Uniform(2, 45))});
    if (!status.ok()) return 1;
  }

  // --- 2. The procurement package query over BOTH relations. ---
  const char* kQuery = R"(
      SELECT PACKAGE(O) AS Cart
      FROM offers O REPEAT 0, suppliers S
      WHERE O.supp_id = S.supp_id AND S.reliability >= 0.8
      SUCH THAT SUM(O.unit_cost) <= 300 AND
                SUM(O.quantity) >= 1200 AND
                COUNT(Cart.*) <= 15
      MINIMIZE SUM(O.lead_days))";

  // --- 3. One session over both relations; the engine materializes the
  //        join and rewrites the query before planning. ---
  auto session = Engine::Open(std::move(offers), "offers");
  if (!session.ok()) {
    std::cerr << session.status() << "\n";
    return 1;
  }
  if (auto added = session->AddTable("suppliers", std::move(suppliers));
      !added.ok()) {
    std::cerr << added << "\n";
    return 1;
  }

  auto exact = session->Execute(kQuery);
  if (!exact.ok()) {
    std::cerr << "DIRECT failed: " << exact.status() << "\n";
    return 1;
  }
  std::printf("Join materialized: %zu rows, %zu columns\n\n",
              exact->table->num_rows(), exact->table->num_columns());
  std::printf("DIRECT:            total lead time %6.1f days  (%.3fs)\n",
              exact->objective, exact->stats.wall_seconds);

  // SKETCHREFINE over the join result on four workers, via the override
  // escape hatch (the join result is below the auto threshold, so we force
  // it).
  session->options().planner.force = Strategy::kSketchRefine;
  session->options().exec.threads = 4;
  session->options().planner.partition_attributes = {
      "O_unit_cost", "O_quantity", "O_lead_days"};
  auto approx = session->Execute(kQuery);
  if (!approx.ok()) {
    std::cerr << "SKETCHREFINE failed: " << approx.status() << "\n";
    return 1;
  }
  std::printf("SKETCHREFINE (x%d): total lead time %6.1f days  (%.3fs)\n\n",
              approx->plan.exec_threads, approx->objective,
              approx->stats.wall_seconds);

  // --- 4. Show the chosen cart. ---
  Table cart = approx->Materialize();
  auto cost_col = cart.schema().FindColumn("O_unit_cost");
  auto qty_col = cart.schema().FindColumn("O_quantity");
  auto lead_col = cart.schema().FindColumn("O_lead_days");
  auto supp_col = cart.schema().FindColumn("O_supp_id");
  double cost = 0, qty = 0;
  std::cout << "Procurement cart (SKETCHREFINE package):\n";
  for (RowId r = 0; r < cart.num_rows(); ++r) {
    std::printf("  offer from supplier %2lld: $%5.1f, %5.1f units, %4.1f days\n",
                static_cast<long long>(cart.GetInt64(r, *supp_col)),
                cart.GetDouble(r, *cost_col), cart.GetDouble(r, *qty_col),
                cart.GetDouble(r, *lead_col));
    cost += cart.GetDouble(r, *cost_col);
    qty += cart.GetDouble(r, *qty_col);
  }
  std::printf("  -> total cost $%.1f (cap 300), quantity %.0f (min 1200)\n",
              cost, qty);
  return 0;
}
