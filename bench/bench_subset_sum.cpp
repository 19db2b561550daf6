// T6 — Theorem 6.2: m = 2*ceil(log(n)/2) uniform values in [1, 2] contain
// an (m/2)-element subset with sum in [y - log(n)/n, y] with probability
// Omega(1), for any y in (3/4)m ± 1.
//
// Shape to reproduce: the empirical success rate stays bounded away from 0
// as m grows (the window shrinks like log(n)/n = m/2^m-ish, yet the number
// of (m/2)-subsets grows like 2^m/sqrt(m) — the second-moment argument).
// Also: meet-in-the-middle decision time ~2^{m/2}.
#include <chrono>

#include "bench_common.h"
#include "subsetsum/subsetsum.h"
#include "util/rng.h"

namespace {

using namespace memreal;
using namespace memreal::bench;

void run_tables() {
  const int trials = fast_mode() ? 100 : 1'000;

  print_header("T6 — Theorem 6.2 (subset sums of random sets)",
               "Claim: random m-sets contain an (m/2)-subset hitting a "
               "width-(log n)/n window with probability Omega(1).");

  BenchJson artifact("subset_sum");
  artifact.set_seeds({1337, 7331});
  Json rec = series_record("success_rate", "T6", "half-cardinality");
  rec.set("workload",
          "random m-sets in [1, 2], window (log n)/n, exactly m/2 picks");
  Json rows = Json::array();

  Table t({"m", "n = 2^m", "window/scale", "success rate",
           "decide_us/check"});
  const double scale = 1e12;
  for (std::size_t m : {8u, 10u, 12u, 14u, 16u, 18u, 20u}) {
    const double n = std::pow(2.0, static_cast<double>(m));
    const double window_frac = std::log2(n) / n;
    const auto window =
        std::max<Tick>(1, static_cast<Tick>(window_frac * scale));
    Rng rng(m * 1337);
    int hits = 0;
    double decide_us = 0;
    for (int tr = 0; tr < trials; ++tr) {
      std::vector<Tick> v(m);
      for (auto& x : v) {
        x = static_cast<Tick>((1.0 + rng.next_double()) * scale);
      }
      const double y_d = 0.75 * static_cast<double>(m) * scale +
                         (rng.next_double() * 2.0 - 1.0) * scale;
      const auto y = static_cast<Tick>(y_d);
      const auto t0 = std::chrono::steady_clock::now();
      const bool ok =
          subset_in_range_mitm(v, y - window, y, m / 2).has_value();
      decide_us += std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
      hits += ok;
    }
    t.add_row({std::to_string(m), Table::num(n, 7),
               Table::num(window_frac, 4),
               Table::num(static_cast<double>(hits) / trials, 3),
               Table::num(decide_us / trials, 4)});
    Json row = Json::object();
    row.set("m", static_cast<std::uint64_t>(m))
        .set("n", n)
        .set("window_frac", window_frac)
        .set("rate", static_cast<double>(hits) / trials)
        .set("decide_us", decide_us / trials);
    rows.push(std::move(row));
  }
  rec.set("rows", std::move(rows));
  artifact.add(std::move(rec));
  t.print(std::cout);
  std::cout << "(success rate stays Omega(1) while the window shrinks "
               "geometrically; decide time doubles per +2 in m — the "
               "2^{m/2} meet-in-the-middle cost)\n";

  // Cardinality ablation: unrestricted subsets succeed at least as often.
  std::cout << "\nAblation: any-cardinality subsets vs exactly m/2:\n";
  Json abl = series_record("info", "T6", "cardinality-ablation");
  abl.set("workload", "any-cardinality subsets vs exactly m/2");
  Json abl_rows = Json::array();
  Table a({"m", "rate (m/2)", "rate (any)"});
  for (std::size_t m : {8u, 12u, 16u}) {
    Rng rng(m * 7331);
    int hits_half = 0, hits_any = 0;
    const double n = std::pow(2.0, static_cast<double>(m));
    const auto window = std::max<Tick>(
        1, static_cast<Tick>(std::log2(n) / n * scale));
    for (int tr = 0; tr < trials; ++tr) {
      std::vector<Tick> v(m);
      for (auto& x : v) {
        x = static_cast<Tick>((1.0 + rng.next_double()) * scale);
      }
      const auto y = static_cast<Tick>(0.75 * static_cast<double>(m) *
                                       scale);
      hits_half +=
          subset_in_range_mitm(v, y - window, y, m / 2).has_value();
      hits_any += subset_in_range_mitm(v, y - window, y).has_value();
    }
    a.add_row({std::to_string(m),
               Table::num(static_cast<double>(hits_half) / trials, 3),
               Table::num(static_cast<double>(hits_any) / trials, 3)});
    Json row = Json::object();
    row.set("m", static_cast<std::uint64_t>(m))
        .set("rate_half", static_cast<double>(hits_half) / trials)
        .set("rate_any", static_cast<double>(hits_any) / trials);
    abl_rows.push(std::move(row));
  }
  a.print(std::cout);
  abl.set("rows", std::move(abl_rows));
  artifact.add(std::move(abl));
  artifact.write();
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
