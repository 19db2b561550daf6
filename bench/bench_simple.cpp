// T1 — Theorem 3.1: SIMPLE achieves amortized O(eps^-2/3) on items with
// sizes in [eps, 2eps); folklore pays ~eps^-1 on the same workload.
//
// Shape to reproduce: SIMPLE's fitted exponent ~2/3 (clearly below
// folklore's), and the absolute costs cross in SIMPLE's favour as eps
// shrinks.
#include "bench_common.h"
#include "workload/churn.h"

namespace {

using namespace memreal;
using namespace memreal::bench;

constexpr Tick kCap = Tick{1} << 50;

void run_tables() {
  const bool fast = fast_mode();
  const std::size_t updates = fast ? 1'000 : 20'000;
  std::vector<double> eps_values{1.0 / 16,  1.0 / 32,  1.0 / 64,
                                 1.0 / 128, 1.0 / 256, 1.0 / 512};
  if (!fast) {
    eps_values.push_back(1.0 / 1024);
    eps_values.push_back(1.0 / 2048);
  }

  print_header(
      "T1 — Theorem 3.1 (SIMPLE)",
      "Claim: sizes in [eps, 2eps) => amortized update cost O(eps^-2/3); "
      "folklore is Theta(eps^-1) worst case.");

  BenchJson artifact("simple");
  artifact.set_seeds({1, 2, 3});

  ExperimentConfig c;
  c.make_sequence = [updates](double eps, std::uint64_t seed) {
    return make_simple_regime(kCap, eps, updates, seed);
  };
  c.eps_values = eps_values;
  c.seeds = 3;
  const auto result = run_comparison(c, {"folklore-compact", "simple"});

  std::cout << "\nMean cost per update (churn, sizes in [eps, 2eps)):\n";
  result.cost_table().print(std::cout);
  result.exponent_table().print(std::cout);

  for (std::size_t i = 0; i < result.allocators.size(); ++i) {
    emit_eps_series(artifact,
                    {"T1", "churn-band/" + result.allocators[i],
                     result.allocators[i],
                     "churn with sizes in [eps, 2eps)", "power"},
                    result.rows[i]);
  }

  // Theorem-bound check: SIMPLE mean cost under a generous constant times
  // eps^-2/3 at every eps.
  std::cout << "\nTheorem 3.1 bound check (mean cost vs 12 * eps^-2/3):\n";
  for (const auto& r : result.rows[1]) {
    const double bound = 12.0 * std::pow(1.0 / r.eps, 2.0 / 3.0);
    std::cout << "  1/eps = " << Table::num(1 / r.eps, 5) << ": "
              << Table::num(r.mean_cost, 4) << (r.mean_cost <= bound
                                                    ? "  <=  "
                                                    : "  !!EXCEEDS!!  ")
              << Table::num(bound, 5) << "\n";
  }
  artifact.write();
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
