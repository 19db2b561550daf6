// T0 — the folklore baseline: O(eps^-1) per update.
//
// Series: mean/ratio/max cost of both folklore variants against eps on the
// [eps, 2eps) churn regime and on the fragmenter (the pigeonhole worst
// case).  Shape to reproduce: cost grows like (1/eps)^~1 on the hostile
// workloads, and the windowed variant's max cost tracks 3/eps.
#include "bench_common.h"
#include "workload/adversarial.h"
#include "workload/churn.h"

namespace {

using namespace memreal;
using namespace memreal::bench;

constexpr Tick kCap = Tick{1} << 50;

void run_tables() {
  const bool fast = fast_mode();
  const std::size_t updates = fast ? 1'000 : 20'000;
  std::vector<double> eps_values{1.0 / 16, 1.0 / 32, 1.0 / 64,
                                 1.0 / 128, 1.0 / 256};
  if (!fast) {
    eps_values.push_back(1.0 / 512);
    eps_values.push_back(1.0 / 1024);
  }

  print_header("T0 — folklore baseline",
               "Claim (folklore bound): inserts cost O(eps^-1), deletes are "
               "free; amortized O(eps^-1).");

  BenchJson artifact("folklore");
  artifact.set_seeds({1, 2, 3});

  SequenceFactory band_seq = [updates](double eps, std::uint64_t seed) {
    return make_simple_regime(kCap, eps, updates, seed);
  };
  SequenceFactory frag_seq = [fast](double eps, std::uint64_t seed) {
    FragmenterConfig c;
    c.capacity = kCap;
    c.eps = eps;
    c.rounds = fast ? 2 : 6;
    c.seed = seed;
    return make_fragmenter(c);
  };

  for (const char* name : {"folklore-compact", "folklore-windowed"}) {
    ExperimentConfig c;
    c.allocator = name;
    c.make_sequence = band_seq;
    c.eps_values = eps_values;
    c.seeds = 3;
    emit_eps_series(artifact,
                    {"T0", std::string("churn/") + name, name,
                     "churn with sizes in [eps, 2eps)", "power"},
                    run_experiment(c));
  }

  for (const char* name : {"folklore-compact", "folklore-windowed"}) {
    ExperimentConfig c;
    c.allocator = name;
    c.make_sequence = frag_seq;
    c.eps_values = eps_values;
    c.seeds = 3;
    const auto rows = run_experiment(c);
    emit_eps_series(artifact,
                    {"T0", std::string("fragmenter/") + name, name,
                     "fragmenter (pigeonhole worst case)", "power"},
                    rows);
    std::cout << "windowed bound check: max cost vs 3/eps + 1:\n";
    for (const auto& r : rows) {
      std::cout << "  1/eps = " << Table::num(1 / r.eps, 5) << ": max "
                << Table::num(r.max_cost, 4) << " <= "
                << Table::num(3.0 / r.eps + 1.0, 5) << "\n";
    }
  }
  artifact.write();
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
