// T5 — Theorem 6.1: RSUM handles delta-random-item sequences at expected
// O(log eps^-1) cost, with strategy computation in O(eps^-1/2) time.
//
// Shape to reproduce: mean cost grows linearly in log2(1/eps) (not
// polynomially in 1/eps), and the measured decision time per update scales
// like 2^{m/2} ~ eps^-1/2.
#include "bench_common.h"
#include "workload/random_item.h"

namespace {

using namespace memreal;
using namespace memreal::bench;

constexpr Tick kCap = Tick{1} << 50;

void run_tables() {
  const bool fast = fast_mode();
  const std::size_t pairs = fast ? 1'000 : 10'000;

  print_header("T5 — Theorem 6.1 (RSUM)",
               "Claim: delta-random-item sequences => expected update cost "
               "O(log eps^-1); strategy computable in O(eps^-1/2) time.");

  std::vector<double> eps_values{1.0 / 256,  1.0 / 1024,
                                 1.0 / 4096, 1.0 / 16384};
  if (!fast) eps_values.push_back(1.0 / 65536);

  // delta = eps^{3/4} (poly(eps), small-delta regime at these eps).
  SequenceFactory seq = [pairs](double eps, std::uint64_t seed) {
    RandomItemConfig c;
    c.capacity = kCap;
    c.eps = eps;
    c.delta = 0.0;  // default eps^{3/4}
    c.churn_pairs = pairs;
    c.seed = seed;
    return make_random_item_sequence(c);
  };

  BenchJson artifact("rsum");
  artifact.set_seeds({1, 2, 3});

  ExperimentConfig c;
  c.allocator = "rsum";
  c.make_sequence = seq;
  c.eps_values = eps_values;
  c.seeds = 3;
  c.audit_every = 1024;
  const auto rows = run_experiment(c);
  emit_eps_series(artifact,
                  {"T5", "random-item/rsum", "rsum",
                   "delta-random sequences (delta = eps^3/4)", "both"},
                  rows);
  std::cout << "(log model should fit with r^2 ~ 1 and the power exponent "
               "should be near 0: cost is logarithmic, not polynomial)\n";

  // Folklore comparison on the same sequences.
  ExperimentConfig fc = c;
  fc.allocator = "folklore-compact";
  emit_eps_series(artifact,
                  {"T5", "random-item/folklore-compact", "folklore-compact",
                   "the same delta-random sequences", "none"},
                  run_experiment(fc));

  // Decision-time scaling: meet-in-the-middle is Theta(2^{m/2} * m) with
  // m = 2*ceil(log2(1/eps)/2), i.e. ~eps^-1/2 per compatibility check.
  std::cout << "\nDecision time per update (us) vs eps^-1/2 (Theorem 6.1 "
               "implementation lemma):\n";
  Table t({"1/eps", "m", "decide_us/update", "decide_us normalized by "
           "eps^-1/2"});
  for (const auto& r : rows) {
    const auto m =
        2 * static_cast<std::size_t>(std::ceil(std::log2(1 / r.eps) / 2));
    const double norm = std::sqrt(1.0 / r.eps);
    t.add_row({Table::num(1 / r.eps, 6), std::to_string(m),
               Table::num(r.decision_us_per_update, 4),
               Table::num(r.decision_us_per_update / norm * 1000, 4)});
  }
  t.print(std::cout);

  // Big-delta regime (Lemma 6.8): delta > eps/4.
  std::cout << "\nLemma 6.8 regime (delta > eps/4):\n";
  SequenceFactory big_seq = [fast](double eps, std::uint64_t seed) {
    RandomItemConfig rc;
    rc.capacity = kCap;
    rc.eps = eps;
    rc.delta = eps;  // delta = eps > eps/4
    rc.churn_pairs = fast ? 500 : 4'000;
    rc.seed = seed;
    return make_random_item_sequence(rc);
  };
  ExperimentConfig bc;
  bc.allocator = "rsum";
  bc.make_sequence = big_seq;
  bc.eps_values = {1.0 / 64, 1.0 / 256, 1.0 / 1024};
  bc.seeds = 3;
  bc.audit_every = 1024;
  // delta must be forwarded to the allocator too.
  // (run per eps since delta varies)
  Json big = series_record("info", "T5", "big-delta");
  big.set("workload", "Lemma 6.8 regime (delta = eps > eps/4)");
  Json big_rows = Json::array();
  Table bt({"1/eps", "delta", "mean_cost", "max_cost"});
  for (double eps : bc.eps_values) {
    ExperimentConfig one = bc;
    one.eps_values = {eps};
    one.delta = eps;
    const auto r = run_experiment(one);
    bt.add_row({Table::num(1 / eps, 5), Table::num(eps, 4),
                Table::num(r[0].mean_cost, 4), Table::num(r[0].max_cost, 4)});
    Json row = Json::object();
    row.set("inv_eps", 1.0 / eps)
        .set("delta", eps)
        .set("mean_cost", r[0].mean_cost)
        .set("max_cost", r[0].max_cost);
    big_rows.push(std::move(row));
  }
  bt.print(std::cout);
  big.set("rows", std::move(big_rows));
  artifact.add(std::move(big));
  artifact.write();
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
