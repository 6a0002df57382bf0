// The reproduction scorecard: every published number vs the model, plus
// the qualitative findings, in one table. The capstone artefact of the
// reproduction (see EXPERIMENTS.md for per-table discussion).

#include "bench_common.hpp"

#include "core/runner.hpp"
#include "core/score.hpp"

namespace {

void BM_FullScorecard(benchmark::State& state) {
    // The scorecard re-runs the entire evaluation; this measures the cost
    // of reproducing the paper end to end. main() has already computed the
    // scorecard, so the memo is dropped first: without the reset this would
    // time a cache lookup.
    for (auto _ : state) {
        armstice::core::reset_sweep_cache();
        benchmark::DoNotOptimize(armstice::core::compute_scorecard().total_points());
    }
}
BENCHMARK(BM_FullScorecard)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

int main(int argc, char** argv) {
    armstice::benchx::init(argc, argv);
    const auto card = armstice::core::compute_scorecard();
    return armstice::benchx::run(argc, argv, armstice::core::render_scorecard(card));
}
