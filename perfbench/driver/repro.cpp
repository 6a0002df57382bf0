// repro-cold: the whole paper reproduction from a reset memo, no disk cache.
//
// One operation = core::compute_scorecard() plus the five core::figN_csv
// outputs. Every operation starts from core::reset_sweep_cache(), and is
// rejected unless the runner's counters show the work was really done
// (at least kMinEvaluated evaluations) and the outputs match the goldens.

#include "bench.hpp"

#include "core/cache.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/score.hpp"

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {
namespace {

namespace core = armstice::core;

/// Distinct sweep keys of one cold reproduction (scorecard + fig1-fig5, as
/// a one-job reproduction counts them). A run that evaluates fewer was
/// served in part from a warm memo or disk cache.
constexpr long kMinEvaluated = 204;
/// Sweep pool of the timed reproduction: at one job the duplicate
/// evaluations of concurrent batches would not show.
constexpr int kJobs = 2;
/// What the reproduction promises (README, tests/test_score.cpp).
constexpr int kWithin5 = 58;
constexpr int kPoints = 71;
constexpr int kShapes = 11;

struct Repro {
    double seconds = 0;
    core::Scorecard card;
    std::array<std::string, 5> csv;
    core::SweepStats stats;
};

/// One reproduction. `reset` is false only in the guard self-test.
Repro repro_op(Trace& trace, int jobs, bool reset = true) {
    core::set_default_jobs(jobs);
    if (reset) core::reset_sweep_cache();
    const core::SweepStats before = core::sweep_stats();
    Repro r;
    const double t0 = now_s();
    Trace::Scope whole(trace, "core.repro");
    {
        Trace::Scope s(trace, "core.compute_scorecard");
        r.card = core::compute_scorecard();
    }
    {
        Trace::Scope s(trace, "core.fig_csv");
        r.csv[0] = core::fig1_csv(core::run_fig1());
        r.csv[1] = core::fig2_csv(core::run_fig2());
        r.csv[2] = core::fig3_csv(core::run_fig3());
        r.csv[3] = core::fig4_csv(core::run_fig4());
        r.csv[4] = core::fig5_csv(core::run_fig5());
    }
    r.seconds = now_s() - t0;
    r.stats = core::sweep_stats();
    r.stats.points -= before.points;
    r.stats.hits -= before.hits;
    r.stats.misses -= before.misses;
    r.stats.eval_wall_s -= before.eval_wall_s;
    return r;
}

void check_repro(Report& rep, const Repro& r, const std::array<std::string, 5>& golden) {
    rep.check(r.stats.misses >= kMinEvaluated,
              "cold-run guard: only " + std::to_string(r.stats.misses) +
                  " evaluations (need >= " + std::to_string(kMinEvaluated) +
                  "); the memo or a cache dir served the work");
    for (std::size_t i = 0; i < golden.size(); ++i) {
        rep.check(r.csv[i] == golden[i],
                  "fig" + std::to_string(i + 1) + ".csv differs from the golden");
    }
    rep.check(r.card.total_within_5pct() == kWithin5 && r.card.total_points() == kPoints,
              "scorecard reads " + std::to_string(r.card.total_within_5pct()) + "/" +
                  std::to_string(r.card.total_points()) + " within 5%");
    rep.check(r.card.shapes_ok() == kShapes && r.card.shapes_total() == kShapes,
              "scorecard shapes " + std::to_string(r.card.shapes_ok()) + "/" +
                  std::to_string(r.card.shapes_total()));
}

/// Each experiment driver alone, from a reset memo, at one job (the
/// per-artefact spans; their sum is compared with a one-job reproduction).
void profile_artefacts(Trace& trace, Report& rep) {
    struct Driver {
        const char* name;
        void (*run)();
    };
    static const Driver kDrivers[] = {
        {"table3", [] { core::run_table3(); }}, {"table4", [] { core::run_table4(); }},
        {"table5", [] { core::run_table5(); }}, {"fig1", [] { core::run_fig1(); }},
        {"fig2", [] { core::run_fig2(); }},     {"table6", [] { core::run_table6(); }},
        {"fig3", [] { core::run_fig3(); }},     {"table7", [] { core::run_table7(); }},
        {"fig4", [] { core::run_fig4(); }},     {"fig5", [] { core::run_fig5(); }},
        {"table9", [] { core::run_table9(); }}, {"table10", [] { core::run_table10(); }},
    };
    core::set_default_jobs(1);
    double sum = 0;
    for (const auto& d : kDrivers) {
        core::reset_sweep_cache();
        Trace::Scope s(trace, std::string("core.artefact.") + d.name);
        d.run();
        const double dt = s.elapsed();
        rep.values[std::string("core.artefact_s.") + d.name] = dt;
        sum += dt;
    }
    rep.values["core.artefact_sum_s"] = sum;
}

bool read_file(const std::string& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

}  // namespace

int run_repro(const Args& args) {
    const double seconds = static_cast<double>(args.num("seconds", 10));
    const std::string goldens = args.get("goldens", ".");
    const std::string trace_path = args.get("trace", "");
    Report rep;

    std::array<std::string, 5> golden;
    for (std::size_t i = 0; i < golden.size(); ++i) {
        const std::string path = goldens + "/fig" + std::to_string(i + 1) + ".csv";
        if (!read_file(path, golden[i])) rep.fail("cannot read golden " + path);
    }
    core::set_cache_dir("");
    Trace off(false);
    // Guard self-test: warm the memo, then skip the per-operation reset.
    const bool prewarm = args.has("prewarm-memo");
    if (prewarm) repro_op(off, kJobs);
    announce_ready();
    if (args.has("probe") || !rep.ok) {
        std::puts(rep.json().c_str());
        return 0;
    }

    if (trace_path.empty()) {
        std::vector<double> ms;
        std::vector<double> rss;
        const double t_end = now_s() + seconds;
        // At least three operations, so the reported median is a median.
        while (ms.size() < 3 || now_s() < t_end) {
            reset_peak_rss();
            const Repro r = repro_op(off, kJobs, !prewarm);
            rss.push_back(peak_rss_mib());
            ++rep.attempted;
            const std::size_t errors_before = rep.errors.size();
            check_repro(rep, r, golden);
            if (rep.errors.size() != errors_before) ++rep.failed;
            ms.push_back(r.seconds * 1e3);
            if (!rep.ok) break;
        }
        rep.values["op_p50_ms"] = median(ms);
        // Peak of each operation (VmHWM reset before it), median over them.
        rep.values["peak_rss_mib"] = median(rss);
        std::puts(rep.json().c_str());
        return 0;
    }

    // Traced profile. End-to-end numbers never come from here.
    Trace trace(true);
    const Repro plain = repro_op(off, kJobs);
    check_repro(rep, plain, golden);
    const Repro traced = repro_op(trace, kJobs);
    check_repro(rep, traced, golden);
    rep.attempted = 2;
    rep.values["trace.overhead_pct.repro"] =
        100.0 * (traced.seconds - plain.seconds) / plain.seconds;
    rep.values["core.runner.points"] = static_cast<double>(plain.stats.points);
    rep.values["core.runner.evaluated"] = static_cast<double>(plain.stats.misses);
    rep.values["core.runner.memo_hits"] = static_cast<double>(plain.stats.hits);
    rep.values["core.runner.eval_s"] = plain.stats.eval_wall_s;

    profile_artefacts(trace, rep);

    // At one job no two batches run concurrently, so evaluations equal the
    // distinct keys; the difference at kJobs is duplicated work.
    Repro serial;
    {
        Trace::Scope s(trace, "core.scorecard_jobs1");
        serial = repro_op(off, 1);
    }
    check_repro(rep, serial, golden);
    rep.values["core.scorecard_jobs1_s"] = serial.seconds;
    rep.values["core.runner.distinct_keys"] = static_cast<double>(serial.stats.misses);
    rep.values["core.runner.dup_evals"] =
        static_cast<double>(plain.stats.misses - serial.stats.misses);
    if (!trace.write(trace_path)) rep.fail("cannot write trace " + trace_path);
    std::puts(rep.json().c_str());
    return 0;
}

}  // namespace perfbench
