// The serve workloads: an armstice_serve daemon (started by run.py with 2
// workers and a fresh, empty --cache-dir) driven in an open loop.
//
// Requests go out on a seeded Poisson schedule over kConns connections;
// each is timed from when it was due, so a stalled daemon also delays the
// requests queued behind it. A fixed share of requests asks for
// a point that the daemon admits and then fails on a compute thread; those
// must come back as typed errors and are kept out of the latency classes.
//
//   hit:  the serve-hit workload. Five ten-point sweeps are computed through
//         the daemon during set-up; every timed request is a Zipf draw of
//         one of them, served wholly from completed entries.
//   cold: the serve part of the layer profile. Single-point requests: half
//         introduce a key never asked before (some as bursts of identical
//         requests, which coalesce), the rest are Zipf repeats.
//
// After the timed phase the memo of this process is reset and every served
// payload is compared byte for byte against serve::batch_eval.

#include "bench.hpp"

#include "apps/common.hpp"
#include "arch/cost_model.hpp"
#include "core/app_codecs.hpp"
#include "core/cache.hpp"
#include "core/runner.hpp"
#include "serve/catalog.hpp"
#include "serve/client.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

namespace serve = armstice::serve;
namespace core = armstice::core;
namespace util = armstice::util;

/// The five paper systems and the ranks per node used for them (full node,
/// capped at 48 so that 16 nodes stay within 768 ranks).
struct System {
    const char* name;
    int rpn;
};
constexpr System kSystems[] = {
    {"A64FX", 48}, {"ARCHER", 24}, {"Cirrus", 36}, {"EPCC NGIO", 48}, {"Fulhame", 48}};
/// Generator connections (no more than the baseline host's 4 vCPUs).
constexpr int kConns = 4;
/// Latency limit of the goodput count.
constexpr double kLimitMs = 250.0;

/// Every valid key the generator may ask for, the same for every seed so
/// that runs differ in order and timing but not in the work they ask for:
/// apps x systems x ten node counts in 1-16, each with one of four config
/// variants (half or full rank density, small or large per-app size).
std::vector<serve::PointSpec> key_universe() {
    constexpr int kNodes[] = {1, 2, 3, 4, 5, 6, 8, 10, 12, 16};
    std::vector<serve::PointSpec> out;
    int n = 0;
    for (const System& sys : kSystems) {
        for (const int nodes : kNodes) {
            for (const char* app : {"minikab", "nekbone", "cosa"}) {
                const int variant = n++ % 4;
                const int rpn = variant % 2 == 0 ? sys.rpn : sys.rpn / 2;
                const bool big = variant >= 2;
                const std::string a = app;
                if (a == "minikab") {
                    out.push_back(
                        {a, sys.name, nodes, nodes * rpn, 1, big ? "iters=80" : "iters=40"});
                } else if (a == "nekbone") {
                    out.push_back({a, sys.name, nodes, nodes * rpn, 1,
                                   big ? "elems=100;iters=40" : "elems=50;iters=20"});
                } else {
                    out.push_back({a, sys.name, nodes, rpn, 1, big ? "iters=40" : "iters=20"});
                }
            }
        }
    }
    return out;
}

/// Requests that admission accepts and a compute thread then fails, so the
/// right answer is a typed per-point error:
///  * oversubscribed placements, more ranks per node than ARCHER's 24 cores;
///  * minikab with a non-default solver: canonicalize() writes the solver as
///    "jacobi-pcg"/"pipelined-cg", which the catalog's own parser rejects
///    when eval_point re-reads the canonical config (a known defect).
/// The check compares against batch evaluation of the same key, so a fix of
/// either defect turns that key's expected answer into a payload.
std::vector<serve::PointSpec> invalid_keys() {
    return {{"minikab", "ARCHER", 1, 32, 1, "iters=40"},
            {"minikab", "ARCHER", 2, 64, 1, "iters=40"},
            {"cosa", "ARCHER", 1, 32, 1, "iters=20"},
            {"minikab", "A64FX", 2, 96, 1, "iters=40;solver=jacobi_pcg"},
            {"minikab", "Fulhame", 1, 48, 1, "iters=40;solver=pipelined_cg"}};
}

enum class Kind { kValid, kInvalid };

struct Request {
    double due = 0;  ///< seconds after the timed phase starts
    Kind kind = Kind::kValid;
    /// The request's points: indices into the valid keys, or one index
    /// into invalid_keys().
    std::vector<std::size_t> keys;
};

struct Outcome {
    double lag_ms = 0;
    double latency_ms = 0;
    bool done = false;  ///< a reply with every point arrived
    bool retry = false;
    std::vector<serve::PointResult> points;
    std::string error;
};

/// Zipf(s = 1) rank in [0, n): weight 1/(r+1).
std::size_t zipf(util::Rng& rng, std::size_t n) {
    double h = 0;
    for (std::size_t r = 0; r < n; ++r) h += 1.0 / static_cast<double>(r + 1);
    double u = rng.next_double() * h;
    for (std::size_t r = 0; r < n; ++r) {
        u -= 1.0 / static_cast<double>(r + 1);
        if (u <= 0) return r;
    }
    return n - 1;
}

struct Workload {
    std::vector<serve::PointSpec> keys;  ///< valid keys, in introduction order
    std::vector<Request> schedule;
    std::size_t prefill = 0;  ///< hit mode: keys computed during set-up
};

/// Hit mode's sweeps: for one app on each system, the ten node counts of
/// key_universe() (a scaling curve, as Figs 2 and 4 ask for), most popular
/// first by descending rank total. Hit latency grows with payload size
/// (~50 B per rank), so the popularity order is fixed rather than seeded:
/// the seed's Zipf counts must not decide how heavy the median request is.
std::vector<std::vector<serve::PointSpec>> hit_sweeps() {
    const std::vector<serve::PointSpec> all = key_universe();
    const char* apps[] = {"minikab", "nekbone", "cosa"};
    std::vector<std::vector<serve::PointSpec>> sweeps;
    for (std::size_t s = 0; s < std::size(kSystems); ++s) {
        std::vector<serve::PointSpec> sweep;
        for (const auto& k : all) {
            if (k.system == kSystems[s].name && k.app == apps[s % 3]) sweep.push_back(k);
        }
        sweeps.push_back(sweep);
    }
    // cosa's spec.ranks is ranks per node; the other apps' is the total.
    auto ranks = [](const std::vector<serve::PointSpec>& sweep) {
        long n = 0;
        for (const auto& p : sweep) n += p.app == "cosa" ? p.nodes * p.ranks : p.ranks;
        return n;
    };
    std::stable_sort(sweeps.begin(), sweeps.end(),
                     [&](const auto& a, const auto& b) { return ranks(a) > ranks(b); });
    return sweeps;
}

template <class T>
void shuffle(std::vector<T>& v, util::Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
}

/// The seeded traffic: Poisson arrivals at `rate` for `seconds`.
Workload make_workload(std::uint64_t seed, const std::string& mode, double rate,
                       double seconds) {
    constexpr double kInvalidShare = 0.03;
    constexpr double kFreshShare = 0.5;   // cold mode: valid requests introducing a key
    constexpr double kBurstShare = 0.15;  // fresh keys asked by three requests at once
    constexpr int kBurst = 3;

    util::Rng rng(seed);
    Workload w;
    std::size_t sweep_len = 0;
    if (mode == "hit") {
        for (const auto& sweep : hit_sweeps()) {
            w.keys.insert(w.keys.end(), sweep.begin(), sweep.end());
            sweep_len = sweep.size();
        }
        w.prefill = w.keys.size();
    } else {
        w.keys = key_universe();
        shuffle(w.keys, rng);  // introduction order
    }

    std::vector<double> due;
    for (double t = -std::log(1.0 - rng.next_double()) / rate; t < seconds;
         t += -std::log(1.0 - rng.next_double()) / rate) {
        due.push_back(t);
    }
    std::vector<bool> invalid(due.size());
    std::vector<std::size_t> valid;
    for (std::size_t i = 0; i < due.size(); ++i) {
        invalid[i] = rng.next_double() < kInvalidShare;
        if (!invalid[i]) valid.push_back(i);
    }
    // Cold mode: exactly n valid slots introduce a key, the first one
    // always; the rest are Zipf repeats of keys already introduced.
    std::vector<bool> fresh(due.size(), false);
    if (mode == "cold" && !valid.empty()) {
        const std::size_t n = std::min(
            w.keys.size(), static_cast<std::size_t>(std::lround(kFreshShare * valid.size())));
        std::vector<std::size_t> pick(valid.begin() + 1, valid.end());
        shuffle(pick, rng);
        fresh[valid[0]] = true;
        for (std::size_t i = 0; i + 1 < n && i < pick.size(); ++i) fresh[pick[i]] = true;
    }

    std::size_t introduced = w.prefill;
    const std::size_t n_invalid = invalid_keys().size();
    for (std::size_t i = 0; i < due.size(); ++i) {
        Request r{due[i], Kind::kValid, {}};
        if (invalid[i]) {
            r.kind = Kind::kInvalid;
            r.keys = {rng.next_below(n_invalid)};
        } else if (mode == "hit") {
            const std::size_t sweep = zipf(rng, w.keys.size() / sweep_len);
            for (std::size_t k = 0; k < sweep_len; ++k) r.keys.push_back(sweep * sweep_len + k);
        } else if (fresh[i]) {
            r.keys = {introduced++};
            if (rng.next_double() < kBurstShare) {
                for (int b = 1; b < kBurst; ++b) w.schedule.push_back(r);
            }
        } else {
            // Zipf over keys already introduced, the earliest most popular.
            r.keys = {zipf(rng, introduced)};
        }
        w.schedule.push_back(r);
    }
    w.keys.resize(introduced);
    return w;
}

}  // namespace

int run_serve(const Args& args) {
    const std::string socket = args.get("socket", "");
    const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
    const double seconds = static_cast<double>(args.num("seconds", 10));
    const std::string mode = args.get("mode", "cold");
    // Requests per second; a hit request carries a ten-point sweep.
    const double rate = mode == "hit" ? 50.0 : 20.0;
    const std::string trace_path = args.get("trace", "");
    const std::string work = args.get("work", ".");
    const std::string daemon_cache = args.get("daemon-cache", "");
    Report rep;
    if (mode != "cold" && mode != "hit") throw std::runtime_error("--mode is cold or hit");

    const Workload w = make_workload(seed, mode, rate, seconds);
    const std::vector<serve::PointSpec> invalid = invalid_keys();
    std::vector<serve::Client> clients;
    for (int c = 0; c < kConns; ++c) clients.push_back(serve::Client::connect_unix_path(socket));
    // Hit mode: compute the key set through the daemon, one key at a time so
    // that no two computations overlap and the daemon's peak RSS does not
    // depend on which ones would.
    for (std::size_t k = 0; k < w.prefill; ++k) {
        const serve::Client::SweepReply reply = clients[0].sweep({w.keys[k]});
        rep.check(!reply.retry && reply.points.size() == 1 && reply.points[0].ok,
                  "set-up request refused");
    }
    announce_ready();
    if (args.has("probe") || !rep.ok) {
        std::puts(rep.json().c_str());
        return 0;
    }

    // ---- timed phase: open loop ------------------------------------------
    std::vector<Outcome> out(w.schedule.size());
    std::atomic<std::size_t> next{0};
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
    const double t0_s = now_s() + 0.02;  // t0 on the span clock
    auto ms_since = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kConns; ++c) {
        threads.emplace_back([&, c] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= w.schedule.size()) return;
                const Request& r = w.schedule[i];
                const Clock::time_point due =
                    t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(r.due));
                // Sleep to just before the due time, then spin: the
                // generator's own wake-up delay is not the daemon's latency.
                std::this_thread::sleep_until(due - std::chrono::microseconds(300));
                while (Clock::now() < due) {
                }
                Outcome& o = out[i];
                o.lag_ms = ms_since(due, Clock::now());
                std::vector<serve::PointSpec> specs;
                for (const std::size_t k : r.keys) {
                    specs.push_back(r.kind == Kind::kValid ? w.keys[k] : invalid[k]);
                }
                try {
                    serve::Client::SweepReply reply =
                        clients[static_cast<std::size_t>(c)].sweep(specs);
                    o.retry = reply.retry;
                    o.done = !reply.retry && reply.points.size() == specs.size();
                    o.points = std::move(reply.points);
                } catch (const std::exception& e) {
                    o.error = e.what();
                }
                o.latency_ms = ms_since(due, Clock::now());
            }
        });
    }
    for (auto& t : threads) t.join();
    const double wall_s = ms_since(t0, Clock::now()) / 1e3;
    const serve::StatsResult stats = clients[0].stats();

    // ---- classify and check ---------------------------------------------
    // Reference bytes for every valid key, from a reset memo of this process.
    core::set_cache_dir("");
    core::reset_sweep_cache();
    std::vector<std::string> reference;
    const int jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    for (const auto& r : serve::batch_eval(w.keys, jobs)) {
        reference.push_back(serve::encode_result(r));
    }

    // Invalid keys, one at a time: batch evaluation either throws (expect a
    // typed error) or yields the payload the daemon must serve.
    std::vector<std::string> invalid_reference(invalid.size());
    std::vector<bool> invalid_throws(invalid.size(), false);
    for (std::size_t k = 0; k < invalid.size(); ++k) {
        try {
            invalid_reference[k] =
                serve::encode_result(serve::batch_eval({invalid[k]}, 1).at(0));
        } catch (const std::exception&) {
            invalid_throws[k] = true;
        }
    }

    std::vector<double> cold_ms, hit_ms, invalid_ms, lag_ms;
    std::vector<bool> seen(w.keys.size(), false);
    long good = 0;
    long failed = 0;
    Trace trace(!trace_path.empty());
    for (std::size_t i = 0; i < out.size(); ++i) {
        const Request& r = w.schedule[i];
        const Outcome& o = out[i];
        lag_ms.push_back(o.lag_ms);
        const double start = t0_s + r.due;
        const double end = start + o.latency_ms / 1e3;
        if (r.kind == Kind::kInvalid) {
            const std::size_t k = r.keys[0];
            const bool as_batch =
                o.done && (invalid_throws[k] ? !o.points[0].ok && !o.points[0].payload.empty()
                                             : o.points[0].ok &&
                                                   o.points[0].payload == invalid_reference[k]);
            rep.check(as_batch,
                      "invalid request " + invalid[k].app + " on " + invalid[k].system +
                          " was not answered as batch evaluation answers it");
            invalid_ms.push_back(o.latency_ms);
            trace.add("serve.request.invalid", start, end);
            continue;
        }
        ++rep.attempted;
        bool ok = o.done;
        bool hit = true;
        for (std::size_t j = 0; ok && j < r.keys.size(); ++j) {
            const serve::PointResult& p = o.points[j];
            const std::size_t k = r.keys[j];
            seen[k] = true;
            ok = p.ok && p.index == j;
            rep.check(!ok || p.payload == reference[k],
                      "served payload differs from batch_eval for " + w.keys[k].app + " on " +
                          w.keys[k].system);
            hit = hit && p.origin == serve::PointOrigin::kCached;
        }
        if (!ok) {
            ++failed;
            if (failed <= 3) {
                rep.fail("request " + std::to_string(i) + " failed: " +
                         (o.retry ? "RETRY_LATER" : o.error.empty() ? "point error" : o.error));
            }
            continue;
        }
        (hit ? hit_ms : cold_ms).push_back(o.latency_ms);
        if (o.latency_ms <= kLimitMs) ++good;
        trace.add(hit ? "serve.request.hit" : "serve.request.cold", start, end);
    }
    rep.failed = failed;
    const long distinct = std::count(seen.begin(), seen.end(), true);
    const long computed_expected = static_cast<long>(std::max<std::size_t>(w.prefill, distinct));
    rep.check(static_cast<long>(stats.computed) == computed_expected,
              "cold-run guard: daemon computed " + std::to_string(stats.computed) +
                  " results for " + std::to_string(computed_expected) +
                  " distinct valid keys");
    if (mode == "cold") rep.check(!cold_ms.empty(), "no cold requests");
    if (mode == "hit") {
        rep.check(!hit_ms.empty() && cold_ms.empty(), "hit mode saw cold requests");
    }

    rep.values["op_p50_ms"] = median(mode == "hit" ? hit_ms : cold_ms);
    rep.values["serve.cold_p50_ms"] = median(cold_ms);
    rep.values["serve.cold_p90_ms"] = quantile(cold_ms, 0.9);
    rep.values["serve.hit_p50_ms"] = median(hit_ms);
    rep.values["serve.hit_p90_ms"] = quantile(hit_ms, 0.9);
    rep.values["serve.goodput_rps"] = static_cast<double>(good) / wall_s;
    rep.values["serve.fail_ratio"] =
        rep.attempted > 0 ? static_cast<double>(failed) / static_cast<double>(rep.attempted) : 0;
    rep.values["serve.invalid_ms_p50"] = median(invalid_ms);
    rep.values["serve.gen_lag_ms_p90"] = quantile(lag_ms, 0.9);
    rep.values["serve.points"] = static_cast<double>(stats.points);
    rep.values["serve.computed"] = static_cast<double>(stats.computed);
    rep.values["serve.cache_hits"] = static_cast<double>(stats.cache_hits);
    rep.values["serve.coalesced"] = static_cast<double>(stats.coalesced);
    rep.values["serve.retries"] = static_cast<double>(stats.retries);
    rep.values["serve.point_errors"] = static_cast<double>(stats.point_errors);
    rep.values["serve.compute_per_key"] =
        static_cast<double>(stats.computed) / static_cast<double>(computed_expected);
    rep.values["serve.hit_ratio"] =
        stats.points > 0 ? static_cast<double>(stats.cache_hits) / static_cast<double>(stats.points)
                         : 0;
    if (!daemon_cache.empty()) {
        std::error_code ec;
        long files = 0;
        for (const auto& e : std::filesystem::directory_iterator(daemon_cache, ec)) {
            files += e.is_regular_file() ? 1 : 0;
        }
        rep.values["core.cache.daemon_entries"] = static_cast<double>(files);
    }

    if (trace.enabled()) {
        // apps + sim: each distinct key evaluated directly, uncached.
        std::map<std::string, std::vector<double>> point_ms;
        std::vector<double> infeasible_ms;
        double ranks = 0, classes = 0, splits = 0;
        // Plus one point known to be capacity-infeasible (768 minikab ranks
        // on A64FX), so every profile times the infeasible path.
        std::vector<serve::PointSpec> profiled = w.keys;
        profiled.push_back({"minikab", "A64FX", 16, 768, 1, "iters=40"});
        for (const auto& spec : profiled) {
            const serve::PointSpec canon = serve::canonicalize(spec);
            Trace::Scope s(trace, "apps.eval_point." + canon.app);
            const armstice::apps::AppResult r = serve::eval_point(canon);
            const double ms = s.elapsed() * 1e3;
            if (!r.feasible) {
                infeasible_ms.push_back(ms);
                continue;
            }
            point_ms[canon.app].push_back(ms);
            ranks += static_cast<double>(r.run.ranks.size());
            classes += r.run.collapse_classes;
            splits += r.run.collapse_splits;
        }
        for (const auto& app : serve::served_apps()) {
            rep.values["apps.point_ms_p50." + app] = median(point_ms[app]);
            rep.values["apps.point_ms_p90." + app] = quantile(point_ms[app], 0.9);
        }
        rep.values["apps.infeasible_ms_p50"] = median(infeasible_ms);
        rep.values["apps.infeasible_points"] = static_cast<double>(infeasible_ms.size());
        rep.values["sim.ranks"] = ranks;
        rep.values["sim.classes"] = classes;
        rep.values["sim.splits"] = splits;
        rep.values["sim.classes_per_rank"] = ranks > 0 ? classes / ranks : 0;

        // Result codec and CacheStore on the served payloads.
        std::vector<double> enc_us, dec_us, store_ms, load_ms;
        const std::string dir = work + "/cache-probe";
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        core::CacheStore store(dir, armstice::arch::kModelVersion);
        for (std::size_t k = 0; k < w.keys.size(); ++k) {
            const std::string& payload = reference[k];
            const armstice::apps::AppResult decoded = serve::decode_result(payload);
            rep.check(serve::encode_result(decoded) == payload, "codec round trip");
            constexpr int kReps = 20;
            std::size_t sink = 0;  // keeps the timed calls' results live
            double t = now_s();
            for (int i = 0; i < kReps; ++i) sink += serve::encode_result(decoded).size();
            enc_us.push_back((now_s() - t) * 1e6 / kReps);
            t = now_s();
            for (int i = 0; i < kReps; ++i) sink += serve::decode_result(payload).run.ranks.size();
            dec_us.push_back((now_s() - t) * 1e6 / kReps);
            rep.check(sink > 0, "codec produced nothing");
            const std::string key =
                std::string(core::ResultTraits<armstice::apps::AppResult>::tag) + "|" +
                serve::to_sweep_point(serve::canonicalize(w.keys[k])).key();
            {
                Trace::Scope s(trace, "core.cache.store");
                store.store(key, payload);
                store_ms.push_back(s.elapsed() * 1e3);
            }
            {
                Trace::Scope s(trace, "core.cache.load");
                const auto back = store.load(key);
                load_ms.push_back(s.elapsed() * 1e3);
                rep.check(back && *back == payload, "CacheStore load differs from store");
            }
        }
        const core::CacheStoreStats cs = store.stats();
        rep.values["core.cache.stores"] = static_cast<double>(cs.stores);
        rep.values["core.cache.store_failures"] = static_cast<double>(cs.store_failures);
        rep.values["core.cache.store_ms_p50"] = median(store_ms);
        rep.values["core.cache.load_ms_p50"] = median(load_ms);
        rep.values["serve.codec.encode_us_p50"] = median(enc_us);
        rep.values["serve.codec.decode_us_p50"] = median(dec_us);
        std::filesystem::remove_all(dir);
        if (!trace.write(trace_path)) rep.fail("cannot write trace " + trace_path);
    }
    std::puts(rep.json().c_str());
    return 0;
}

}  // namespace perfbench
