#pragma once
// Shared plumbing of the benchmark driver: wall clock, span recorder,
// percentiles, process memory, and the one-line JSON report that run.py
// reads. The driver only calls armstice's public functions; nothing here is
// linked into the library.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since a process-wide origin (the first call).
double now_s();

/// Quantile q in [0,1] of `v` by linear interpolation between order
/// statistics (Python's statistics.quantiles "inclusive" method). 0 when empty.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// VmHWM of this process in MiB; 0 when unreadable.
double peak_rss_mib();
/// Reset VmHWM to the current RSS (Linux clear_refs), so the next
/// peak_rss_mib() reads the peak of what ran in between.
void reset_peak_rss();

/// One span: layer-qualified name, start/end in now_s() seconds, and the
/// index of the enclosing span (-1 at top level).
struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
};

/// In-memory span recorder, used from the driver's main thread only.
/// Disabled recorders cost one branch per call. Spans opened through Scope
/// nest; add() records a span measured elsewhere (e.g. by a client thread)
/// under the innermost open Scope.
class Trace {
public:
    explicit Trace(bool enabled) : enabled_(enabled) {}
    [[nodiscard]] bool enabled() const { return enabled_; }

    class Scope {
    public:
        Scope(Trace& t, std::string name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        /// Seconds since the scope opened (measured even when disabled).
        [[nodiscard]] double elapsed() const { return now_s() - start_; }

    private:
        Trace& t_;
        int index_ = -1;
        double start_ = 0;
    };

    /// Record a finished span under the innermost open Scope.
    void add(const std::string& name, double start, double end);
    /// Write every span as a JSON array to `path`. False on I/O failure.
    bool write(const std::string& path) const;

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// The driver's report: named numbers plus a verdict. Printed as the last
/// stdout line; run.py turns it into the benchmark's metrics.
struct Report {
    bool ok = true;
    std::vector<std::string> errors;
    long attempted = 0;
    long failed = 0;
    std::map<std::string, double> values;

    /// Record a failed check; the run is then reported as incorrect.
    void fail(const std::string& why);
    void check(bool cond, const std::string& why) {
        if (!cond) fail(why);
    }
    [[nodiscard]] std::string json() const;
};

/// Command-line options of one driver subcommand: "--key value" pairs.
class Args {
public:
    Args(int argc, char** argv, int first);
    [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
    [[nodiscard]] long num(const std::string& key, long fallback) const;
    [[nodiscard]] bool has(const std::string& key) const { return kv_.count(key) != 0; }

private:
    std::map<std::string, std::string> kv_;
};

/// Print "ready <seconds>" on stdout: the end of set-up, with the set-up's
/// in-process time (from the first static initialiser). run.py stamps its
/// own spawn-to-ready time when it reads the line.
void announce_ready();

// Subcommands (one per workload family).
int run_repro(const Args& args);
int run_kernels(const Args& args);
int run_serve(const Args& args);

}  // namespace perfbench
