#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

double now_s() {
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

namespace {
// Pins the clock origin before any other static initialiser of the linked
// libraries runs (priority 101 sorts first), so announce_ready()'s time
// covers the program's own start-up as well as main() up to "ready".
[[gnu::constructor(101)]] void pin_origin() { now_s(); }
}  // namespace

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
        }
    }
    return 0;
}

void reset_peak_rss() {
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
}

Trace::Scope::Scope(Trace& t, std::string name) : t_(t), start_(now_s()) {
    if (!t_.enabled_) return;
    index_ = static_cast<int>(t_.spans_.size());
    t_.spans_.push_back({std::move(name), start_, 0,
                         t_.open_.empty() ? -1 : t_.open_.back()});
    t_.open_.push_back(index_);
}

Trace::Scope::~Scope() {
    if (index_ < 0) return;
    t_.spans_[static_cast<std::size_t>(index_)].end = now_s();
    t_.open_.pop_back();
}

void Trace::add(const std::string& name, double start, double end) {
    if (!enabled_) return;
    spans_.push_back({name, start, end, open_.empty() ? -1 : open_.back()});
}

bool Trace::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                     "\"parent\":%d}%s\n",
                     i, s.name.c_str(), s.start, s.end, s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

void Report::fail(const std::string& why) {
    ok = false;
    errors.push_back(why);
}

namespace {

std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

}  // namespace

std::string Report::json() const {
    std::string out = "{\"ok\":";
    out += ok ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
        out += (i ? ",\"" : "\"") + escape(errors[i]) + "\"";
    }
    out += "],\"values\":{";
    bool first = true;
    char buf[64];
    for (const auto& [k, v] : values) {
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        out += (first ? "\"" : ",\"") + escape(k) + "\":" + buf;
        first = false;
    }
    out += "}}";
    return out;
}

Args::Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument " + arg);
        const std::string key = arg.substr(2);
        const bool has_value = i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
        kv_[key] = has_value ? std::string(argv[++i]) : std::string("1");
    }
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
}

long Args::num(const std::string& key, long fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    char* end = nullptr;
    const long v = std::strtol(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
        throw std::runtime_error("--" + key + " expects an integer");
    }
    return v;
}

void announce_ready() {
    std::printf("ready %.9f\n", now_s());
    std::fflush(stdout);
}

}  // namespace perfbench
