// perfbench_driver — the measuring half of the benchmark (run.py is the
// other half: it builds, starts the daemon, and prints the result line).
//
//   perfbench_driver repro   --seconds T --goldens DIR [--trace F]
//   perfbench_driver kernels --seed S --seconds T [--trace F]
//   perfbench_driver serve   --socket P --seed S --seconds T --mode cold|hit
//                            [--trace F] [--probe]
//
// Each subcommand prints "ready" when its set-up is done, then one JSON
// report line (bench.hpp) as its last line of output. The exit code is 0
// whenever a report was printed; the report's "ok" carries the verdict.

#include "bench.hpp"

#include <cstdio>
#include <exception>
#include <string>

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s repro|kernels|serve [--key value ...]\n", argv[0]);
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const perfbench::Args args(argc, argv, 2);
        if (cmd == "repro") return perfbench::run_repro(args);
        if (cmd == "kernels") return perfbench::run_kernels(args);
        if (cmd == "serve") return perfbench::run_serve(args);
        std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver %s: %s\n", cmd.c_str(), e.what());
        return 1;
    }
}
