// pbench: the benchmark binary behind perfbench/run.py.
//
//   pbench gen   --workload W --seed N --out DIR
//   pbench run   --workload W --in DIR --seconds S --trace 0|1
//                --answers FILE --report FILE [--trace-out FILE]
//   pbench check --workload W --in DIR --answers FILE
//
// gen writes the seeded inputs, run is the measured process, check verifies
// the answers run logged. run.py chains the three; see README.md.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.hpp"
#include "graph/io.hpp"

namespace {

using namespace pbench;

int usage() {
  std::fprintf(stderr,
               "usage: pbench gen|run|check --workload W [options]\n"
               "  gen   --seed N --out DIR\n"
               "  run   --in DIR --seconds S --trace 0|1 --answers FILE "
               "--report FILE [--trace-out FILE]\n"
               "  check --in DIR --answers FILE\n");
  return 2;
}

/// Timings from these builds are not comparable to a Release build's.
const char* unfit_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PEEK_SANITIZED)
  return "a sanitized";
#elif !defined(NDEBUG)
  return "a Debug (assertions on)";
#else
  return std::string(PBENCH_BUILD_TYPE) == "Debug" ? "a Debug" : nullptr;
#endif
}

int gen(const Spec& spec, std::map<std::string, std::string>& opt) {
  if (!opt.count("seed") || !opt.count("out")) return usage();
  const std::uint64_t seed = std::stoull(opt["seed"]);
  const auto g = generate_graph(spec, seed);
  const Inputs in = generate_inputs(spec, g, seed);
  peek::graph::write_binary_file(opt["out"] + "/graph.bin", g);
  write_inputs(opt["out"] + "/inputs.bin", in);
  std::printf("gen: %s seed %llu: %d vertices, %lld edges, %zu pairs "
              "(%d candidates skipped: the K bound keeps > 1%% of the graph)\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed),
              g.num_vertices(), static_cast<long long>(g.num_edges()),
              in.pairs.size(), in.skipped_pairs);
  return 0;
}

int run(const Spec& spec, std::map<std::string, std::string>& opt) {
  for (const char* key : {"in", "seconds", "trace", "answers", "report"}) {
    if (!opt.count(key)) return usage();
  }
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "pbench: refusing to report timings from %s build\n",
                 why);
    return 3;
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int load_threads = spec.fleet ? kClients : 1;
  if (load_threads > nproc) {
    std::fprintf(stderr,
                 "pbench: %s needs %d load threads but nproc is %ld; "
                 "refusing to report timings\n",
                 spec.name.c_str(), load_threads, nproc);
    return 3;
  }
  RunArgs args;
  args.in_dir = opt["in"];
  args.seconds = std::stod(opt["seconds"]);
  args.trace = opt["trace"] == "1";
  args.answers = opt["answers"];
  args.trace_out = opt.count("trace-out") ? opt["trace-out"] : "";

  Report report;
  report.workload = spec.name;
  report.seed = read_inputs(args.in_dir + "/inputs.bin").seed;
  report.trace = args.trace;
  if (spec.fleet) {
    run_fleet(args, report);
  } else {
    run_oneshot(spec, args, report);
  }
  if (!report.write_json(opt["report"])) {
    std::fprintf(stderr, "pbench: cannot write %s\n", opt["report"].c_str());
    return 1;
  }
  if (!report.error.empty()) {
    std::fprintf(stderr, "pbench: %s: %s\n", spec.name.c_str(),
                 report.error.c_str());
    return 1;
  }
  report.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    opt[key.substr(2)] = argv[i + 1];
  }
  const Spec* spec = opt.count("workload") ? find_spec(opt["workload"]) : nullptr;
  if (!spec) {
    std::fprintf(stderr, "pbench: unknown or missing --workload\n");
    return 2;
  }
  try {
    if (cmd == "gen") return gen(*spec, opt);
    if (cmd == "run") return run(*spec, opt);
    if (cmd == "check") {
      if (!opt.count("in") || !opt.count("answers")) return usage();
      return run_check(*spec, opt["in"], opt["answers"]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
