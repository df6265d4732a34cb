// lppa_bench: one run of one workload of the LPPA round benchmark.
//
//   lppa_bench --workload <city_sparse|paper_churn|socket_ingest>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--rate <SUs per second>]
//
// Prints one JSON line with every metric the run measured, the output
// checks' verdict and host context; run.py turns it into the result file
// and the contract line.  Exit status 0 only when every check passed.
#include <sched.h>
#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "common/thread_pool.h"
#include "driver/workloads.h"

using namespace lppa::bench_driver;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lppa_bench: " << why
            << "\nusage: lppa_bench --workload <city_sparse|paper_churn|"
               "socket_ingest> --seed <n> --seconds <s> --trace <0|1> "
               "[--rate <SUs/s>]\n";
  std::exit(2);
}

double parse_number(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0.0)) {
    usage(std::string("bad value for ") + flag + ": " + text);
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(parse_number("--seed", value));
    } else if (flag == "--seconds") {
      args.seconds = parse_number("--seconds", value);
    } else if (flag == "--trace") {
      const std::string t = value;
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      args.trace = t == "1";
      have_trace = true;
    } else if (flag == "--rate") {
      args.rate = parse_number("--rate", value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_trace) {
    usage("--workload and --trace are required");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Every thread of the run shares one CPU: the in-process workloads pin
  // num_threads = 1 anyway, and socket_ingest's client and server then
  // measure a single core whatever parallelism the host grants at the
  // moment (it swung between 1 and 2.5 on the host of README.md).  The
  // host context below is measured over every CPU again.
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  const bool pinned = ::sched_getaffinity(0, sizeof all_cpus, &all_cpus) == 0;
  if (pinned) {
    cpu_set_t one_cpu;
    CPU_ZERO(&one_cpu);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_cpus)) {
        CPU_SET(cpu, &one_cpu);
        break;
      }
    }
    ::sched_setaffinity(0, sizeof one_cpu, &one_cpu);
  }
  Result result;
  result.workload = args.workload;
  result.seed = args.seed;
  result.trace = args.trace;

  try {
    if (args.workload == "city_sparse") {
      run_city_sparse(args, result);
    } else if (args.workload == "paper_churn") {
      run_paper_churn(args, result);
    } else if (args.workload == "socket_ingest") {
      run_socket_ingest(args, result);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    // Whatever was measured is still written below.
    result.fail(std::string("aborted: ") + e.what());
  }

  if (result.attempted > 0) {
    result.set("ok_ratio",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "ratio");
  }
  if (pinned) ::sched_setaffinity(0, sizeof all_cpus, &all_cpus);
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  result.info["proc.minor_faults"] = static_cast<double>(usage.ru_minflt);
  result.info["peak_rss_mb.per_round"] = reset_peak_rss() ? 1.0 : 0.0;
  result.info["host.nproc"] =
      static_cast<double>(lppa::ThreadPool::hardware_threads());
  result.info["host.sha256_mb_s"] = sha256_mb_s();
  result.info["host.effective_parallelism"] = effective_parallelism();

  write_result_line(result, std::cout);
  std::cout.flush();
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
