// perfbench: run one benchmark workload and report its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>] [--record <file>]
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics when --trace 0, the per-layer metrics when
// --trace 1. `attempted`/`failed` count output checks. --record writes
// the full result (all metrics, failed checks, host stamp) as JSON.
// perfbench/run.py builds this binary and is the usual entry point.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<perfbench::Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--spans <file>] [--record <file>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string record_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--spans") {
        o.spans_path = value;
      } else if (arg == "--record") {
        record_path = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const auto& n : perfbench::workload_names()) known = known || n == o.workload;
  if (!known) usage("unknown workload " + o.workload);

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const auto& reported = o.trace ? out.per_layer : out.end_to_end;
  for (const auto& m : reported) out.checks.expect(std::isfinite(m.value), m.name + " is finite");

  std::cout << "workload " << o.workload << "  seed " << o.seed << "  trace " << o.trace
            << "  workers " << out.workers << "  batches " << out.batches
            << "  steal repeats " << out.steal_retries << "\n"
            << "host: nproc " << nproc << ", " << perfbench::compiler_version() << ", "
            << perfbench::build_type() << "\n";
  const auto print = [](const std::vector<perfbench::Metric>& ms) {
    for (const auto& m : ms) std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  };
  if (o.trace) {
    std::cout << "per-layer (traced run):\n";
    print(out.per_layer);
  } else {
    std::cout << "end-to-end (medians over " << out.batches << " batches):\n";
    print(out.end_to_end);
    print(out.host);
  }
  std::cout << "model outputs (simulated):\n";
  print(out.model);
  const double failed_frac =
      out.checks.made() ? static_cast<double>(out.checks.failed()) / out.checks.made() : 0.0;
  std::cout << "  failed_frac = " << failed_frac << " (" << out.checks.failed() << " of "
            << out.checks.made() << " checks)\n";
  for (const auto& f : out.checks.failures()) std::cout << "  CHECK FAILED: " << f << "\n";

  const bool correct = out.checks.failed() == 0 && out.checks.made() > 0;

  if (!record_path.empty()) {
    std::ofstream rec(record_path);
    rec << "{\"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
        << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"seconds\": " << json_number(o.seconds)
        << ", \"batches\": " << out.batches << ", \"steal_repeats\": " << out.steal_retries
        << ",\n \"stamp\": {\"nproc\": " << nproc
        << ", \"workers\": " << out.workers
        << ", \"compiler\": " << json_string(perfbench::compiler_version())
        << ", \"build_type\": " << json_string(perfbench::build_type()) << "},\n"
        << " \"correct\": " << (correct ? "true" : "false")
        << ", \"checks_made\": " << out.checks.made()
        << ", \"failed_frac\": " << json_number(failed_frac) << ", \"failures\": [";
    for (std::size_t i = 0; i < out.checks.failures().size(); ++i) {
      rec << (i ? ", " : "") << json_string(out.checks.failures()[i]);
    }
    rec << "],\n \"metrics\": " << json_metrics(reported)
        << ",\n \"host\": " << json_metrics(out.host)
        << ",\n \"model\": " << json_metrics(out.model) << "}\n";
    if (!rec) {
      std::cerr << "perfbench: cannot write " << record_path << "\n";
      return 1;
    }
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.checks.made() << ", \"failed\": " << out.checks.failed()
            << ", \"metrics\": " << json_metrics(reported) << "}" << std::endl;
  return 0;
}
