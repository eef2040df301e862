// The workload program of the repository benchmark (see ../README.md).
//
// Usage: perfbench --workload <serve_sync|serve_batched|build_surrogate>
//                  --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Prints reference figures as "# " lines and, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 0 when every output check passed, 1 when one failed, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point process_start() { return kProcessStart; }

double peak_rss_mib() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching Python process whenever that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return std::nan("");  // no VmHWM: print_result fails the run on a non-finite metric
}

std::vector<double> SpanLog::durations_us(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out.push_back(s.us());
  }
  return out;
}

std::vector<double> SpanLog::self_us(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, double> children_us;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) children_us[s.parent] += s.us();
  }
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name != s.name) continue;
    const auto it = children_us.find(s.id);
    out.push_back(s.us() - (it == children_us.end() ? 0.0 : it->second));
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  const Clock::time_point origin = kProcessStart;
  char line[320];
  for (const SpanRecord& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  s.name, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  seconds_between(origin, s.start) * 1e6, seconds_between(origin, s.end) * 1e6);
    out << line;
  }
  if (dropped_ > 0) out << "{\"dropped\":" << dropped_ << "}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench

namespace {

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <serve_sync|serve_batched|build_surrogate>"
               " --seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n";
  return 2;
}

void print_result(const perfbench::Report& r) {
  for (const std::string& note : r.notes) std::cout << "# " << note << "\n";
  for (const std::string& err : r.errors) std::cout << "# CHECK FAILED: " << err << "\n";
  bool finite = true;
  std::string metrics;
  char buf[128];
  for (const perfbench::Metric& m : r.metrics) {
    finite = finite && std::isfinite(m.value);
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  if (!finite) std::cout << "# CHECK FAILED: a metric is not finite\n";
  std::cout << "{\"correct\": " << (r.correct && finite ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && opts.seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      opts.trace = val == "1";
    } else if (key == "--spans") {
      opts.spans_path = val;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace need valid values");
  }

  perfbench::Report result;
  try {
    if (opts.workload == "serve_sync") {
      result = perfbench::run_serve_sync(opts);
    } else if (opts.workload == "serve_batched") {
      result = perfbench::run_serve_batched(opts);
    } else if (opts.workload == "build_surrogate") {
      result = perfbench::run_build_surrogate(opts);
    } else {
      return usage(("unknown workload '" + opts.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
