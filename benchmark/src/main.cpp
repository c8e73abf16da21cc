// rsnn_benchmark: runs one workload and prints its metrics.
//
//   rsnn_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--spans <file>] [--commit <id>]
//
// Untraced (--trace 0): measures the workload and prints its end-to-end
// metrics. Traced (--trace 1): runs the workload once untraced and once
// with spans recorded (their ratio is trace.overhead), then the layer
// probes, and prints the per-layer metrics; the spans go to --spans.
//
// Report lines come first; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace rsnn_bench;

using WorkloadFn = void (*)(const Options&, Tracer&, Report&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"lenet_t8_batch", run_lenet_t8_batch},
      {"vgg11_t3_batch", run_vgg11_t3_batch},
      {"serve_open", run_serve_open},
      {"serve_churn", run_serve_churn},
  };
  return table;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "rsnn_benchmark: %s\nusage: rsnn_benchmark --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> --work-dir "
               "<dir> [--spans <file>] [--commit <id>]\nworkloads:",
               why);
  for (const auto& [name, fn] : workloads())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEndToEnd: return "end_to_end";
    case MetricKind::kLayer: return "per_layer";
    case MetricKind::kNote: return "note";
  }
  return "?";
}

/// Per span name: count, total time and total self time.
void print_self_times(const Tracer& tracer) {
  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = self_times_ns(spans);
  struct Totals { std::size_t count = 0; double total_ms = 0, self_ms = 0; };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < 0) continue;
    Totals& t = by_name[spans[i].name];
    ++t.count;
    t.total_ms += (spans[i].end_ns - spans[i].start_ns) * 1e-6;
    t.self_ms += self[i] * 1e-6;
  }
  for (const auto& [name, t] : by_name)
    std::printf("span %-28s n=%-7zu total_ms=%.3f self_ms=%.3f\n",
                name.c_str(), t.count, t.total_ms, t.self_ms);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string spans_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0.0;
    } else if (key == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--spans") {
      spans_path = value;
    } else if (key == "--commit") {
      options.commit = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  const auto it = workloads().find(options.workload);
  if (it == workloads().end()) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace || options.work_dir.empty())
    return usage("--seed, --seconds, --trace and --work-dir are required");

  Report report;
  record_host(report, options);
  if (!options.trace) {
    Tracer off(false);
    it->second(options, off, report);
  } else {
    // Two half-length passes of the same workload: untraced, then traced.
    Options pass = options;
    pass.seconds = options.seconds / 2;
    Report untraced;
    Tracer off(false);
    it->second(pass, off, untraced);
    Tracer tracer(true);
    it->second(pass, tracer, report);
    report.attempts(untraced.attempted(), untraced.failed(),
                    untraced.refused());
    for (const std::string& e : untraced.errors()) report.error(e);
    report.metric("trace.overhead",
                  report.value("latency_p50_ms") /
                      untraced.value("latency_p50_ms"),
                  "ratio", 2, MetricKind::kLayer);
    run_layer_probes(options, tracer, report);
    print_self_times(tracer);
    if (!spans_path.empty() && !tracer.write(spans_path))
      report.error("cannot write spans to " + spans_path);
  }

  for (const auto& [key, value] : report.settings())
    std::printf("config %s=%s\n", key.c_str(), value.c_str());
  const MetricKind printed =
      options.trace ? MetricKind::kLayer : MetricKind::kEndToEnd;
  bool finite = true;
  for (const Metric& m : report.metrics()) {
    std::printf("metric %-40s %.6g %s (n=%zu) [%s]\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples, kind_name(m.kind));
    if (m.kind == printed && !std::isfinite(m.value)) finite = false;
  }
  const double error_rate =
      report.attempted() > 0
          ? static_cast<double>(report.failed() + report.refused()) /
                report.attempted()
          : 1.0;
  std::printf("metric %-40s %.6g share (n=%lld) [note]\n", "error_rate",
              error_rate, static_cast<long long>(report.attempted()));
  std::printf("metric %-40s %lld count (n=%lld) [note]\n", "refused_retried",
              static_cast<long long>(report.refused()),
              static_cast<long long>(report.attempted()));
  for (const std::string& e : report.errors())
    std::printf("error %s\n", e.c_str());

  const bool correct = finite && report.failed() == 0 &&
                       report.errors().empty() && report.attempted() > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    if (m.kind != printed) continue;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
