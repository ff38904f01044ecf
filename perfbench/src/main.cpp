// perfbench_runner: runs one workload of the end-to-end benchmark and prints
// its result as one JSON line (the last line of standard output).
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace 0|1
//                    --work-dir <dir> --serve-bin <plankton_serve>
//                    --trace-out <file>
//
// run.py builds this binary and the daemon and passes the paths; see
// README.md for the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload <name> --seed <n> --seconds <s> "
               "--trace 0|1 --work-dir <dir> --serve-bin <path> --trace-out <file>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunSettings s;
  bool rss_probe = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      s.workload = value;
    } else if (flag == "--seed") {
      s.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      s.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      s.trace = value == "1";
    } else if (flag == "--work-dir") {
      s.work_dir = value;
    } else if (flag == "--serve-bin") {
      s.serve_bin = value;
    } else if (flag == "--trace-out") {
      s.trace_path = value;
    } else if (flag == "--rss-probe") {
      rss_probe = value == "1";
    } else {
      return usage();
    }
  }
  const bool batch = s.workload == "verify-fattree-loop" ||
                     s.workload == "verify-as-failures" || s.workload == "verify-bgp-dpor";
  if (rss_probe && batch) return perfbench::probe_batch(s);
  if ((!batch && s.workload != "serve-delta-stream") || s.seconds <= 0 ||
      s.work_dir.empty() || s.trace_path.empty()) {
    return usage();
  }

  perfbench::RunRecord rec;
  try {
    rec = batch ? perfbench::run_batch(s) : perfbench::run_serve(s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", s.workload.c_str(), e.what());
    return 1;
  }
  if (rec.attempted == 0) {
    std::fprintf(stderr, "perfbench: %s attempted no operation\n", s.workload.c_str());
    return 1;
  }

  if (s.trace) {
    // Every declared per-layer metric, in order; layers this workload does
    // not run read 0.
    std::vector<perfbench::Metric> all;
    for (const auto& [name, unit] : perfbench::kPerLayerMetrics) {
      perfbench::Metric m{name, 0.0, unit};
      for (const perfbench::Metric& got : rec.metrics) {
        if (got.name == name) m = got;
      }
      all.push_back(m);
    }
    rec.metrics = std::move(all);
  }

  std::string out = "{\"correct\": ";
  out += rec.wrong == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rec.attempted);
  out += ", \"failed\": " + std::to_string(rec.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
    const perfbench::Metric& m = rec.metrics[i];
    out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
