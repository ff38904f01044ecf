// Shared pieces of the benchmark runner: the seeded generator, order
// statistics, the run record every workload fills, and the in-memory span
// recorder of the traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// splitmix64. The benchmark's own generator, so its inputs do not move when
/// the program's hashing changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) == rank && idx > 0) --idx;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2.0;
}

/// Peak resident set of process `pid` ("self" for this one) in MB, from
/// VmHWM in /proc/<pid>/status; 0 when unreadable. Unlike ru_maxrss, VmHWM
/// covers only the current program image, not the pages a child shared with
/// its parent between fork and exec.
inline double vm_hwm_mb(const std::string& pid) {
  std::FILE* f = std::fopen(("/proc/" + pid + "/status").c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. An operation is one request a user would make: a
/// full verification, a change with its verdict, or a read. `failed` counts
/// operations that errored or answered wrongly; `wrong` counts the answers
/// that disagreed with the independent computation (they make `correct`
/// false).
struct RunRecord {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed operation; `wrong_answer` marks a verdict that the
  /// independent computation contradicts (as opposed to an error).
  void fail(const std::string& what, bool wrong_answer) {
    ++failed;
    if (wrong_answer) ++wrong;
    if (failed <= 20) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
};

/// Spans of the traced run, kept in memory and written out once at the end
/// in Chrome trace-event form (load the file in chrome://tracing or
/// ui.perfetto.dev). Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t op = 0;      ///< the operation the span belongs to
    double start_us = 0;
    double end_us = 0;
    [[nodiscard]] double ms() const { return (end_us - start_us) / 1e3; }
  };

  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  [[nodiscard]] bool on() const { return on_; }

  std::uint64_t begin(const std::string& name, std::uint64_t parent,
                      std::uint64_t op) {
    if (!on_) return 0;
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.op = op;
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  /// Ends span `id` and returns its duration in ms (0 when disabled).
  double end(std::uint64_t id) {
    if (!on_ || id == 0) return 0.0;
    Span& s = spans_[id - 1];
    s.end_us = now_us();
    return s.ms();
  }

  /// Writes the spans as Chrome trace events; false on an I/O error.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"op\":%llu}}%s\n",
                   s.name.c_str(), s.start_us, s.end_us - s.start_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }

  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction or at stop().
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, std::uint64_t parent,
        std::uint64_t op)
      : t_(t), id_(t.begin(name, parent, op)) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  double stop() {
    const double ms = t_.end(id_);
    id_ = 0;
    return ms;
  }

 private:
  Tracer& t_;
  std::uint64_t id_;
};

/// Per-layer metrics of the traced run (name, unit), in output order. A
/// workload reports 0 for the layers it does not run.
inline constexpr std::pair<const char*, const char*> kPerLayerMetrics[] = {
    {"config.parse_ms", "ms"},          {"pec.partition_ms", "ms"},
    {"pec.count", "count"},             {"sched.deps_ms", "ms"},
    {"sched.busy_ratio", "ratio"},      {"eqclass.classes_ms", "ms"},
    {"eqclass.classes", "count"},       {"eqclass.pecs_deduped", "count"},
    {"eqclass.fingerprint_ms", "ms"},   {"core.setup_ms", "ms"},
    {"core.verify_ms", "ms"},           {"core.explore_ms", "ms"},
    {"rpvp.states_explored", "count"},  {"rpvp.states_stored", "count"},
    {"rpvp.states_per_s", "1/s"},       {"rpvp.failure_sets", "count"},
    {"rpvp.ad_cache_hit_ratio", "ratio"}, {"rpvp.model_mb", "MB"},
    {"engine.por_pruned", "count"},     {"engine.por_source_sets", "count"},
    {"engine.por_footprint_ms", "ms"},  {"engine.visited_mb", "MB"},
    {"serve.load_ms", "ms"},            {"serve.apply_delta_ms", "ms"},
    {"serve.query_miss_ms", "ms"},      {"serve.query_hit_ms", "ms"},
    {"serve.moved_pecs", "count"},      {"serve.cache_hit_ratio", "ratio"},
    {"verdict_cache.lookup_us", "us"},  {"journal.append_ms", "ms"},
    {"journal.bytes", "B"},             {"server.request_overhead_ms", "ms"},
    {"trace.overhead_pct", "%"},        {"trace.unattributed_pct", "%"},
};

/// Command-line settings of one run.
struct RunSettings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;     ///< scratch files of this run (inside the checkout)
  std::string serve_bin;    ///< the plankton_serve daemon under test
  std::string trace_path;   ///< where the traced run writes its spans
};

RunRecord run_batch(const RunSettings& s);
/// One verification of a batch workload's base network, for the memory
/// probe; exit code 0 when its verdict is the expected one.
int probe_batch(const RunSettings& s);
RunRecord run_serve(const RunSettings& s);

}  // namespace perfbench
