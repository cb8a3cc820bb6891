// atm_perfbench: the repository benchmark. One process runs one workload
// against the libraries' public API for --seconds of measurement (rounds
// disturbed by CPU steal are made up, up to 1.25 x --seconds), checks every
// output and prints one JSON document on stdout (perfbench/run.py wraps it).
//
//   atm_perfbench --workload runtime_off|memo_exact|memo_tolerance
//                 --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// Threads: nproc-1 workers plus the submitting master thread, so the
// process never runs more threads than it has CPUs. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the same workload with spans recorded
// around every call into a layer, then the per-layer microbenches, and
// reports the per-layer metrics (perfbench/README.md lists them all).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/app_registry.hpp"
#include "apps/blackscholes.hpp"
#include "apps/gauss_seidel.hpp"
#include "apps/jacobi.hpp"
#include "apps/kmeans.hpp"
#include "apps/sparse_lu.hpp"
#include "apps/swaptions.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"

namespace {

using atm::now_ns;
using atm::apps::App;
using atm::apps::Preset;
using atm::apps::RunConfig;
using atm::apps::RunResult;
namespace rt = atm::rt;

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Concatenation by appends (GCC 12 misreports `"literal" + std::string`
/// chains under -Wrestrict).
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view p : parts) out += p;
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Named metrics in emission order; a name can be added once only, so a
/// duplicate is a crash here instead of a silently dropped JSON key.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    for (const Entry& e : entries_) {
      if (e.name == name) throw std::logic_error("duplicate metric name: " + name);
    }
    entries_.push_back({name, value, unit, samples});
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out += (i == 0 ? "" : ", ");
      out += cat({"\"", json_escape(e.name), "\": {\"value\": ", json_number(e.value),
                  ", \"unit\": \"", json_escape(e.unit), "\", \"n\": ",
                  std::to_string(e.samples), "}"});
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Spans: kept in memory, written once at exit (traced runs only)
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  /// Opens a span as a child of the innermost open span; returns its index
  /// (or -1 when disabled).
  int open(const char* name, std::string arg = {}) {
    if (!enabled_) return -1;
    spans_.push_back({name, std::move(arg), now_ns(), 0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].t1 = now_ns();
    open_ = spans_[static_cast<std::size_t>(idx)].parent;
  }

  /// Self time of every span: its duration minus the time its direct
  /// children cover (children of one span never overlap: one thread).
  [[nodiscard]] std::vector<double> self_ns() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = static_cast<double>(spans_[i].t1 - spans_[i].t0);
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.t1 - s.t0);
      }
    }
    return self;
  }

  /// Mean self time of the spans called `name`.
  [[nodiscard]] double mean_self_ns(const char* name) const {
    const std::vector<double> self = self_ns();
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (std::strcmp(spans_[i].name, name) == 0) {
        sum += self[i];
        ++n;
      }
    }
    return ratio(sum, static_cast<double>(n));
  }

  /// Per-name totals: count, total and self time.
  [[nodiscard]] std::string summary_json() const {
    struct Agg {
      std::size_t count = 0;
      double total_ns = 0, self_ns = 0;
    };
    std::map<std::string, Agg> agg;
    const std::vector<double> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Agg& a = agg[spans_[i].name];
      ++a.count;
      a.total_ns += static_cast<double>(spans_[i].t1 - spans_[i].t0);
      a.self_ns += self[i];
    }
    std::string out = "{";
    bool first = true;
    for (const auto& [name, a] : agg) {
      out += (first ? "" : ", ");
      first = false;
      out += cat({"\"", name, "\": {\"count\": ", std::to_string(a.count),
                  ", \"total_ms\": ", json_number(a.total_ns * 1e-6),
                  ", \"self_ms\": ", json_number(a.self_ns * 1e-6), "}"});
    }
    return out + "}";
  }

  /// Chrome trace-event JSON (load in Perfetto or chrome://tracing).
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::vector<double> self = self_ns();
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().t0;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << json_number(static_cast<double>(s.t0 - base) * 1e-3)
          << ", \"dur\": " << json_number(static_cast<double>(s.t1 - s.t0) * 1e-3)
          << ", \"args\": {\"arg\": \"" << json_escape(s.arg)
          << "\", \"self_us\": " << json_number(self[i] * 1e-3) << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::string arg;
    std::uint64_t t0, t1;
    int parent;
  };
  bool enabled_;
  int open_ = -1;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::string arg = {})
      : log_(log), idx_(log.open(name, std::move(arg))) {}
  ~SpanScope() { log_.close(idx_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  int idx_;
};

// ---------------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------------

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

std::string host_json(unsigned workers) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return cat({"{\"nproc\": ", std::to_string(affinity_cpus()),
              ", \"hardware_concurrency\": ", std::to_string(std::thread::hardware_concurrency()),
              ", \"affinity\": \"", affinity_list(), "\", \"workers\": ", std::to_string(workers),
              ", \"compiler\": \"", json_escape(compiler),
              "\", \"build_type\": \"" ATM_PERFBENCH_BUILD_TYPE "\", \"ndebug\": ",
              ndebug ? "true" : "false",
              ", \"obs_enabled\": ", atm::obs::kObsEnabled ? "true" : "false", "}"});
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Workload { RuntimeOff, MemoExact, MemoTolerance };

const char* const kAppNames[] = {"blackscholes", "gauss-seidel", "jacobi",
                                 "kmeans",       "lu",           "swaptions"};

/// Runs of each app per round: the two shortest apps run more often so
/// their medians rest on more samples.
unsigned reps_per_round(const std::string& app) {
  if (app == "lu") return 4;
  if (app == "blackscholes") return 2;
  return 1;
}

/// Per-iteration relative input jitter of the noisy-sensor workloads, at
/// the amplitudes the tolerance acceptance tests use.
double input_noise(const std::string& app) {
  if (app == "jacobi") return 5e-7;
  if (app == "blackscholes") return 2e-7;
  return 0.0;
}

constexpr unsigned kToleranceProbes = 4;

/// The bench-preset app with its input seed replaced.
std::unique_ptr<App> make_seeded_app(const std::string& name, std::uint64_t seed) {
  using namespace atm::apps;
  const std::unique_ptr<App> base = make_app(name, Preset::Bench);
  if (const auto* a = dynamic_cast<const BlackscholesApp*>(base.get())) {
    BlackscholesParams p = a->params();
    p.seed = seed;
    return std::make_unique<BlackscholesApp>(p);
  }
  if (const auto* a = dynamic_cast<const GaussSeidelApp*>(base.get())) {
    StencilParams p = a->params();
    p.seed = seed;
    return std::make_unique<GaussSeidelApp>(p);
  }
  if (const auto* a = dynamic_cast<const JacobiApp*>(base.get())) {
    StencilParams p = a->params();
    p.seed = seed;
    return std::make_unique<JacobiApp>(p);
  }
  if (const auto* a = dynamic_cast<const KmeansApp*>(base.get())) {
    KmeansParams p = a->params();
    p.seed = seed;
    return std::make_unique<KmeansApp>(p);
  }
  if (const auto* a = dynamic_cast<const SparseLuApp*>(base.get())) {
    SparseLuParams p = a->params();
    p.seed = seed;
    return std::make_unique<SparseLuApp>(p);
  }
  if (const auto* a = dynamic_cast<const SwaptionsApp*>(base.get())) {
    SwaptionsParams p = a->params();
    p.seed = seed;
    return std::make_unique<SwaptionsApp>(p);
  }
  throw std::runtime_error("unknown app " + name);
}

/// Set-up repetitions; each builds a fresh input set of every app, so one
/// run measures each app on several inputs. Reuse, error and time under ATM
/// depend on the inputs, and a run-level mean over several input sets is
/// what keeps the figures steady from one seed to the next.
constexpr int kSetupReps = 4;

/// Input sets one set-up repetition builds per app. LU's reuse and error
/// depend most strongly on its input matrix, and its references are cheap;
/// about one kmeans input in six converges early and runs twice as fast
/// under ATM, so kmeans gets enough sets that such inputs stay a minority.
std::size_t input_sets_per_rep(const std::string& app) {
  if (app == "lu") return 8;
  if (app == "kmeans") return 3;
  return 1;
}

struct AppCase {
  std::string name;
  RunConfig config;  ///< the measured configuration
  struct Input {
    std::unique_ptr<App> app;
    RunResult reference;  ///< 1-worker ATM-off run over the same inputs
  };
  std::vector<Input> inputs;
  std::size_t next = 0;  ///< input set of the next measured run
};

RunConfig measured_config(Workload w, const App& app, const std::string& name,
                          unsigned workers, std::uint64_t shuffle_seed) {
  RunConfig c;
  c.threads = workers;
  c.shuffle_seed = shuffle_seed;
  if (w == Workload::RuntimeOff) return c;
  c.mode = atm::AtmMode::Dynamic;
  if (w == Workload::MemoTolerance) {
    c.tolerance_rel = app.tolerance_preset();
    c.tolerance_probes = c.tolerance_rel > 0.0 ? kToleranceProbes : 0;
    c.input_noise = input_noise(name);
  }
  return c;
}

/// The storm's task body: 32 multiply-adds, 64 FLOPs.
float storm_kernel(float x) {
  for (int k = 0; k < 32; ++k) x = x * 1.0001f + 0.0001f;
  return x;
}

/// Independent tasks per wave. Waves this long average out short stalls
/// (CPU steal on a shared host), which keeps the p90 steady.
constexpr std::size_t kStormTasks = 20'000;
constexpr int kStormWaves = 3;               ///< timed waves per phase
constexpr int kStormPhases = 3;              ///< phases of each width per round

struct StormInputs {
  std::vector<float> init;
  std::vector<float> expected;  ///< init after kStormWaves + 1 kernel applications
};

StormInputs make_storm_inputs(std::uint64_t seed) {
  StormInputs in;
  atm::Rng rng(seed);
  in.init.resize(kStormTasks);
  in.expected.resize(kStormTasks);
  for (std::size_t i = 0; i < kStormTasks; ++i) {
    in.init[i] = rng.next_float(0.5f, 2.0f);
    float x = in.init[i];
    for (int w = 0; w < kStormWaves + 1; ++w) x = storm_kernel(x);
    in.expected[i] = x;
  }
  return in;
}

/// Runs `fn` on a new thread and waits for it. Storm phases and app runs
/// each get a fresh submitting thread, so the OS places the master anew
/// every time; a run then averages over placements instead of inheriting
/// one for its whole length.
template <typename F>
auto on_fresh_thread(F&& fn) -> decltype(fn()) {
  std::optional<decltype(fn())> result;
  std::exception_ptr error;
  std::thread t([&] {
    try {
      result.emplace(fn());
    } catch (...) {
      error = std::current_exception();
    }
  });
  t.join();
  if (error) std::rethrow_exception(error);
  return std::move(*result);
}

/// Share of CPU time the hypervisor gave to other guests between two reads
/// of the aggregate /proc/stat line (user nice system idle iowait irq
/// softirq steal); 0 when the file is unreadable.
struct CpuTicks {
  std::uint64_t total = 0, steal = 0;
};

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  std::uint64_t v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return t;
  for (auto& x : v) {
    if (!(in >> x)) return CpuTicks{};
    t.total += x;
  }
  t.steal = v[7];
  return t;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  return ratio(static_cast<double>(b.steal - a.steal), static_cast<double>(b.total - a.total));
}

/// A round during which the hypervisor stole more than this share of the
/// guest's CPU time is disturbed: its outputs are checked as usual, but its
/// timings are used only when too few undisturbed rounds came in. On a
/// shared 4-vCPU host, rounds with 0.5-2% steal ran ~4% slower than the
/// run's median and rounds above 4% ~20% slower; such episodes last minutes
/// and slow barrier-bound waves and app runs by up to 2.5x.
constexpr double kMaxRoundSteal = 0.005;

/// Timing samples of the measured loop, each tagged with its round.
struct Timings {
  std::vector<double> values;
  std::vector<std::size_t> rounds;

  void add(std::size_t round, double v) {
    values.push_back(v);
    rounds.push_back(round);
  }
  void add(std::size_t round, const std::vector<double>& v) {
    for (const double x : v) add(round, x);
  }
  /// The samples of the rounds marked in `kept`.
  [[nodiscard]] std::vector<double> from(const std::vector<bool>& kept) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (kept[rounds[i]]) out.push_back(values[i]);
    }
    return out;
  }
};

/// Scheduler counters pooled over the storm phases at nproc-1 workers.
struct SchedTotals {
  double steal_attempts = 0, steal_fails = 0, inbox_drains = 0, inbox_drained = 0;
  double help_tasks = 0, executed = 0, steal_batch_sum = 0, steal_batch_count = 0;
  double arena_slots_peak = 0;
};

struct StormPhase {
  std::vector<double> wave_ms, submit_ms, taskwait_ms;
  bool outputs_ok = false;
};

/// One storm phase: a fresh runtime with `workers` workers, one untimed
/// warm-up wave, then kStormWaves timed submit+taskwait waves.
StormPhase run_storm_phase(unsigned workers, const StormInputs& inputs, SpanLog& spans,
                           SchedTotals* totals) {
  StormPhase phase;
  std::vector<float> cells = inputs.init;
  rt::Runtime runtime({.num_threads = workers});
  const auto* type = runtime.register_type({.name = "storm", .memoizable = false, .atm = {}});
  auto submit_all = [&] {
    for (std::size_t i = 0; i < kStormTasks; ++i) {
      float* cell = &cells[i];
      runtime.submit(type, [cell] { *cell = storm_kernel(*cell); }, {rt::inout(cell, 1)});
    }
  };
  submit_all();
  runtime.taskwait();
  for (int w = 0; w < kStormWaves; ++w) {
    SpanScope wave(spans, "storm_wave", std::to_string(workers) + "w");
    const std::uint64_t t0 = now_ns();
    {
      SpanScope s(spans, "storm_submit");
      submit_all();
    }
    const std::uint64_t t1 = now_ns();
    {
      SpanScope s(spans, "storm_taskwait");
      runtime.taskwait();
    }
    const std::uint64_t t2 = now_ns();
    phase.wave_ms.push_back(static_cast<double>(t2 - t0) * 1e-6);
    phase.submit_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    phase.taskwait_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
  }
  phase.outputs_ok = std::memcmp(cells.data(), inputs.expected.data(),
                                 kStormTasks * sizeof(float)) == 0;
  if (totals != nullptr) {
    const rt::SchedulerStats s = runtime.sched_stats();
    totals->steal_attempts += static_cast<double>(s.steal_attempts);
    totals->steal_fails += static_cast<double>(s.steal_fails);
    totals->inbox_drains += static_cast<double>(s.inbox_drains);
    totals->inbox_drained += static_cast<double>(s.inbox_drained_tasks);
    totals->executed += static_cast<double>(runtime.counters().executed);
    const atm::obs::RegistrySnapshot snap = runtime.metrics().snapshot();
    if (const auto* m = snap.find("sched.help_tasks")) totals->help_tasks += m->value;
    if (const auto* m = snap.find("sched.steal_batch_size")) {
      totals->steal_batch_sum += static_cast<double>(m->hist.sum);
      totals->steal_batch_count += static_cast<double>(m->hist.count);
    }
    totals->arena_slots_peak = std::max(
        totals->arena_slots_peak, static_cast<double>(runtime.arena_stats().slots));
  }
  return phase;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// attempted/failed bookkeeping. An output that must be exact and is not
/// (a storm phase, or an ATM-off app output against its 1-worker
/// reference) is a failed operation and turns `correct` false. An
/// approximate run that misses its app's error bound is not a failed
/// operation: missing the bound is the quality outcome Dynamic ATM trades
/// for speed, measured by `correct_pct`, and it is counted in
/// `approx_misses`. Both kinds are listed in `failures`.
struct Outcome {
  std::size_t attempted = 0, failed = 0, approx_misses = 0;
  bool correct = true;
  std::vector<std::string> failures;

  void record(bool ok, bool exact, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (exact) {
      ++failed;
      correct = false;
    } else {
      ++approx_misses;
    }
    if (failures.size() < 64) failures.push_back(what);
  }
};

struct AppSamples {
  Timings solve_ms, overhead_ms;
  /// Every run in order: round, input set, ms (for offline analysis).
  std::vector<std::array<double, 3>> log;
  std::vector<double> errors;  ///< program_error of each ATM run
  std::size_t runs = 0, ok_runs = 0;
  double executed = 0, total_tasks = 0;
  std::vector<RunResult> traced_runs;  ///< results without outputs, traced runs only
};

// ---------------------------------------------------------------------------
// Per-layer microbenches (traced runs only)
// ---------------------------------------------------------------------------

/// Median over `reps` repetitions of body()'s wall time divided by `ops`.
template <typename F>
double median_ns_per_op(int reps, double ops, F&& body) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    body();
    v.push_back(static_cast<double>(now_ns() - t0) / ops);
  }
  return median(v);
}

double bench_arena_same_thread() {
  rt::TaskArena arena(256);
  constexpr std::size_t kBatch = 256, kRounds = 400;
  std::vector<rt::Task*> held(kBatch);
  return median_ns_per_op(7, kBatch * kRounds, [&] {
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (auto& t : held) t = arena.acquire();
      for (auto* t : held) arena.release(t);
    }
  });
}

/// Acquire on this thread, release on another (the storm's pattern: the
/// submitter acquires, completing workers release).
double bench_arena_cross_thread() {
  rt::TaskArena arena(256);
  constexpr std::size_t kBatch = 256, kRounds = 400;
  return median_ns_per_op(7, kBatch * kRounds, [&] {
    std::vector<rt::Task*> buf[2] = {std::vector<rt::Task*>(kBatch),
                                     std::vector<rt::Task*>(kBatch)};
    std::atomic<int> full[2] = {0, 0};
    std::thread releaser([&] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::size_t b = r & 1;
        while (full[b].load(std::memory_order_acquire) == 0) std::this_thread::yield();
        for (auto* t : buf[b]) arena.release(t);
        full[b].store(0, std::memory_order_release);
      }
    });
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::size_t b = r & 1;
      while (full[b].load(std::memory_order_acquire) != 0) std::this_thread::yield();
      for (auto& t : buf[b]) t = arena.acquire();
      full[b].store(1, std::memory_order_release);
    }
    releaser.join();
  });
}

/// ShardedDependencyTracker::register_task over waves of standalone tasks;
/// each wave finishes and barrier-resets before the next (the storm shape).
double bench_dep_register(const std::vector<std::vector<rt::DataAccess>>& shapes) {
  rt::ShardedDependencyTracker tracker(4);
  std::vector<rt::Task> tasks(shapes.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i].accesses = shapes[i];
  rt::TaskId next_id = 1;
  std::size_t deps = 0;
  const double ns = median_ns_per_op(25, static_cast<double>(tasks.size()), [&] {
    for (rt::Task& t : tasks) {
      t.id = next_id++;
      t.refs.store(1);
      t.state = rt::TaskState::Created;
      tracker.register_task(t, [&deps](rt::Task*) { ++deps; });
    }
    for (rt::Task& t : tasks) t.state.store(rt::TaskState::Finished, std::memory_order_release);
    tracker.reset_after_barrier();
  });
  tracker.clear();
  if (deps != 0) throw std::logic_error("dep microbench: independent tasks found a dependence");
  return ns;
}

/// External push + try_pop on `lanes` threads, one StealScheduler lane
/// each. Task ids route every lane's external pushes to its own inbox; a
/// lane keeps popping (its own work or stolen work) until everything pushed
/// so far is taken, so no lane leaves tasks stranded in its structures.
double bench_sched(unsigned lanes) {
  constexpr std::size_t kPerLane = 20'000, kBatch = 64;
  auto sched = rt::Scheduler::make(rt::SchedPolicy::Steal, lanes, nullptr);
  std::vector<std::vector<rt::Task>> tasks(lanes);
  for (unsigned l = 0; l < lanes; ++l) {
    tasks[l] = std::vector<rt::Task>(kPerLane);
    for (std::size_t i = 0; i < kPerLane; ++i) tasks[l][i].id = i * lanes + l;
  }
  constexpr std::size_t kExternalLane = ~std::size_t{0};
  std::atomic<std::size_t> outstanding{0};
  std::atomic<unsigned> pushing{0};
  auto lane_body = [&](unsigned l) {
    for (std::size_t b = 0; b < kPerLane; b += kBatch) {
      outstanding.fetch_add(kBatch);
      for (std::size_t i = b; i < b + kBatch; ++i) sched->push(&tasks[l][i], kExternalLane);
      for (std::size_t got = 0; got < kBatch && outstanding.load() > 0;) {
        if (sched->try_pop(l) != nullptr) {
          ++got;
          outstanding.fetch_sub(1);
        }
      }
    }
    pushing.fetch_sub(1);
    while (pushing.load() > 0 || outstanding.load() > 0) {
      if (sched->try_pop(l) != nullptr) outstanding.fetch_sub(1);
    }
  };
  return median_ns_per_op(5, static_cast<double>(kPerLane), [&] {
    pushing.store(lanes);
    std::vector<std::thread> threads;
    for (unsigned l = 1; l < lanes; ++l) threads.emplace_back(lane_body, l);
    lane_body(0);
    for (auto& t : threads) t.join();
  });
}

/// An app-shaped standalone task over owned, seeded input buffers.
struct ShapedTask {
  std::vector<std::vector<float>> inputs;
  std::vector<float> output;
  rt::Task task;
  ShapedTask(const std::vector<std::size_t>& in_sizes, std::size_t out_size,
             std::uint64_t seed) {
    atm::Rng rng(seed);
    for (std::size_t n : in_sizes) {
      inputs.emplace_back(n);
      for (float& v : inputs.back()) v = rng.next_float(0.5f, 100.0f);
      task.accesses.push_back(rt::in(inputs.back().data(), n));
    }
    output.resize(out_size);
    task.accesses.push_back(rt::out(output.data(), out_size));
  }
  [[nodiscard]] double input_kb() const {
    return static_cast<double>(atm::InputLayout::from_task(task).total_bytes()) / 1024.0;
  }
};

/// Keeps microbench results observable so the timed loops are not elided.
volatile std::uint64_t g_sink = 0;

/// ns per compute_key call on `shape` at sampling fraction `p`.
double bench_key(const ShapedTask& shape, double p, const atm::ToleranceSpec& spec) {
  atm::InputSampler sampler(true, 0x5eed);
  const atm::InputLayout layout = atm::InputLayout::from_task(shape.task);
  const atm::GatherPlan& plan = sampler.plan_for(0, layout, p);
  constexpr int kCalls = 2000;
  std::uint64_t sink = 0;
  const double ns = median_ns_per_op(7, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) {
      sink += atm::compute_key(shape.task, plan, 0xC0FFEE + static_cast<unsigned>(i & 1), spec).key;
    }
  });
  g_sink = sink;
  return ns;
}

struct ThtCosts {
  double hit_ns = 0, miss_ns = 0, insert_ns = 0, probe_ns = 0;
};

/// THT operations on blackscholes-shaped outputs (500 floats) at the
/// default N=8, M=128 geometry.
ThtCosts bench_tht() {
  ShapedTask producer({}, 500, 1);
  ShapedTask consumer({}, 500, 2);
  constexpr std::size_t kKeys = 4096, kOps = 20'000;
  auto key_of = [](std::size_t i) { return atm::splitmix64(0xABCDEFull + i); };
  ThtCosts c;
  c.insert_ns = median_ns_per_op(5, kKeys, [&] {
    atm::TaskHistoryTable fresh(8, 128);
    for (std::size_t i = 0; i < kKeys; ++i) fresh.insert(0, key_of(i), 1.0, producer.task);
  });
  atm::TaskHistoryTable tht(8, 128);
  for (std::size_t i = 0; i < kKeys; ++i) tht.insert(0, key_of(i), 1.0, producer.task);
  rt::TaskId creator = 0;
  std::uint64_t t0 = 0, t1 = 0;
  std::size_t hits = 0;
  c.hit_ns = median_ns_per_op(5, kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      hits += tht.lookup_and_copy(0, key_of(i % kKeys), 1.0, consumer.task, &creator, &t0, &t1);
    }
  });
  c.miss_ns = median_ns_per_op(5, kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      hits += tht.lookup_and_copy(0, key_of(kKeys + i), 1.0, consumer.task, &creator, &t0, &t1);
    }
  });
  c.probe_ns = median_ns_per_op(5, kOps, [&] {
    std::size_t which = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      const atm::HashKey keys[1 + kToleranceProbes] = {
          key_of(kKeys + 5 * i), key_of(kKeys + 5 * i + 1), key_of(kKeys + 5 * i + 2),
          key_of(kKeys + 5 * i + 3), key_of(kKeys + 5 * i + 4)};
      hits += tht.lookup_multi_and_copy(0, keys, 1 + kToleranceProbes, 1.0, consumer.task,
                                        &creator, &t0, &t1, &which);
    }
  });
  if (hits != 5 * kOps) throw std::logic_error("THT microbench: unexpected hit count");
  return c;
}

/// ns per op of `op` run concurrently on `threads` threads.
template <typename F>
double bench_concurrent(unsigned threads, std::size_t ops, F&& op) {
  return median_ns_per_op(5, static_cast<double>(ops), [&] {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = 0; i < ops; ++i) op(t, i);
      });
    }
    for (auto& th : pool) th.join();
  });
}

/// Registry snapshot of a runtime with an attached engine and six
/// profiled memoizable types.
double bench_snapshot_us(unsigned workers) {
  atm::AtmEngine engine({.mode = atm::AtmMode::Dynamic});
  rt::Runtime runtime({.num_threads = workers, .profile_tasks = true});
  runtime.attach_memoizer(&engine);
  std::vector<float> cells(64, 1.0f);
  for (int t = 0; t < 6; ++t) {
    const auto* type = runtime.register_type(
        {.name = "snap" + std::to_string(t), .memoizable = true, .atm = {}});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      float* c = &cells[i];
      runtime.submit(type, [c] { *c += 1.0f; }, {rt::inout(c, 1)});
    }
  }
  runtime.taskwait();
  std::size_t n = 0;
  const double ns =
      median_ns_per_op(200, 1.0, [&] { n += runtime.metrics().snapshot().metrics.size(); });
  g_sink = n;
  return ns * 1e-3;
}

// ---------------------------------------------------------------------------
// Benchmark run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in '--key value' pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

Workload parse_workload(const std::string& name) {
  if (name == "runtime_off") return Workload::RuntimeOff;
  if (name == "memo_exact") return Workload::MemoExact;
  if (name == "memo_tolerance") return Workload::MemoTolerance;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

int run(const Args& args) {
  const std::uint64_t t_start = now_ns();
  const Workload workload = parse_workload(args.workload);
  const unsigned workers = std::max(1u, affinity_cpus() - 1);
  const bool memo = workload != Workload::RuntimeOff;
  const std::uint64_t shuffle_seed = atm::splitmix64(args.seed ^ 0x5eedULL);
  SpanLog spans(args.trace);
  Outcome outcome;

  // --- set-up: seeded inputs and their 1-worker ATM-off references ---
  // Each repetition builds one more input set of every app; set-up time is
  // the median repetition (the first one includes process start).
  std::vector<double> setup_s;
  std::vector<AppCase> cases(std::size(kAppNames));
  const StormInputs storm_inputs = make_storm_inputs(atm::splitmix64(args.seed ^ 0x570A11ull));
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = rep == 0 ? t_start : now_ns();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      AppCase& c = cases[i];
      c.name = kAppNames[i];
      for (std::size_t k = 0; k < input_sets_per_rep(c.name); ++k) {
        const std::uint64_t set = c.inputs.size();
        AppCase::Input in;
        in.app = make_seeded_app(
            c.name, atm::splitmix64(args.seed + 0x9E37 * (i + 1) + 0x10001 * set));
        c.config = measured_config(workload, *in.app, c.name, workers, shuffle_seed);
        c.config.profile_tasks = args.trace;
        RunConfig ref{.threads = 1};
        ref.input_noise = c.config.input_noise;
        RunResult full = on_fresh_thread([&] { return in.app->run(ref); });
        in.reference.output = std::move(full.output);
        in.reference.app_specific_error = full.app_specific_error;
        c.inputs.push_back(std::move(in));
      }
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // --- measured loop: rounds of storm phases and app runs until time ---
  // The loop runs until --seconds of undisturbed rounds (and at least 100
  // undisturbed waves at nproc-1 workers, so the p90 has 10 beyond it) are
  // in, or until 1.25 times --seconds have passed.
  Timings storm_1w_ms, storm_nw_ms, storm_submit_ms, storm_taskwait_ms;
  Timings traced_nw_ms, untraced_nw_ms;
  SchedTotals sched_totals;
  std::map<std::string, AppSamples> samples;
  std::vector<double> round_steal, round_s;
  double clean_s = 0;
  std::size_t clean_nw_waves = 0;
  const std::uint64_t loop_start = now_ns();
  const auto cap = loop_start + static_cast<std::uint64_t>(1.25 * args.seconds * 1e9);
  SpanLog no_spans(false);
  for (std::size_t round = 0;
       (clean_s < args.seconds || clean_nw_waves < 100) && now_ns() < cap; ++round) {
    const CpuTicks ticks = read_cpu_ticks();
    const std::uint64_t round_t0 = now_ns();
    for (int phase = 0; phase < kStormPhases; ++phase) {
      const StormPhase one =
          on_fresh_thread([&] { return run_storm_phase(1, storm_inputs, spans, nullptr); });
      outcome.record(one.outputs_ok, true, "storm 1w: output mismatch");
      storm_1w_ms.add(round, one.wave_ms);

      // Traced runs alternate a spans-off phase with the spans-on one; the
      // two give trace.overhead_pct.
      const bool untraced_first = args.trace && (round + phase) % 2 == 1;
      auto untraced = [&] {
        const StormPhase plain = on_fresh_thread(
            [&] { return run_storm_phase(workers, storm_inputs, no_spans, nullptr); });
        outcome.record(plain.outputs_ok, true, "storm nw: output mismatch");
        untraced_nw_ms.add(round, plain.wave_ms);
      };
      if (untraced_first) untraced();
      const StormPhase many = on_fresh_thread(
          [&] { return run_storm_phase(workers, storm_inputs, spans, &sched_totals); });
      outcome.record(many.outputs_ok, true, "storm nw: output mismatch");
      storm_nw_ms.add(round, many.wave_ms);
      storm_submit_ms.add(round, many.submit_ms);
      storm_taskwait_ms.add(round, many.taskwait_ms);
      if (args.trace) {
        traced_nw_ms.add(round, many.wave_ms);
        if (!untraced_first) untraced();
      }
    }

    for (AppCase& c : cases) {
      AppSamples& s = samples[c.name];
      for (unsigned r = 0; r < reps_per_round(c.name); ++r) {
        const std::size_t set = c.next++ % c.inputs.size();
        const AppCase::Input& in = c.inputs[set];
        // A fresh shuffle order every run, so one run samples many of the
        // engine's input-byte selections.
        RunConfig config = c.config;
        config.shuffle_seed = atm::splitmix64(shuffle_seed + s.runs);
        double ms = 0;
        RunResult result = on_fresh_thread([&] {
          SpanScope span(spans, "app_run", c.name);
          const std::uint64_t t0 = now_ns();
          RunResult r = in.app->run(config);
          ms = static_cast<double>(now_ns() - t0) * 1e-6;
          return r;
        });
        s.solve_ms.add(round, ms);
        s.overhead_ms.add(round, ms - result.wall_seconds * 1e3);
        s.log.push_back({static_cast<double>(round), static_cast<double>(set), ms});
        const auto& k = result.counters;
        s.executed += static_cast<double>(k.executed);
        s.total_tasks += static_cast<double>(k.executed + k.memoized + k.deferred);
        bool ok = false;
        if (memo) {
          const double err = in.app->program_error(in.reference, result);
          ok = err <= in.app->tolerance_error_bound();
          s.errors.push_back(err);
          outcome.record(ok, false,
                         c.name + ": error " + json_number(err) + " over bound " +
                             json_number(in.app->tolerance_error_bound()) + " (p " +
                             json_number(result.final_p) + ")");
        } else {
          ok = bit_identical(result.output, in.reference.output);
          outcome.record(ok, true, c.name + ": ATM-off output differs from 1-worker reference");
        }
        ++s.runs;
        s.ok_runs += ok ? 1 : 0;
        if (args.trace) {
          result.output.clear();
          s.traced_runs.push_back(std::move(result));
        }
      }
    }
    round_steal.push_back(steal_share(ticks, read_cpu_ticks()));
    round_s.push_back(static_cast<double>(now_ns() - round_t0) * 1e-9);
    if (round_steal.back() <= kMaxRoundSteal) {
      clean_s += round_s.back();
      clean_nw_waves += kStormPhases * kStormWaves;
    }
  }
  const double loop_s = static_cast<double>(now_ns() - loop_start) * 1e-9;

  // Timings come from every undisturbed round; when those cover less than
  // half of --seconds, the least-disturbed other rounds are added until they
  // do (a host that is busy for the whole run still yields figures).
  std::vector<std::size_t> by_steal(round_steal.size());
  for (std::size_t r = 0; r < by_steal.size(); ++r) by_steal[r] = r;
  std::stable_sort(by_steal.begin(), by_steal.end(), [&](std::size_t a, std::size_t b) {
    return round_steal[a] < round_steal[b];
  });
  std::vector<bool> kept(round_steal.size(), false);
  double kept_s = 0, kept_steal_max = 0;
  for (const std::size_t r : by_steal) {
    if (round_steal[r] > kMaxRoundSteal && kept_s >= args.seconds / 2) break;
    kept[r] = true;
    kept_s += round_s[r];
    kept_steal_max = round_steal[r];
  }

  MetricSet metrics;
  std::size_t app_runs = 0, ok_runs = 0;
  double executed = 0, total_tasks = 0;
  for (const auto& [name, s] : samples) {
    app_runs += s.runs;
    ok_runs += s.ok_runs;
    executed += s.executed;
    total_tasks += s.total_tasks;
  }

  if (!args.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics.add("setup_s", median(setup_s), "s", setup_s.size());
    metrics.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB", 1);
    const std::vector<double> nw = storm_nw_ms.from(kept);
    const std::vector<double> one = storm_1w_ms.from(kept);
    metrics.add("storm_tasks_per_s", kStormTasks / (median(nw) * 1e-3), "1/s", nw.size());
    metrics.add("storm_tasks_per_s_1w", kStormTasks / (median(one) * 1e-3), "1/s", one.size());
    metrics.add("storm_wave_ms_p90", percentile(nw, 0.9), "ms", nw.size());
    for (const char* app : kAppNames) {
      const std::vector<double> v = samples[app].solve_ms.from(kept);
      metrics.add(std::string("solve_ms.") + app, median(v), "ms", v.size());
    }
    metrics.add("executed_pct", 100.0 * ratio(executed, total_tasks), "%",
                static_cast<std::size_t>(total_tasks));
    metrics.add("correct_pct", 100.0 * ratio(static_cast<double>(ok_runs),
                                             static_cast<double>(app_runs)),
                "%", app_runs);
  } else {
    // --- speedup pass: ATM off vs Dynamic exact, interleaved ---
    std::map<std::string, std::vector<RunResult>> exact_runs;
    std::map<std::string, std::vector<double>> exact_errors;
    std::map<std::string, double> speedup;
    for (AppCase& c : cases) {
      const App& app = *c.inputs.front().app;
      std::vector<double> off_ms, exact_ms;
      RunConfig off{.threads = workers, .shuffle_seed = shuffle_seed};
      RunConfig exact = off;
      exact.mode = atm::AtmMode::Dynamic;
      auto timed_run = [&app](const RunConfig& config, std::vector<double>& ms) {
        return on_fresh_thread([&] {
          const std::uint64_t t0 = now_ns();
          RunResult r = app.run(config);
          ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
          return r;
        });
      };
      for (int r = 0; r < 3; ++r) {
        const RunResult ref = timed_run(off, off_ms);
        RunResult result = timed_run(exact, exact_ms);
        const double err = app.program_error(ref, result);
        exact_errors[c.name].push_back(err);
        outcome.record(err <= app.tolerance_error_bound(), false,
                       c.name + " (speedup pass): error " + json_number(err));
        result.output.clear();
        exact_runs[c.name].push_back(std::move(result));
      }
      speedup[c.name] = ratio(median(off_ms), median(exact_ms));
    }

    // ATM registry metrics come from the workload's own ATM runs; the
    // ATM-off workload has none, so it reads the speedup pass's.
    std::map<std::string, std::vector<RunResult>*> atm_runs;
    for (AppCase& c : cases) {
      atm_runs[c.name] = memo ? &samples[c.name].traced_runs : &exact_runs[c.name];
    }

    // runtime
    const std::vector<double> submit = storm_submit_ms.from(kept);
    const std::vector<double> wait = storm_taskwait_ms.from(kept);
    metrics.add("runtime.submit_ns", median(submit) * 1e6 / kStormTasks, "ns", submit.size());
    metrics.add("runtime.taskwait_ms", median(wait), "ms", wait.size());
    double overhead = 0;
    for (const char* app : kAppNames) {
      overhead += median(samples[app].overhead_ms.from(kept));
    }
    metrics.add("runtime.run_overhead_ms", overhead, "ms", app_runs);

    // arena
    double slots_peak = sched_totals.arena_slots_peak;
    double dep_exact = 0, dep_tree = 0;
    for (const auto& [name, s] : samples) {
      for (const RunResult& r : s.traced_runs) {
        if (const auto* m = r.metrics.find("arena.slots")) slots_peak = std::max(slots_peak, m->value);
        dep_exact += static_cast<double>(r.atm.dep_exact_hits);
        dep_tree += static_cast<double>(r.atm.dep_tree_fallbacks);
      }
    }
    metrics.add("arena.acquire_release_ns", bench_arena_same_thread(), "ns", 7);
    metrics.add("arena.cross_release_ns", bench_arena_cross_thread(), "ns", 7);
    metrics.add("arena.live_slots_peak", slots_peak, "count", 1);

    // dependence index
    {
      std::vector<float> cells(kStormTasks);
      std::vector<std::vector<rt::DataAccess>> single;
      for (float& c : cells) single.push_back({rt::inout(&c, 1)});
      metrics.add("dep.register_ns", bench_dep_register(single), "ns", 25);
      // Blackscholes shape: six 500-float inputs and one output per task.
      constexpr std::size_t kOptions = 40'000, kBlock = 500;
      std::vector<std::vector<float>> arrays(7, std::vector<float>(kOptions));
      std::vector<std::vector<rt::DataAccess>> multi;
      for (std::size_t b = 0; b < kOptions; b += kBlock) {
        std::vector<rt::DataAccess> acc;
        for (std::size_t a = 0; a < 6; ++a) {
          acc.push_back(rt::in(static_cast<const float*>(arrays[a].data() + b), kBlock));
        }
        acc.push_back(rt::out(arrays[6].data() + b, kBlock));
        multi.push_back(std::move(acc));
      }
      metrics.add("dep.register_multi_ns", bench_dep_register(multi), "ns", 25);
    }
    metrics.add("dep.exact_hit_ratio", ratio(dep_exact, dep_exact + dep_tree), "ratio", app_runs);

    // scheduler
    metrics.add("sched.push_pop_ns", bench_sched(1), "ns", 5);
    metrics.add("sched.contended_pop_ns", bench_sched(workers), "ns", 5);
    const SchedTotals& st = sched_totals;
    metrics.add("sched.steal_success_ratio",
                1.0 - ratio(st.steal_fails, st.steal_attempts), "ratio",
                static_cast<std::size_t>(st.steal_attempts));
    metrics.add("sched.steal_batch_mean", ratio(st.steal_batch_sum, st.steal_batch_count),
                "tasks", static_cast<std::size_t>(st.steal_batch_count));
    metrics.add("sched.tasks_per_inbox_drain", ratio(st.inbox_drained, st.inbox_drains),
                "tasks", static_cast<std::size_t>(st.inbox_drains));
    metrics.add("sched.help_task_share", ratio(st.help_tasks, st.executed), "ratio",
                static_cast<std::size_t>(st.executed));

    // ATM: keys on app-shaped tasks at each app's trained p
    auto trained_p = [&](const char* app) {
      std::vector<double> ps;
      for (const RunResult& r : *atm_runs[app]) ps.push_back(r.final_p);
      const double p = median(ps);
      return p > 0.0 ? p : 1.0;
    };
    {
      const atm::ToleranceSpec exact_spec{};
      const atm::ToleranceSpec tol_spec{.rel = 1e-3, .probes = kToleranceProbes};
      const ShapedTask bs(std::vector<std::size_t>(6, 500), 500, args.seed + 1);
      const ShapedTask km({2048 * 32, 16 * 32}, 16 * 32, args.seed + 2);
      const ShapedTask stencil({96 * 96, 96, 96, 96, 96}, 96 * 96, args.seed + 3);
      const double exact_ns = bench_key(bs, trained_p("blackscholes"), exact_spec) +
                              bench_key(km, trained_p("kmeans"), exact_spec);
      metrics.add("atm.key_ns_per_kb", exact_ns / (bs.input_kb() + km.input_kb()), "ns", 7);
      const double tol_ns = bench_key(stencil, trained_p("jacobi"), tol_spec) +
                            bench_key(stencil, trained_p("gauss-seidel"), tol_spec);
      metrics.add("atm.tol_key_ns_per_kb", tol_ns / (2 * stencil.input_kb()), "ns", 7);
    }
    double hash_ns = 0, keys = 0, copy_ns = 0, saved_bytes = 0, update_sum = 0, update_n = 0;
    double hits = 0, misses = 0, probe_hits = 0, train_hits = 0, train_fails = 0;
    double p_min = 1.0, max_err = 0, mem_bytes = 0;
    std::size_t atm_run_count = 0;
    for (AppCase& c : cases) {
      for (const RunResult& r : *atm_runs[c.name]) {
        ++atm_run_count;
        hash_ns += static_cast<double>(r.atm.hash_ns);
        keys += static_cast<double>(r.atm.keys_computed);
        copy_ns += static_cast<double>(r.atm.copy_out_ns);
        hits += static_cast<double>(r.atm.tht_hits);
        misses += static_cast<double>(r.atm.tht_misses);
        probe_hits += static_cast<double>(r.atm.probe_hits);
        train_hits += static_cast<double>(r.atm.training_hits);
        train_fails += static_cast<double>(r.atm.training_failures);
        p_min = std::min(p_min, r.final_p);
        mem_bytes = std::max(mem_bytes, static_cast<double>(r.atm_memory_bytes));
        for (const auto& m : r.metrics.metrics) {
          const std::string& n = m.name;
          if (n.rfind("atm.type.", 0) != 0) continue;
          if (n.size() > 12 && n.compare(n.size() - 12, 12, ".bytes_saved") == 0) {
            saved_bytes += m.value;
          } else if (n.size() > 10 && n.compare(n.size() - 10, 10, ".update_ns") == 0) {
            update_sum += static_cast<double>(m.hist.sum);
            update_n += static_cast<double>(m.hist.count);
          }
        }
      }
    }
    for (AppCase& c : cases) {
      const std::vector<double>& errs = memo ? samples[c.name].errors : exact_errors[c.name];
      for (const double e : errs) max_err = std::max(max_err, e);
    }
    metrics.add("atm.hash_ns_per_key", ratio(hash_ns, keys), "ns",
                static_cast<std::size_t>(keys));
    const ThtCosts tht = bench_tht();
    metrics.add("atm.tht_hit_ns", tht.hit_ns, "ns", 5);
    metrics.add("atm.tht_miss_ns", tht.miss_ns, "ns", 5);
    metrics.add("atm.tht_insert_ns", tht.insert_ns, "ns", 5);
    metrics.add("atm.tht_probe_ns", tht.probe_ns, "ns", 5);
    metrics.add("atm.copy_out_ns_per_kb", ratio(copy_ns, saved_bytes / 1024.0), "ns",
                atm_run_count);
    metrics.add("atm.update_ns_per_exec", ratio(update_sum, update_n), "ns",
                static_cast<std::size_t>(update_n));
    metrics.add("atm.tht_hit_ratio", ratio(hits, hits + misses), "ratio",
                static_cast<std::size_t>(hits + misses));
    metrics.add("atm.probe_hit_share", ratio(probe_hits, hits), "ratio",
                static_cast<std::size_t>(hits));
    metrics.add("atm.training_fail_ratio", ratio(train_fails, train_hits), "ratio",
                static_cast<std::size_t>(train_hits));
    metrics.add("atm.final_p_min", 100.0 * p_min, "%", atm_run_count);
    metrics.add("atm.max_rel_err", max_err, "rel", atm_run_count);
    metrics.add("atm.memory_mb", mem_bytes / (1024.0 * 1024.0), "MB", atm_run_count);

    // apps: per-task-type execution time (profile_tasks runs)
    for (const char* app : kAppNames) {
      std::map<std::string, std::pair<double, double>> per_type;  // sum ns, count
      for (const RunResult& r : samples[app].traced_runs) {
        for (const auto& m : r.metrics.metrics) {
          const std::string& n = m.name;
          if (n.rfind("task.", 0) != 0 || n.size() < 13 ||
              n.compare(n.size() - 8, 8, ".exec_ns") != 0) {
            continue;
          }
          auto& [sum, count] = per_type[n.substr(5, n.size() - 13)];
          sum += static_cast<double>(m.hist.sum);
          count += static_cast<double>(m.hist.count);
        }
      }
      for (const auto& [type, sc] : per_type) {
        metrics.add(std::string("apps.exec_us.") + app + "." + type,
                    ratio(sc.first, sc.second) * 1e-3, "us",
                    static_cast<std::size_t>(sc.second));
      }
    }

    // obs
    {
      atm::obs::MetricsRegistry registry;
      atm::obs::Counter* counter = registry.counter("bench.counter");
      atm::obs::LatencyHistogram* hist = registry.histogram("bench.hist");
      constexpr std::size_t kOps = 1'000'000;
      metrics.add("obs.counter_inc_ns",
                  bench_concurrent(workers, kOps, [counter](unsigned, std::size_t) { counter->inc(); }),
                  "ns", 5);
      metrics.add("obs.hist_record_ns",
                  bench_concurrent(workers, kOps,
                                   [hist](unsigned t, std::size_t i) { hist->record(i * 37 + t); }),
                  "ns", 5);
      metrics.add("obs.snapshot_us", bench_snapshot_us(workers), "us", 200);
    }
    const std::vector<double> traced = traced_nw_ms.from(kept);
    metrics.add("trace.overhead_pct",
                100.0 * (ratio(median(traced), median(untraced_nw_ms.from(kept))) - 1.0),
                "%", traced.size());

    for (const char* app : kAppNames) {
      metrics.add(std::string("derived.speedup.") + app, speedup[app], "x", 3);
    }

    metrics.add("span.app_run.self_ms", spans.mean_self_ns("app_run") * 1e-6, "ms", app_runs);
    const std::size_t waves = storm_1w_ms.values.size() + storm_nw_ms.values.size();
    metrics.add("span.storm_wave.self_us", spans.mean_self_ns("storm_wave") * 1e-3, "us", waves);
    metrics.add("span.storm_submit.self_us", spans.mean_self_ns("storm_submit") * 1e-3, "us",
                waves);
    metrics.add("span.storm_taskwait.self_us", spans.mean_self_ns("storm_taskwait") * 1e-3,
                "us", waves);
    if (!args.spans_out.empty() && !spans.write_chrome_trace(args.spans_out)) {
      throw std::runtime_error("cannot write " + args.spans_out);
    }
  }

  // Raw app timings, [round, input set, ms] in run order, for offline analysis.
  std::string app_samples = "{";
  for (const char* app : kAppNames) {
    const AppSamples& s = samples[app];
    if (app_samples.size() > 1) app_samples += ", ";
    app_samples += '"';
    app_samples += app;
    app_samples += "\": [";
    for (std::size_t i = 0; i < s.log.size(); ++i) {
      if (i != 0) app_samples += ", ";
      app_samples += '[';
      app_samples += json_number(s.log[i][0]);
      app_samples += ", ";
      app_samples += json_number(s.log[i][1]);
      app_samples += ", ";
      app_samples += json_number(s.log[i][2]);
      app_samples += ']';
    }
    app_samples += "]";
  }
  app_samples += "}";

  std::string steal_log = "[";
  for (std::size_t r = 0; r < round_steal.size(); ++r) {
    if (r != 0) steal_log += ", ";
    steal_log += json_number(round_steal[r]);
  }
  steal_log += "]";
  const auto kept_rounds = static_cast<std::size_t>(std::count(kept.begin(), kept.end(), true));

  std::string failures = "[";
  for (std::size_t i = 0; i < outcome.failures.size(); ++i) {
    if (i != 0) failures += ", ";
    failures += cat({"\"", json_escape(outcome.failures[i]), "\""});
  }
  failures += "]";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"measured_s\": %s, "
      "\"trace\": %d, \"host\": %s, \"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"approx_misses\": %zu, \"failures\": %s, \"rounds\": %zu, \"rounds_kept\": %zu, \"kept_steal_max\": %s, "
      "\"round_steal\": %s, \"app_runs\": %zu, \"app_samples_ms\": %s, \"spans\": %s, "
      "\"metrics\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), json_number(loop_s).c_str(), args.trace ? 1 : 0,
      host_json(workers).c_str(), outcome.correct ? "true" : "false", outcome.attempted,
      outcome.failed, outcome.approx_misses, failures.c_str(), round_steal.size(), kept_rounds,
      json_number(kept_steal_max).c_str(), steal_log.c_str(), app_runs,
      app_samples.c_str(), spans.summary_json().c_str(), metrics.to_json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "atm_perfbench: %s\n", e.what());
    return 2;
  }
}
