// End-to-end benchmark of the skewless operator: one trial of one named
// workload per process, driven through the library's public API only.
// benchmark/run.py starts one process per trial, so every trial runs
// under a fresh randomized address-space layout (the layout alone moved
// steady-threaded trials by 20-30% on the 4-vCPU host this was sized on),
// and aggregates the printed results into the benchmark's metrics.
//
// Load model: a closed loop. One driver thread calls run(), which routes
// each interval as fast as queue (ThreadedEngine) or socket (NetEngine)
// backpressure allows.
//
// A trial generates its interval counts before the clock starts,
// constructs a Controller and an engine (timed as set-up), replays the
// counts through run() (timed as the trial wall), shuts down, and checks
// the engine's state against a reference computed from the generated
// counts. --traced adds per-layer timing from this file around calls into
// each layer's public functions: a Planner decorator, an OperatorLogic
// decorator and a re-timed route_batch replay.
//
// Output: one JSON object with the trial's raw results on stdout. A
// failed check is reported in its "failure" field.

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/assignment.h"
#include "core/controller.h"
#include "core/planners.h"
#include "engine/threaded_engine.h"
#include "engine/workload_source.h"
#include "net/net_engine.h"
#include "workload/operators.h"
#include "workload/synthetic.h"

namespace {

using namespace skewless;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads. Shared settings: a 1M-key domain, Zipf z=1.2, WordCountLogic,
// sketch statistics, MixedPlanner at the default PlannerConfig, 3 workers
// (the driver plus 3 workers fit 4 hardware threads), every other config
// field at its library default.
//
// State is never expired (expire_lag_intervals stays 0): the engines put
// the expiry watermark at (interval+1-lag)·1e6 µs while tuples carry
// wall-clock stamps, so expiry would make state content depend on machine
// speed. Per-key state therefore grows through a trial, which bounds the
// intervals a trial can hold.

constexpr std::uint64_t kKeys = 1'000'000;
constexpr double kSkew = 1.2;
constexpr InstanceId kWorkers = 3;

enum class EngineKind { kThreaded, kNet };

struct Workload {
  const char* name;
  EngineKind engine;
  std::uint64_t tuples_per_interval;
  double fluctuation;
  int intervals;  // per trial
};

// steady-threaded: the data plane (expand/shuffle, route_batch, batching,
//   per-batch fold, sketch slab) does almost all the work; one rebalance
//   at the first boundary, so planner and migration changes should not
//   move it.
// fluctuating-threaded: the paper's workload variance (f=1.0 every
//   interval); a rebalance and heavy-set churn at every boundary, so
//   planner, migration, sketch-roll and straggler changes show here.
// steady-net: the steady stream through forked socket workers with
//   checkpoint recovery on; transport, wire codec and checkpoint path do
//   the work, and routing must equal steady-threaded's.
constexpr Workload kWorkloads[] = {
    {"steady-threaded", EngineKind::kThreaded, 2'000'000, 0.0, 8},
    {"fluctuating-threaded", EngineKind::kThreaded, 500'000, 1.0, 16},
    {"steady-net", EngineKind::kNet, 2'000'000, 0.0, 8},
};

// ---------------------------------------------------------------------------
// Inputs: generated before the clock starts and replayed to the engine.

/// One trial's per-interval counts, stored sparse as (key, count) in
/// ascending key order.
struct TrialInput {
  std::uint64_t seed = 0;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> intervals;
  std::uint64_t tuples = 0;
};

/// Trial `trial`'s input. --seed draws the tuple order (run()'s shuffle
/// seed). The key layout (which key holds which Zipf rank) and the
/// fluctuation path are fixed per trial index instead: one layout is a
/// single sample of θ, migration volume and table size, and drawing it
/// from the seed spread them over seeds by up to 68% (steady θ) and 29%
/// (fluctuating table size) of their median, which would swamp any change
/// to the code. A run still covers one layout per trial.
TrialInput generate(const Workload& w, int trial, std::uint64_t seed) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = kKeys;
  opts.skew = kSkew;
  opts.tuples_per_interval = w.tuples_per_interval;
  opts.fluctuation = w.fluctuation;
  opts.reference_instances = kWorkers;
  opts.seed = 7 + static_cast<std::uint64_t>(trial);
  ZipfFluctuatingSource source(opts);

  TrialInput in;
  in.seed = mix64(seed * 0x9e3779b97f4a7c15ULL +
                  static_cast<std::uint64_t>(trial) + 1);
  for (int i = 0; i < w.intervals; ++i) {
    const IntervalWorkload load = source.next_interval();
    auto& sparse = in.intervals.emplace_back();
    for (std::size_t k = 0; k < load.counts.size(); ++k) {
      if (load.counts[k] == 0) continue;
      sparse.emplace_back(static_cast<std::uint32_t>(k),
                          static_cast<std::uint32_t>(load.counts[k]));
      in.tuples += load.counts[k];
    }
  }
  return in;
}

/// Hands a TrialInput's intervals to run() in order. `before_next(i)`
/// runs when the engine pulls interval i, before the counts are built.
class ReplaySource final : public WorkloadSource {
 public:
  ReplaySource(const TrialInput& input,
               std::function<void(std::size_t)> before_next)
      : input_(input), before_next_(std::move(before_next)) {}

  [[nodiscard]] std::size_t num_keys() const override { return kKeys; }

  [[nodiscard]] IntervalWorkload next_interval() override {
    if (before_next_) before_next_(next_);
    IntervalWorkload load;
    load.counts.assign(kKeys, 0);
    for (const auto& [key, count] : input_.intervals.at(next_)) {
      load.counts[key] = count;
    }
    ++next_;
    return load;
  }

 private:
  const TrialInput& input_;
  std::function<void(std::size_t)> before_next_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Reference check.

struct Reference {
  std::uint64_t checksum = 0;
  std::size_t distinct_keys = 0;
  std::uint64_t tuples = 0;
};

/// run() turns count c of key k into tuples with values 0..c-1, so a
/// key's WordCountState holds count = Σ c and value sum = Σ c(c-1)/2 over
/// the intervals. Its checksum is mix64(count·0x9e37 + value sum); the
/// engines sum mix64(key ^ that) over all keys.
Reference reference_of(const TrialInput& in) {
  std::vector<std::uint64_t> count(kKeys, 0);
  std::vector<std::uint64_t> value_sum(kKeys, 0);
  for (const auto& interval : in.intervals) {
    for (const auto& [key, c] : interval) {
      count[key] += c;
      value_sum[key] += static_cast<std::uint64_t>(c) * (c - 1) / 2;
    }
  }
  Reference ref;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (count[k] == 0) continue;
    ++ref.distinct_keys;
    ref.tuples += count[k];
    ref.checksum += mix64(k ^ mix64(count[k] * 0x9e37ULL + value_sum[k]));
  }
  return ref;
}

struct Outcome {
  std::uint64_t checksum = 0;
  std::size_t state_entries = 0;
  std::uint64_t emitted = 0;
  std::uint64_t processed = 0;
  std::uint64_t outputs = 0;
  std::string engine_error;
  std::uint64_t recoveries = 0;
  bool degraded = false;
};

/// Empty when the outcome matches the reference, else the first mismatch.
std::string verify(const Outcome& o, const Reference& ref) {
  const auto mismatch = [](const char* what, std::uint64_t got,
                           std::uint64_t want) {
    return std::string(what) + " " + std::to_string(got) + " != reference " +
           std::to_string(want);
  };
  if (!o.engine_error.empty()) return "engine failed: " + o.engine_error;
  if (o.recoveries != 0) return mismatch("recoveries", o.recoveries, 0);
  if (o.degraded) return "engine degraded";
  if (o.checksum != ref.checksum) {
    return mismatch("state_checksum", o.checksum, ref.checksum);
  }
  if (o.state_entries != ref.distinct_keys) {
    return mismatch("state entries", o.state_entries, ref.distinct_keys);
  }
  if (o.emitted != ref.tuples) return mismatch("emitted", o.emitted, ref.tuples);
  if (o.processed != ref.tuples) {
    return mismatch("processed", o.processed, ref.tuples);
  }
  if (o.outputs != ref.tuples) return mismatch("outputs", o.outputs, ref.tuples);
  return {};
}

// ---------------------------------------------------------------------------
// Tracing decorators.

/// What the planner decorator saw of one Planner::plan() call.
struct PlanRecord {
  double ms = 0.0;
  std::size_t moves = 0;
  std::size_t table_size = 0;  // N_A' of the plan
};

/// Records every Planner::plan() call of the wrapped planner. Used in
/// every trial: two clock reads per boundary cost nothing measurable,
/// and the plans' table sizes feed the table_entries metric.
class RecordingPlanner final : public Planner {
 public:
  RecordingPlanner(PlannerPtr inner, std::vector<PlanRecord>& records)
      : inner_(std::move(inner)), records_(records) {}

  [[nodiscard]] RebalancePlan plan(const PartitionSnapshot& snap,
                                   const PlannerConfig& config) override {
    const auto t0 = Clock::now();
    RebalancePlan p = inner_->plan(snap, config);
    records_.push_back({seconds_since(t0) * 1e3, p.moves.size(), p.table_size});
    return p;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  PlannerPtr inner_;
  std::vector<PlanRecord>& records_;
};

/// Times every OperatorLogic::process() call per calling thread. Each
/// ThreadedEngine worker thread, or NetEngine worker process (which
/// inherits this object through fork), claims one slot; the slots live
/// in a shared anonymous mapping so forked workers' sums reach the
/// driver.
class TimedLogic final : public OperatorLogic {
 public:
  struct Sums {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
  };

  explicit TimedLogic(std::shared_ptr<const OperatorLogic> inner)
      : inner_(std::move(inner)), id_(next_id_.fetch_add(1) + 1) {
    void* p = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap failed");
    shared_ = new (p) Shared();
  }
  ~TimedLogic() override {
    shared_->~Shared();
    ::munmap(shared_, sizeof(Shared));
  }
  TimedLogic(const TimedLogic&) = delete;
  TimedLogic& operator=(const TimedLogic&) = delete;

  [[nodiscard]] std::unique_ptr<KeyState> make_state() const override {
    return inner_->make_state();
  }
  [[nodiscard]] std::unique_ptr<KeyState> deserialize_state(
      ByteReader& in) const override {
    return inner_->deserialize_state(in);
  }
  Cost process(const Tuple& tuple, KeyState& state,
               Collector& out) const override {
    Slot& slot = my_slot();
    const auto t0 = Clock::now();
    const Cost cost = inner_->process(tuple, state, out);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    // Single writer per slot: relaxed load + store is enough.
    slot.ns.store(slot.ns.load(std::memory_order_relaxed) + ns,
                  std::memory_order_relaxed);
    slot.calls.store(slot.calls.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    return cost;
  }

  /// Per-thread sums; read only after every worker has been joined or
  /// reaped.
  [[nodiscard]] std::vector<Sums> sums() const {
    std::vector<Sums> out;
    const int n = std::min(shared_->claimed.load(), kMaxSlots);
    for (int i = 0; i < n; ++i) {
      out.push_back({shared_->slots[i].ns.load(), shared_->slots[i].calls.load()});
    }
    return out;
  }

 private:
  static constexpr int kMaxSlots = 64;
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};
  };
  struct Shared {
    std::atomic<int> claimed{0};
    Slot slots[kMaxSlots];
  };
  static_assert(std::atomic<int>::is_always_lock_free &&
                    std::atomic<std::uint64_t>::is_always_lock_free,
                "slots are shared across processes");

  Slot& my_slot() const {
    thread_local std::uint64_t owner = 0;
    thread_local Slot* slot = nullptr;
    if (owner != id_) {
      const int i = shared_->claimed.fetch_add(1);
      if (i >= kMaxSlots) {
        std::fprintf(stderr, "TimedLogic: more than %d calling threads\n",
                     kMaxSlots);
        std::abort();
      }
      slot = &shared_->slots[i];
      owner = id_;
    }
    return *slot;
  }

  inline static std::atomic<std::uint64_t> next_id_{0};
  std::shared_ptr<const OperatorLogic> inner_;
  std::uint64_t id_;
  Shared* shared_ = nullptr;
};

/// Rebuilds run()'s key sequence for each interval: count c of key k
/// expands to c tuples in key order, then one Fisher-Yates shuffle per
/// interval draws from a single Xoshiro256(seed) stream, as both
/// engines' run() do.
class KeySequence {
 public:
  explicit KeySequence(std::uint64_t seed) : rng_(seed) {}
  const std::vector<KeyId>& next(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& interval) {
    keys_.clear();
    for (const auto& [key, count] : interval) keys_.insert(keys_.end(), count, key);
    for (std::size_t j = keys_.size(); j > 1; --j) {
      std::swap(keys_[j - 1], keys_[rng_.next_below(j)]);
    }
    return keys_;
  }

 private:
  Xoshiro256 rng_;
  std::vector<KeyId> keys_;
};

// ---------------------------------------------------------------------------
// Trials.

struct TrialTrace {
  std::vector<TimedLogic::Sums> workers;
  double route_ns = 0.0;
  std::uint64_t routed = 0;
  std::uint64_t table_hits = 0;
};

struct TrialResult {
  std::uint64_t offered = 0;
  std::string failure;  // empty = reference check passed
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> stall_ms;  // per boundary
  std::vector<double> theta;     // per interval, observed max θ
  double merge_ms = 0.0;
  std::size_t moves = 0;
  std::size_t rebalances = 0;
  double migrated_bytes = 0.0;
  std::uint64_t plan_digest = 0;
  std::vector<PlanRecord> plans;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::size_t stats_memory_bytes = 0;
  std::uint64_t data_wire_bytes = 0;
  std::uint64_t ctrl_wire_bytes = 0;
  double migration_wire_bytes = 0.0;
  std::uint64_t recoveries = 0;
  TrialTrace trace;
};

struct TrialOptions {
  EngineKind engine = EngineKind::kThreaded;
  InstanceId workers = kWorkers;
  bool traced = false;
  bool corrupt_reference = false;
};

std::unique_ptr<Controller> make_controller(PlannerPtr planner,
                                            InstanceId workers) {
  ControllerConfig cfg;
  cfg.stats_mode = StatsMode::kSketch;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(workers),
                         cfg.planner.max_table_entries),
      std::move(planner), cfg, kKeys);
}

/// Runs the trial's intervals on a constructed engine and collects the
/// engine's reports, the controller's totals and (traced) the routing
/// snapshots the route replay re-times.
template <class Engine>
void drive(Engine& engine, const TrialInput& in, const TrialOptions& opt,
           TrialResult& r) {
  constexpr bool kNet = std::is_same_v<Engine, NetEngine>;
  Controller& ctrl = *engine.controller();

  // The assignment that routes interval i, copied when the engine pulls
  // a later interval. ThreadedEngine::run pulls interval i+1 while
  // boundary i is still open (the next plan is not installed yet);
  // NetEngine::run pulls interval i after boundary i-1 closed. The last
  // threaded interval is never followed by a pull and goes unsampled.
  std::vector<AssignmentFunction> routing;
  std::function<void(std::size_t)> hook;
  if (opt.traced) {
    hook = [&](std::size_t pulled) {
      if (kNet || pulled > 0) routing.push_back(ctrl.assignment());
    };
  }
  ReplaySource source(in, hook);
  const auto t0 = Clock::now();
  const auto reports =
      engine.run(source, static_cast<int>(in.intervals.size()), in.seed);
  r.wall_s = seconds_since(t0);
  engine.shutdown();

  for (const auto& rep : reports) {
    r.stall_ms.push_back(rep.stall_ms);
    r.theta.push_back(rep.max_theta);
    r.merge_ms += rep.merge_ms;
    if (rep.migrated) r.moves += rep.moves;
    r.migration_wire_bytes += rep.migration_wire_bytes;
    if constexpr (kNet) {
      r.data_wire_bytes += rep.data_wire_bytes;
      r.ctrl_wire_bytes += rep.ctrl_wire_bytes;
    }
  }
  if (!reports.empty()) r.stats_memory_bytes = reports.back().stats_memory_bytes;
  r.rebalances = ctrl.rebalance_count();
  r.migrated_bytes = ctrl.total_migrated_bytes();
  r.plan_digest = ctrl.plan_history_digest();
  r.promotions = ctrl.heavy_promotions();
  r.demotions = ctrl.heavy_demotions();

  Outcome o;
  o.checksum = engine.state_checksum();
  o.state_entries = engine.total_state_entries();
  o.emitted = engine.total_emitted();
  o.processed = engine.total_processed();
  o.outputs = engine.total_output_tuples();
  if constexpr (kNet) {
    o.engine_error = engine.error();
    o.recoveries = engine.recoveries();
    o.degraded = engine.degraded();
    r.recoveries = engine.recoveries();
  }
  Reference ref = reference_of(in);
  if (opt.corrupt_reference) ref.checksum ^= 1;  // negative control
  r.failure = verify(o, ref);

  if (!opt.traced) return;
  // Route replay: route_batch in run()'s 1024-tuple chunks over each
  // sampled interval's key sequence, against that interval's assignment.
  KeySequence seq(in.seed);
  std::vector<InstanceId> dest(1024);
  for (std::size_t i = 0; i < routing.size(); ++i) {
    const std::vector<KeyId>& keys = seq.next(in.intervals[i]);
    const AssignmentFunction& af = routing[i];
    const auto t1 = Clock::now();
    for (std::size_t base = 0; base < keys.size(); base += dest.size()) {
      af.route_batch(keys.data() + base,
                     std::min(dest.size(), keys.size() - base), dest.data());
    }
    r.trace.route_ns += seconds_since(t1) * 1e9;
    r.trace.routed += keys.size();
    for (std::size_t base = 0; base < keys.size(); base += dest.size()) {
      const std::size_t n = std::min(dest.size(), keys.size() - base);
      af.table().lookup_batch(keys.data() + base, n, dest.data());
      r.trace.table_hits += static_cast<std::uint64_t>(
          std::count_if(dest.begin(), dest.begin() + static_cast<long>(n),
                        [](InstanceId d) { return d != kNilInstance; }));
    }
  }
}

/// Constructs the controller and the engine `opt` names, hands the
/// engine to `use`, and returns the construction time (set-up).
template <class Use>
double with_engine(const TrialOptions& opt,
                   std::shared_ptr<OperatorLogic> logic, PlannerPtr planner,
                   Use&& use) {
  const auto t0 = Clock::now();
  auto controller = make_controller(std::move(planner), opt.workers);
  if (opt.engine == EngineKind::kThreaded) {
    ThreadedConfig cfg;
    cfg.num_workers = opt.workers;
    ThreadedEngine engine(cfg, std::move(logic), std::move(controller));
    const double setup_s = seconds_since(t0);
    use(engine);
    return setup_s;
  }
  NetEngine engine(NetConfig{}, std::move(logic), std::move(controller));
  const double setup_s = seconds_since(t0);
  use(engine);
  return setup_s;
}

TrialResult run_trial(const TrialInput& in, const TrialOptions& opt) {
  TrialResult r;
  r.offered = in.tuples;
  std::shared_ptr<OperatorLogic> logic = std::make_shared<WordCountLogic>();
  std::shared_ptr<TimedLogic> timed;
  if (opt.traced) {
    timed = std::make_shared<TimedLogic>(logic);
    logic = timed;
  }
  r.setup_s = with_engine(
      opt, logic,
      std::make_unique<RecordingPlanner>(std::make_unique<MixedPlanner>(),
                                         r.plans),
      [&](auto& engine) { drive(engine, in, opt, r); });
  if (timed) r.trace.workers = timed->sums();
  return r;
}

/// Constructs and tears down an engine without running it: extra set-up
/// samples, so setup_s is a median over many constructions.
double setup_only(const TrialOptions& opt) {
  return with_engine(opt, std::make_shared<WordCountLogic>(),
                     std::make_unique<MixedPlanner>(), [](auto& engine) {
                       if constexpr (std::is_same_v<
                                         std::decay_t<decltype(engine)>,
                                         NetEngine>) {
                         if (!engine.ok()) {
                           throw std::runtime_error("net set-up failed: " +
                                                    engine.error());
                         }
                       }
                     });
}

// ---------------------------------------------------------------------------
// Output: one JSON object with the trial's raw results, aggregated by
// run.py.

/// Peak resident set of this process, plus the largest reaped child (the
/// net engine's worker processes), in KiB.
double peak_rss_kb() {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss) +
         static_cast<double>(children.ru_maxrss);
}

/// %.17g round-trips every double, so θ bit patterns survive the trip.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
std::string num(std::uint64_t v) { return std::to_string(v); }

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  out += '"';
  return out;
}

std::string list(const std::vector<double>& v) {
  std::string out = "[";
  for (const double x : v) {
    if (out.size() > 1) out += ", ";
    out += num(x);
  }
  out += ']';
  return out;
}

void print_trial(const TrialResult& r) {
  // Appends instead of operator+ chains: GCC 12 raises a false -Wrestrict
  // on the latter.
  std::string plans = "[";
  for (const PlanRecord& p : r.plans) {
    if (plans.size() > 1) plans += ", ";
    plans += '[';
    plans += num(p.ms);
    plans += ", ";
    plans += num(p.moves);
    plans += ", ";
    plans += num(p.table_size);
    plans += ']';
  }
  plans += ']';
  std::string workers = "[";
  for (const TimedLogic::Sums& w : r.trace.workers) {
    if (workers.size() > 1) workers += ", ";
    workers += '[';
    workers += num(w.ns);
    workers += ", ";
    workers += num(w.calls);
    workers += ']';
  }
  workers += ']';
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.plan_digest));
  std::printf(
      "{\n%s  \"offered\": %s,\n  \"failure\": %s,\n  \"setup_s\": %s,\n"
      "  \"wall_s\": %s,\n  \"stall_ms\": %s,\n  \"theta\": %s,\n"
      "  \"merge_ms\": %s,\n  \"moves\": %s,\n  \"rebalances\": %s,\n"
      "  \"migrated_bytes\": %s,\n  \"plan_digest\": \"%s\",\n"
      "  \"plans\": %s,\n  \"promotions\": %s,\n  \"demotions\": %s,\n"
      "  \"stats_memory_bytes\": %s,\n  \"data_wire_bytes\": %s,\n"
      "  \"ctrl_wire_bytes\": %s,\n  \"migration_wire_bytes\": %s,\n"
      "  \"recoveries\": %s,\n  \"workers\": %s,\n  \"route_ns\": %s,\n"
      "  \"routed\": %s,\n  \"table_hits\": %s,\n  \"peak_rss_kb\": %s\n}\n",
      bench::env_json().c_str(), num(r.offered).c_str(),
      quoted(r.failure).c_str(), num(r.setup_s).c_str(),
      num(r.wall_s).c_str(), list(r.stall_ms).c_str(), list(r.theta).c_str(),
      num(r.merge_ms).c_str(), num(r.moves).c_str(),
      num(r.rebalances).c_str(), num(r.migrated_bytes).c_str(), digest,
      plans.c_str(), num(r.promotions).c_str(), num(r.demotions).c_str(),
      num(r.stats_memory_bytes).c_str(), num(r.data_wire_bytes).c_str(),
      num(r.ctrl_wire_bytes).c_str(), num(r.migration_wire_bytes).c_str(),
      num(r.recoveries).c_str(), workers.c_str(), num(r.trace.route_ns).c_str(),
      num(r.trace.routed).c_str(), num(r.trace.table_hits).c_str(),
      num(peak_rss_kb()).c_str());
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  int trial = 0;
  int setup_samples = 0;
  TrialOptions options;
  bool smoke = false;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: skewless_e2e --workload NAME --seed N --trial T [--traced]\n"
      "                    [--workers W] [--engine threaded|net] [--smoke]\n"
      "                    [--corrupt-reference]\n"
      "       skewless_e2e --workload NAME --setup-samples N\n"
      "Runs one trial (or N engine constructions) and prints the raw\n"
      "results as JSON; benchmark/run.py aggregates them.\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool engine_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    const auto count = [&]() {
      const long v = std::strtol(value().c_str(), nullptr, 10);
      if (v < 0 || v > 1'000'000) usage();
      return static_cast<int>(v);
    };
    if (flag == "--workload") {
      const std::string name = value();
      for (const auto& w : kWorkloads) {
        if (name == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) usage();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--trial") {
      a.trial = count();
    } else if (flag == "--setup-samples") {
      a.setup_samples = count();
    } else if (flag == "--traced") {
      a.options.traced = true;
    } else if (flag == "--workers") {
      a.options.workers = static_cast<InstanceId>(count());
      if (a.options.workers < 1) usage();
    } else if (flag == "--engine") {
      const std::string e = value();
      if (e != "threaded" && e != "net") usage();
      a.options.engine = e == "net" ? EngineKind::kNet : EngineKind::kThreaded;
      engine_set = true;
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--corrupt-reference") {
      a.options.corrupt_reference = true;
    } else {
      usage();
    }
  }
  if (a.workload == nullptr) usage();
  if (!engine_set) a.options.engine = a.workload->engine;
  return a;
}

int run(const Args& args) {
  if (args.setup_samples > 0) {
    std::vector<double> samples;
    for (int i = 0; i < args.setup_samples; ++i) {
      samples.push_back(setup_only(args.options));
    }
    std::printf("{\"setup_s\": %s}\n", list(samples).c_str());
    return 0;
  }
  Workload w = *args.workload;
  if (args.smoke) {
    // Self-test size: same code path, a fraction of the work.
    w.tuples_per_interval /= 20;
    w.intervals = 3;
  }
  const TrialInput in = generate(w, args.trial, args.seed);
  const TrialResult r = run_trial(in, args.options);
  if (!r.failure.empty()) {
    std::fprintf(stderr, "reference check failed: %s\n", r.failure.c_str());
  }
  print_trial(r);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skewless_e2e: %s\n", e.what());
    return 1;
  }
}
