// Repo benchmark binary. Runs one workload for a fixed wall-clock window and
// prints one JSON document on stdout: the run manifest, raw timing samples,
// exact counts, output-check verdicts and (traced runs) per-layer values.
// perfbench/run.py builds this binary, reduces the samples to the metrics
// named in BENCHMARK.json and prints the result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Workloads (see perfbench/README.md for why each was chosen):
//   train-resnet12-fp32   recommended resnet12, SAF, remap-d, fp32
//   train-squeezenet-q4   recommended squeezenet, SAF, remap-d, 4-bit int8
//   fleet-migrate         4 graded chips, 3 jobs, forced + health migration
//
// Every module is measured from outside, by timing calls into its public
// functions, and by reading back the counters and spans the library already
// emits. Thread count comes from REMAPD_THREADS.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bist/controller.hpp"
#include "fleet/scheduler.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/gemm_kernel.hpp"
#include "trainer/scenarios.hpp"
#include "util/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using namespace remapd;

// ---------------------------------------------------------------- JSON out

std::string jstr(const std::string& s) {
  return "\"" + telemetry::json_escape(s) + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jarr(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + jnum(v[i]);
  return s + "]";
}

/// Insertion-ordered JSON object of pre-rendered values.
struct JObj {
  std::vector<std::pair<std::string, std::string>> kv;
  JObj& raw(const std::string& k, std::string v) {
    kv.emplace_back(k, std::move(v));
    return *this;
  }
  JObj& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  JObj& str(const std::string& k, const std::string& v) {
    return raw(k, jstr(v));
  }
  [[nodiscard]] std::string dump() const {
    std::string s = "{";
    for (std::size_t i = 0; i < kv.size(); ++i)
      s += (i ? "," : "") + jstr(kv[i].first) + ":" + kv[i].second;
    return s + "}";
  }
};

// ------------------------------------------------------------ bench spans

/// One span of the benchmark's own: a timed call into one module. `cause`
/// is the id of the enclosing benchmark span (0 at top level).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t cause = 0;
  std::string name;
  std::string layer;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Times calls and, while recording, keeps their spans in memory.
class SpanLog {
 public:
  bool recording = false;

  /// Run `fn` as a span `name` of module `layer`; returns its seconds.
  template <class Fn>
  double time(const std::string& name, const char* layer, Fn&& fn) {
    Span span{++next_id_, open_.empty() ? 0 : open_.back(), name, layer,
              telemetry::now_ns(), 0};
    open_.push_back(span.id);
    struct Pop {
      std::vector<std::uint64_t>& open;
      ~Pop() { open.pop_back(); }
    } pop{open_};
    fn();
    span.dur_ns = telemetry::now_ns() - span.ts_ns;
    if (recording) spans_.push_back(span);
    return static_cast<double>(span.dur_ns) * 1e-9;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> open_;
  std::vector<Span> spans_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------- checks

/// One output check tallied over a run: how often it was made, how often
/// it failed, and the first failure's description.
struct Check {
  std::size_t seen = 0;
  std::size_t bad = 0;
  std::string first_failure;
  void add(bool ok, const std::string& why = "") {
    ++seen;
    if (!ok && bad++ == 0) first_failure = why;
  }
  [[nodiscard]] std::string json(const std::string& name) const {
    std::string detail = std::to_string(bad) + " of " +
                         std::to_string(seen) + " failed";
    if (bad) detail += "; first: " + first_failure;
    return JObj()
        .str("name", name)
        .raw("ok", seen > 0 && bad == 0 ? "true" : "false")
        .str("detail", detail)
        .dump();
  }
};

/// Bitwise equality of two epoch histories (DESIGN §9: results are a pure
/// function of the problem, never of the thread count).
template <class T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool same_history(const std::vector<EpochRecord>& a,
                  const std::vector<EpochRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const EpochRecord& x = a[i];
    const EpochRecord& y = b[i];
    if (x.epoch != y.epoch || !same_bits(x.train_loss, y.train_loss) ||
        !same_bits(x.train_accuracy, y.train_accuracy) ||
        !same_bits(x.test_accuracy, y.test_accuracy) ||
        x.remaps != y.remaps ||
        !same_bits(x.mean_density_est, y.mean_density_est) ||
        !same_bits(x.max_density_est, y.max_density_est) ||
        x.total_faults != y.total_faults || x.new_faults != y.new_faults ||
        x.bist_cycles != y.bist_cycles || x.new_upsets != y.new_upsets ||
        x.live_upsets != y.live_upsets ||
        x.refreshed_cells != y.refreshed_cells ||
        x.refresh_cycles != y.refresh_cycles)
      return false;
  }
  return true;
}

bool finite_losses(const std::vector<EpochRecord>& h) {
  return std::all_of(h.begin(), h.end(), [](const EpochRecord& r) {
    return std::isfinite(r.train_loss);
  });
}

double acc_last3(const std::vector<EpochRecord>& h) {
  const std::size_t k = std::min<std::size_t>(3, h.size());
  double s = 0.0;
  for (std::size_t i = h.size() - k; i < h.size(); ++i)
    s += h[i].test_accuracy;
  return k ? s / static_cast<double>(k) : 0.0;
}

// ---------------------------------------------------------- host probes

/// Where the spins' results go, so the compiler cannot drop them.
volatile double g_spin_sink = 0.0;

/// Fixed compute-bound spin.
double spin(std::uint64_t iters) {
  double x = 1.0;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

/// Parallel capacity: k threads each running the spin, against one thread
/// running it once. k x T1 / Tk; 1.0 means no parallel capacity at all.
double capacity_probe(std::size_t k) {
  constexpr std::uint64_t kIters = 20'000'000;
  std::vector<double> sink(k, 0.0);
  auto run = [&](std::size_t threads) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
      pool.emplace_back([&sink, t] { sink[t] = spin(kIters); });
    for (std::thread& th : pool) th.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  std::vector<double> t1, tk;
  for (int r = 0; r < 3; ++r) {
    t1.push_back(run(1));
    tk.push_back(run(k));
  }
  g_spin_sink = sum(sink);
  return static_cast<double>(k) * median(t1) / median(tk);
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------- workloads

/// Domain tags separating the benchmark's derived seed streams.
constexpr std::uint64_t kTrialTag = 0x7472;    // one stream per trial
constexpr std::uint64_t kReplayTag = 0x7270;   // replay batch shuffle
constexpr std::uint64_t kProbeTag = 0x7072;    // fault-injection probe

std::uint64_t trial_seed(std::uint64_t seed, std::size_t trial) {
  return Rng::derive_seed(Rng::derive_seed(seed, kTrialTag), trial);
}

TrainerConfig training_config(const std::string& workload,
                              std::uint64_t seed) {
  const bool q4 = workload == "train-squeezenet-q4";
  TrainerConfig cfg = recommended_config(q4 ? "squeezenet" : "resnet12");
  apply_fault_model(cfg, "saf");
  cfg.policy = "remap-d";
  cfg.seed = seed;
  if (q4) {
    cfg.quant.enabled = true;
    cfg.quant.cell_bits = 4;
    cfg.quant.int8_gemm = true;
  }
  return cfg;
}

/// Four chips of graded native density and wear; the scheduler's health
/// score drives jobs off the worn ones.
std::vector<fleet::ChipSpec> fleet_chips(std::uint64_t seed) {
  std::vector<fleet::ChipSpec> chips;
  for (std::size_t i = 0; i < 4; ++i) {
    fleet::ChipSpec c;
    c.name = "chip" + std::to_string(i);
    c.native_fault_density = 0.002 * static_cast<double>(i);
    c.wear_xbar_fraction = 0.03 * static_cast<double>(i);
    c.wear_cell_fraction = 0.004 * static_cast<double>(i);
    c.seed = Rng::derive_seed(seed, 100 + i);
    chips.push_back(c);
  }
  return chips;
}

/// Three jobs of six one-batch epochs, resnet12 / squeezenet alternating,
/// mixed policies. Short jobs keep live migration (forced at epoch 1, then
/// health-driven) at a fifth or more of the fleet's host time.
std::vector<fleet::JobSpec> fleet_jobs(std::uint64_t seed) {
  const char* policies[] = {"remap-d", "static", "remap-d"};
  std::vector<fleet::JobSpec> jobs;
  for (std::size_t i = 0; i < 3; ++i) {
    fleet::JobSpec j;
    j.name = "job" + std::to_string(i);
    j.model = i % 2 ? "squeezenet" : "resnet12";
    j.policy = policies[i];
    j.epochs = 6;
    j.train = 32;
    j.test = 64;
    j.seed = Rng::derive_seed(seed, i);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

fleet::SchedulerConfig fleet_sched_config() {
  fleet::SchedulerConfig cfg;
  cfg.policy = fleet::SchedPolicy::kFifo;
  cfg.slice_epochs = 1;
  cfg.force_migrate_at_epoch = 1;
  cfg.migrate_below = 0.8;
  return cfg;
}

Dataset test_set(const TrainerConfig& cfg) {
  SynthSpec s = cfg.data;
  s.seed = cfg.seed;
  return make_synthetic(s).test;
}

// ---------------------------------------------------- per-module probes

const char* layer_kind(Layer& l) {
  if (dynamic_cast<Conv2d*>(&l)) return "conv";
  if (dynamic_cast<ResidualBlock*>(&l) || dynamic_cast<FireModule*>(&l))
    return "block";
  if (dynamic_cast<BatchNorm*>(&l)) return "bn";
  if (dynamic_cast<ReLU*>(&l)) return "relu";
  if (dynamic_cast<MaxPool2d*>(&l) || dynamic_cast<GlobalAvgPool*>(&l))
    return "pool";
  if (dynamic_cast<Linear*>(&l)) return "linear";
  return "other";
}

constexpr const char* kKinds[] = {"conv", "block", "bn",
                                  "relu", "pool",  "linear"};

using Values = std::map<std::string, double>;

/// Replay one epoch of training batches through the top-level children of
/// `model`, timing each child's forward and backward by kind, the loss and
/// an SGD step. Mutates the model (weights, BN statistics).
double replay_epoch(Model& model, const TrainerConfig& cfg, SpanLog& log,
                    Values& out) {
  SynthSpec spec = cfg.data;
  spec.seed = cfg.seed;
  const TrainTest data = make_synthetic(spec);
  Rng rng(Rng::derive_seed(cfg.seed, kReplayTag));
  Batcher batcher(data.train, cfg.batch_size, rng);
  batcher.start_epoch();
  Sgd sgd(model.params(), cfg.sgd);
  const auto& kids = model.net->children();
  std::map<std::string, double> fwd, bwd;
  double loss_s = 0.0, sgd_s = 0.0;
  for (std::size_t b = 0; b < batcher.batches_per_epoch(); ++b) {
    const Batch batch = batcher.get(b);
    Tensor x = batch.images;
    for (const LayerPtr& k : kids) {
      const std::string kind = layer_kind(*k);
      fwd[kind] += log.time("nn.fwd." + kind, "nn",
                            [&] { x = k->forward(x, true); });
    }
    Tensor dy;
    loss_s += log.time("nn.loss", "nn", [&] {
      dy = softmax_cross_entropy(x, batch.labels).dlogits;
    });
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      const std::string kind = layer_kind(**it);
      bwd[kind] += log.time("nn.bwd." + kind, "nn",
                            [&] { dy = (*it)->backward(dy); });
    }
    sgd_s += log.time("nn.sgd", "nn", [&] { sgd.step(); });
  }
  double total = loss_s + sgd_s;
  for (const char* kind : kKinds) {
    out[std::string("nn.fwd.") + kind + "_s"] = fwd[kind];
    out[std::string("nn.bwd.") + kind + "_s"] = bwd[kind];
  }
  for (const auto& [k, v] : fwd) total += v;
  for (const auto& [k, v] : bwd) total += v;
  out["nn.loss_s"] = loss_s;
  out["nn.sgd_s"] = sgd_s;
  return total;
}

/// Time calls into the crossbar mapper, BIST, fault injection and
/// evaluation on a trained trainer: each value is the median of three
/// calls. Fault injection runs last because it changes the array.
void probe_modules(FaultAwareTrainer& tr, const Dataset& test, SpanLog& log,
                   Values& out) {
  const TrainerConfig& cfg = tr.config();
  std::vector<FaultableLayer*> layers = tr.model().faultable();
  // The trainer's default conductance full scale: 4 x weight RMS, >= 0.05.
  std::vector<float> w_max;
  for (FaultableLayer* l : layers) {
    const Tensor& w = l->weight_param().value;
    double sq = 0.0;
    for (std::size_t i = 0; i < w.numel(); ++i)
      sq += static_cast<double>(w[i]) * w[i];
    const double rms = std::sqrt(sq / std::max<std::size_t>(w.numel(), 1));
    w_max.push_back(std::max(0.05f, static_cast<float>(4.0 * rms)));
  }
  std::vector<double> eval_s, view_s, survey_s, inject_s;
  std::uint64_t cycles = 0;
  for (int r = 0; r < 3; ++r) {
    eval_s.push_back(log.time("nn.eval", "nn",
                              [&] { evaluate_accuracy(tr.model(), test); }));
    view_s.push_back(log.time("xbar.view_build", "xbar", [&] {
      for (std::size_t l = 0; l < layers.size(); ++l)
        for (Phase p : {Phase::kForward, Phase::kBackward})
          (void)tr.mapper().build_fault_view(l, p, w_max[l], cfg.mapping);
    }));
    survey_s.push_back(log.time("bist.survey", "bist", [&] {
      BistController bist;
      (void)bist.survey(tr.rcs(), &cycles);
    }));
  }
  Rng rng(Rng::derive_seed(cfg.seed, kProbeTag));
  FaultInjector injector(cfg.faults, rng);
  for (int r = 0; r < 3; ++r)
    inject_s.push_back(log.time("xbar.inject", "xbar", [&] {
      (void)injector.inject_post_deployment(tr.rcs());
    }));
  out["nn.eval_s"] = median(eval_s);
  out["xbar.view_build_s"] = median(view_s);
  out["bist.survey_s"] = median(survey_s);
  out["bist.survey_cycles"] = static_cast<double>(cycles);
  out["xbar.inject_s"] = median(inject_s);
  out["xbar.crossbars"] = static_cast<double>(tr.rcs().total_crossbars());
}

/// Construction and deployment cost of one trainer, timed apart from any
/// run (for the fleet, whose scheduler builds trainers internally).
void probe_setup(const TrainerConfig& cfg, SpanLog& log, Values& out) {
  std::vector<double> synth_s, ctor_s, deploy_s;
  for (int r = 0; r < 3; ++r) {
    SynthSpec s = cfg.data;
    s.seed = cfg.seed;
    synth_s.push_back(
        log.time("data.synth", "data", [&] { (void)make_synthetic(s); }));
    std::unique_ptr<FaultAwareTrainer> tr;
    ctor_s.push_back(log.time("trainer.ctor", "trainer", [&] {
      tr = std::make_unique<FaultAwareTrainer>(cfg);
    }));
    deploy_s.push_back(
        log.time("trainer.deploy", "trainer", [&] { tr->begin_training(); }));
  }
  out["data.synth_s"] = median(synth_s);
  out["trainer.ctor_s"] = median(ctor_s);
  out["trainer.deploy_s"] = median(deploy_s);
}

// ------------------------------------------- program telemetry read-back

/// Module a span the library emits belongs to.
const char* program_layer(const std::string& name, const std::string& cat) {
  if (name == "forward" || name == "backward" || name == "sgd-step")
    return "nn";
  if (name == "array-write") return "quant";
  if (name == "bist-survey") return "bist";
  if (name == "remap") return "core";
  if (name == "view-refresh") return "xbar";
  if (name == "epoch" || name == "evaluate") return "trainer";
  if (name == "checkpoint" || name.rfind("fleet.migrate.", 0) == 0)
    return "ckpt";
  if (cat == "noc") return "noc";
  return "trainer";
}

/// True when registry key `k` is `name` under any job label ("name" or
/// "job:<j>/name").
bool label_blind_match(const std::string& k, const std::string& name) {
  return k == name || (k.size() > name.size() &&
                       k.compare(k.size() - name.size() - 1, name.size() + 1,
                                 "/" + name) == 0);
}

/// Sum of a counter over every job label.
double counter_total(const telemetry::RegistrySnapshot& snap,
                     const std::string& name) {
  double v = 0.0;
  for (const auto& [k, c] : snap.counters)
    if (label_blind_match(k, name)) v += static_cast<double>(c);
  return v;
}

/// Sum of a histogram's samples, in the same label-blind way. The kernel
/// histograms are registered under whatever label is active at first use.
double histogram_sum(const telemetry::RegistrySnapshot& snap,
                     const std::string& name) {
  double v = 0.0;
  for (const auto& [k, h] : snap.histograms)
    if (label_blind_match(k, name)) v += static_cast<double>(h.sum);
  return v;
}

/// Per-layer values from the library's own counters, divided by `per`
/// (epochs for training workloads, fleet runs for the fleet); `unit_s` is
/// the host seconds of one such unit, the base of tensor.gflop_per_s.
void read_counters(const telemetry::RegistrySnapshot& snap, double per,
                   double unit_s, Values& out) {
  const double gemm_gflop = counter_total(snap, "tensor.gemm.flops") * 1e-9;
  const double fused_gflop =
      counter_total(snap, "nn.conv.fused_flops") * 1e-9;
  const double int8_gflop = counter_total(snap, "nn.conv.int8_flops") * 1e-9;
  out["tensor.gemm.calls"] = counter_total(snap, "tensor.gemm.calls") / per;
  out["tensor.gemm.gflop"] = gemm_gflop / per;
  out["tensor.gemm.s"] = histogram_sum(snap, "tensor.gemm.ns") * 1e-9 / per;
  out["tensor.im2col.calls"] =
      counter_total(snap, "tensor.im2col.calls") / per;
  out["tensor.im2col.s"] =
      histogram_sum(snap, "tensor.im2col.ns") * 1e-9 / per;
  out["tensor.col2im.calls"] =
      counter_total(snap, "tensor.col2im.calls") / per;
  out["tensor.col2im.s"] =
      histogram_sum(snap, "tensor.col2im.ns") * 1e-9 / per;
  out["nn.conv.fused_gflop"] = fused_gflop / per;
  out["nn.conv.int8_gflop"] = int8_gflop / per;
  out["tensor.gflop_per_s"] =
      unit_s > 0 ? (gemm_gflop + fused_gflop + int8_gflop) / per / unit_s
                 : 0.0;
}

/// Per-name span seconds of the library's events inside [t0, t1).
std::map<std::string, double> span_seconds(
    const std::vector<telemetry::TraceEvent>& evs, std::uint64_t t0,
    std::uint64_t t1) {
  std::map<std::string, double> s;
  for (const auto& e : evs)
    if (e.ph == 'X' && e.ts_ns >= t0 && e.ts_ns < t1)
      s[e.name] += static_cast<double>(e.dur_ns) * 1e-9;
  return s;
}

/// Chrome-trace JSON of the benchmark's spans merged with the library's
/// events. Every event carries its module ("layer"); a library event's
/// "cause" is the innermost benchmark span on the same thread enclosing it.
void write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<telemetry::TraceEvent>& evs,
                 std::uint32_t main_tid) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  auto us = [](std::uint64_t ns) {
    return jnum(static_cast<double>(ns) / 1e3);
  };
  out << "[";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    out << (first ? "\n" : ",\n") << ev;
    first = false;
  };
  for (const Span& s : spans)
    emit(JObj()
             .str("name", s.name)
             .str("cat", "perfbench")
             .str("ph", "X")
             .raw("ts", us(s.ts_ns))
             .raw("dur", us(s.dur_ns))
             .num("pid", 1)
             .num("tid", main_tid)
             .raw("args", JObj()
                              .num("id", static_cast<double>(s.id))
                              .num("cause", static_cast<double>(s.cause))
                              .str("layer", s.layer)
                              .dump())
             .dump());
  for (const auto& e : evs) {
    std::uint64_t cause = 0, best = UINT64_MAX;
    if (e.tid == main_tid)
      for (const Span& s : spans)
        if (s.ts_ns <= e.ts_ns && e.ts_ns + e.dur_ns <= s.ts_ns + s.dur_ns &&
            s.dur_ns < best) {
          best = s.dur_ns;
          cause = s.id;
        }
    JObj args;
    args.num("cause", static_cast<double>(cause))
        .str("layer", program_layer(e.name, e.cat));
    if (!e.args_json.empty()) args.raw("program", e.args_json);
    JObj ev;
    ev.str("name", e.name)
        .str("cat", e.cat)
        .raw("ph", jstr(std::string(1, e.ph)))
        .raw("ts", us(e.ts_ns))
        .num("pid", 1)
        .num("tid", e.tid);
    if (e.ph == 'X') ev.raw("dur", us(e.dur_ns));
    if (e.ph == 'i') ev.str("s", "t");
    if (e.ph == 's' || e.ph == 'f')
      ev.num("id", static_cast<double>(e.flow_id));
    if (e.ph == 'f') ev.str("bp", "e");
    emit(ev.raw("args", args.dump()).dump());
  }
  out << "\n]\n";
  if (!out) throw std::runtime_error("short write of trace " + path);
}

// ------------------------------------------------------------- the runs

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// What one invocation accumulates, rendered by main().
struct Report {
  std::map<std::string, std::vector<double>> samples;  // end-to-end
  Values per_layer;
  std::vector<double> acc_last3;  // one per training trial / fleet run
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t trials = 0;
  std::map<std::string, Check> checks;
};

/// RAII switch for the library's telemetry (spans + counters).
struct TelemetryOn {
  explicit TelemetryOn(bool on) { telemetry::set_enabled(on); }
  ~TelemetryOn() { telemetry::set_enabled(false); }
  TelemetryOn(const TelemetryOn&) = delete;
  TelemetryOn& operator=(const TelemetryOn&) = delete;
};

// ---- training workloads

struct TrainTrial {
  std::unique_ptr<FaultAwareTrainer> trainer;
  std::vector<EpochRecord> history;
  std::size_t total_remaps = 0;
  double setup_s = 0.0;
  std::vector<double> epoch_s;
  std::uint64_t t0 = 0, t1 = 0;  // span window of the trial
  bool threw = false;
  std::string error;
};

/// One full training run (setup + every epoch through run_slice(1)).
TrainTrial train_trial(const TrainerConfig& cfg, SpanLog& log) {
  TrainTrial t;
  t.t0 = telemetry::now_ns();
  log.time("trial", "perfbench", [&] {
    try {
      t.setup_s += log.time("trainer.ctor", "trainer", [&] {
        t.trainer = std::make_unique<FaultAwareTrainer>(cfg);
      });
      t.setup_s += log.time("trainer.deploy", "trainer",
                            [&] { t.trainer->begin_training(); });
      while (!t.trainer->finished())
        t.epoch_s.push_back(log.time("trainer.epoch", "trainer",
                                     [&] { t.trainer->run_slice(1); }));
    } catch (const std::exception& e) {
      t.threw = true;
      t.error = e.what();
    }
  });
  t.t1 = telemetry::now_ns();
  if (t.trainer) {
    t.history = t.trainer->result().history;
    t.total_remaps = t.trainer->result().total_remaps;
  }
  return t;
}

/// Record a finished trial into the report: ops (epochs), losses, the
/// accuracy guard, and evaluation throughput on an independently
/// synthesized copy of the test set (which must reproduce the trainer's
/// own final accuracy exactly).
void account_trial(const TrainerConfig& cfg, TrainTrial& t, SpanLog& log,
                   Report& rep, bool timed) {
  rep.attempted += cfg.epochs;
  std::size_t bad = cfg.epochs - t.history.size();
  for (const EpochRecord& r : t.history) {
    rep.checks["finite-loss"].add(std::isfinite(r.train_loss),
                                  "epoch " + std::to_string(r.epoch));
    if (!std::isfinite(r.train_loss)) ++bad;
  }
  rep.failed += bad;
  rep.checks["runs-without-error"].add(!t.threw, t.error);
  if (!t.trainer || t.history.empty()) return;
  rep.acc_last3.push_back(acc_last3(t.history));
  if (!timed) return;

  const Dataset test = test_set(cfg);
  double acc = -1.0;
  for (int r = 0; r < 3; ++r) {
    const double s = log.time("trainer.evaluate", "trainer", [&] {
      acc = evaluate_accuracy(t.trainer->model(), test);
    });
    rep.samples["eval_samples_per_s"].push_back(
        static_cast<double>(test.size()) / s);
  }
  if (!t.threw)
    rep.checks["eval-reproduces-trainer"].add(
        same_bits(acc, t.history.back().test_accuracy),
        "evaluate_accuracy " + std::to_string(acc) + " != trainer's " +
            std::to_string(t.history.back().test_accuracy));

  double run_s = t.setup_s;
  for (double e : t.epoch_s) {
    rep.samples["epoch_s"].push_back(e);
    rep.samples["train_samples_per_s"].push_back(
        static_cast<double>(cfg.data.train) / e);
    run_s += e;
  }
  rep.samples["setup_s"].push_back(t.setup_s);
  rep.samples["run_s"].push_back(run_s);
  rep.samples["jobs_per_min"].push_back(60.0 / run_s);
}

void run_training(const Options& opt, Report& rep, SpanLog& log) {
  const std::size_t threads = parallel_threads();
  const TrainerConfig cfg0 =
      training_config(opt.workload, trial_seed(opt.seed, 0));

  // Warm-up outside the window: pool threads, packing arenas, page faults.
  {
    FaultAwareTrainer warm(cfg0);
    warm.run_slice(1);
  }

  // Timed window. Untraced: every trial is timed. Traced: untraced and
  // traced trials alternate on the same seed, so the pair difference is
  // the tracing overhead and the traced trials give the per-layer split.
  TrainTrial first, last_traced;
  std::vector<double> untraced_run_s, traced_run_s, traced_epoch_s;
  double traced_epochs = 0.0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> traced_windows;
  if (opt.trace) telemetry::Registry::instance().reset();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (i > 0 && elapsed >= opt.seconds && (!opt.trace || i % 2 == 0)) break;
    const bool traced = opt.trace && i % 2 == 1;
    const TrainerConfig cfg = training_config(
        opt.workload, trial_seed(opt.seed, opt.trace ? i / 2 : i));
    TrainTrial t;
    {
      TelemetryOn on(traced);
      log.recording = traced;
      t = train_trial(cfg, log);
      log.recording = false;
    }
    account_trial(cfg, t, log, rep, !traced);
    ++rep.trials;
    const double run_s = t.setup_s + sum(t.epoch_s);
    if (traced) {
      traced_run_s.push_back(run_s);
      traced_epoch_s.insert(traced_epoch_s.end(), t.epoch_s.begin(),
                            t.epoch_s.end());
      traced_epochs += static_cast<double>(t.epoch_s.size());
      traced_windows.emplace_back(t.t0, t.t1);
      last_traced = std::move(t);
    } else {
      untraced_run_s.push_back(run_s);
      if (i == 0) first = std::move(t);
    }
  }
  rep.samples["peak_rss_mib"].push_back(peak_rss_mib());

  if (opt.trace && last_traced.trainer) {
    TelemetryOn on(true);
    log.recording = true;
    const telemetry::RegistrySnapshot snap =
        telemetry::Registry::instance().snapshot();
    const std::vector<telemetry::TraceEvent> evs =
        telemetry::TraceBuffer::instance().snapshot();
    std::map<std::string, double> spans;
    for (const auto& [t0, t1] : traced_windows)
      for (const auto& [name, s] : span_seconds(evs, t0, t1)) spans[name] += s;
    const double per = std::max(traced_epochs, 1.0);
    Values& v = rep.per_layer;
    read_counters(snap, per, median(traced_epoch_s), v);
    v["quant.array_write_s"] = spans["array-write"] / per;
    v["core.remap_s"] = spans["remap"] / per;
    v["ckpt.save_s"] = spans["fleet.migrate.save"] + spans["checkpoint"];
    v["ckpt.restore_s"] = spans["fleet.migrate.restore"];
    v["ckpt.image_bytes"] = 0.0;
    for (const char* f : {"fleet.slices", "fleet.migrations", "fleet.slice_s",
                          "fleet.migrate_s", "fleet.other_s"})
      v[f] = 0.0;
    // In-situ time of the steps the replay repeats (array writes excluded:
    // the replay does not program the arrays).
    const double in_situ = (spans["forward"] + spans["backward"] +
                            spans["sgd-step"] - spans["array-write"]) /
                           per;
    const TrainerConfig& cfg = last_traced.trainer->config();
    probe_modules(*last_traced.trainer, test_set(cfg), log, v);
    const double replay =
        replay_epoch(last_traced.trainer->model(), cfg, log, v);
    v["nn.replay_ratio"] = in_situ > 0 ? replay / in_situ : 0.0;
    probe_setup(cfg, log, v);
    v["telemetry.overhead_frac"] =
        median(traced_run_s) / median(untraced_run_s) - 1.0;
    log.recording = false;
  }

  // Thread-invariance check, outside the window: trial 0 again at another
  // thread count must reproduce its history bit for bit.
  const std::size_t ref_threads = threads > 1 ? 1 : 2;
  set_parallel_threads(ref_threads);
  TrainTrial ref = train_trial(cfg0, log);
  set_parallel_threads(threads);
  const bool same = !first.threw && !ref.threw &&
                    same_history(first.history, ref.history) &&
                    first.total_remaps == ref.total_remaps;
  rep.checks["thread-invariance"].add(
      same, "trial 0 history at " + std::to_string(threads) + " vs " +
                std::to_string(ref_threads) + " threads differs");

  if (opt.trace && !first.history.empty()) {
    Values& v = rep.per_layer;
    v["trainer.acc_last3"] = acc_last3(first.history);
    v["core.remaps"] = static_cast<double>(first.total_remaps);
    v["xbar.faults"] =
        static_cast<double>(first.history.back().total_faults);
    // Epoch at 1 thread over the epoch at the larger thread count.
    double one = median(rep.samples["epoch_s"]);
    double many = median(ref.epoch_s);
    if (threads > 1) std::swap(one, many);
    v["parallel.epoch_speedup_x"] = many > 0 ? one / many : 0.0;
  }
}

// ---- fleet workload

constexpr int kFleetSetups = 5;

struct FleetRun {
  std::unique_ptr<fleet::ChipPool> pool;
  std::unique_ptr<fleet::Scheduler> sched;
  fleet::FleetSummary summary;
  std::vector<double> setup_s;
  double run_s = 0.0;
  std::uint64_t t0 = 0, t1 = 0;
  bool threw = false;
  std::string error;
};

FleetRun fleet_run(std::uint64_t seed, SpanLog& log) {
  FleetRun f;
  f.t0 = telemetry::now_ns();
  log.time("trial", "perfbench", [&] {
    try {
      // Set-up takes tens of microseconds, so it is repeated and each
      // repetition is a sample; the last one is the fleet that runs.
      for (int r = 0; r < kFleetSetups; ++r) {
        f.sched.reset();
        f.setup_s.push_back(log.time("fleet.setup", "fleet", [&] {
          f.pool = std::make_unique<fleet::ChipPool>(fleet_chips(seed));
          f.sched = std::make_unique<fleet::Scheduler>(*f.pool,
                                                       fleet_sched_config());
          for (fleet::JobSpec& j : fleet_jobs(seed))
            f.sched->submit(std::move(j));
        }));
      }
      f.run_s = log.time("fleet.run", "fleet",
                         [&] { f.summary = f.sched->run(); });
    } catch (const std::exception& e) {
      f.threw = true;
      f.error = e.what();
    }
  });
  f.t1 = telemetry::now_ns();
  return f;
}

void account_fleet(FleetRun& f, SpanLog& log, Report& rep, bool timed) {
  rep.checks["runs-without-error"].add(!f.threw && f.sched, f.error);
  if (f.threw || !f.sched) {
    rep.attempted += 3;
    rep.failed += 3;
    return;
  }
  const auto& jobs = f.sched->jobs();
  rep.attempted += jobs.size();
  double acc = 0.0, samples = 0.0;
  for (const fleet::FleetJob& j : jobs) {
    const bool finite = j.trainer && finite_losses(j.trainer->result().history);
    rep.checks["finite-loss"].add(finite, "job " + j.spec.name);
    if (j.state != fleet::JobState::kCompleted || !finite) ++rep.failed;
    if (j.trainer) {
      acc += acc_last3(j.trainer->result().history);
      samples += static_cast<double>(j.trainer->epochs_completed() *
                                     j.cfg.data.train);
    }
  }
  const auto& s = f.summary;
  rep.checks["fleet-completes"].add(
      s.completed == s.submitted && s.failed == 0 && s.rejected == 0,
      std::to_string(s.completed) + "/" + std::to_string(s.submitted) +
          " completed, " + std::to_string(s.failed) + " failed, " +
          std::to_string(s.rejected) + " rejected");
  rep.acc_last3.push_back(acc / static_cast<double>(jobs.size()));
  if (!timed) return;

  // Jobs mix two models, so per-job samples would be bimodal: each fleet
  // run contributes one sample over all its jobs instead.
  double busy = 0.0, slices = 0.0, evaluated = 0.0, eval_s = 0.0;
  for (const fleet::FleetJob& j : jobs) {
    if (!j.trainer || j.slices == 0) continue;
    busy += j.busy_seconds;
    slices += static_cast<double>(j.slices);
    const Dataset test = test_set(j.cfg);
    double a = -1.0;
    for (int r = 0; r < 3; ++r) {
      eval_s += log.time("trainer.evaluate", "trainer", [&] {
        a = evaluate_accuracy(j.trainer->model(), test);
      });
      evaluated += static_cast<double>(test.size());
    }
    if (!j.trainer->result().history.empty())
      rep.checks["eval-reproduces-trainer"].add(
          same_bits(a, j.trainer->result().history.back().test_accuracy),
          "job " + j.spec.name + " re-evaluates differently");
  }
  rep.samples["epoch_s"].push_back(busy / slices);
  rep.samples["eval_samples_per_s"].push_back(evaluated / eval_s);
  for (double x : f.setup_s) rep.samples["setup_s"].push_back(x);
  rep.samples["run_s"].push_back(f.run_s);
  rep.samples["jobs_per_min"].push_back(
      static_cast<double>(s.completed) * 60.0 / f.run_s);
  rep.samples["train_samples_per_s"].push_back(samples / f.run_s);
}

bool same_fleet(const FleetRun& a, const FleetRun& b) {
  if (a.threw || b.threw || !a.sched || !b.sched) return false;
  const auto& x = a.summary;
  const auto& y = b.summary;
  if (x.steps != y.steps || x.migrations != y.migrations ||
      x.completed != y.completed || x.epochs_trained != y.epochs_trained ||
      x.queue_wait_steps != y.queue_wait_steps ||
      x.latency_steps != y.latency_steps)
    return false;
  const auto& ma = a.sched->migrations();
  const auto& mb = b.sched->migrations();
  if (ma.size() != mb.size()) return false;
  for (std::size_t i = 0; i < ma.size(); ++i)
    if (ma[i].job != mb[i].job || ma[i].from_chip != mb[i].from_chip ||
        ma[i].to_chip != mb[i].to_chip || ma[i].at_epoch != mb[i].at_epoch ||
        ma[i].step != mb[i].step || ma[i].image_bytes != mb[i].image_bytes)
      return false;
  const auto& ja = a.sched->jobs();
  const auto& jb = b.sched->jobs();
  if (ja.size() != jb.size()) return false;
  for (std::size_t i = 0; i < ja.size(); ++i) {
    if (!ja[i].trainer || !jb[i].trainer) return false;
    if (!same_history(ja[i].trainer->result().history,
                      jb[i].trainer->result().history))
      return false;
  }
  return true;
}

void run_fleet(const Options& opt, Report& rep, SpanLog& log) {
  const std::size_t threads = parallel_threads();
  { FleetRun warm = fleet_run(trial_seed(opt.seed, 0), log); }

  FleetRun first, last_traced;
  std::vector<double> untraced_run_s, traced_run_s, slice_s, migrate_s,
      save_s, restore_s;
  if (opt.trace) telemetry::Registry::instance().reset();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (i > 0 && elapsed >= opt.seconds && (!opt.trace || i % 2 == 0)) break;
    const bool traced = opt.trace && i % 2 == 1;
    FleetRun f;
    {
      TelemetryOn on(traced);
      log.recording = traced;
      f = fleet_run(trial_seed(opt.seed, opt.trace ? i / 2 : i), log);
      log.recording = false;
    }
    account_fleet(f, log, rep, !traced);
    ++rep.trials;
    if (traced) {
      traced_run_s.push_back(f.run_s);
      const auto evs = telemetry::TraceBuffer::instance().snapshot();
      // Migration = save start .. restore end (includes the fresh
      // trainer's construction between the two library spans).
      double mig = 0.0, sv = 0.0, rs = 0.0;
      std::uint64_t save_start = 0;
      for (const auto& e : evs) {
        if (e.ph != 'X' || e.ts_ns < f.t0 || e.ts_ns >= f.t1) continue;
        if (e.name == "fleet.migrate.save") {
          save_start = e.ts_ns;
          sv += static_cast<double>(e.dur_ns) * 1e-9;
        } else if (e.name == "fleet.migrate.restore") {
          rs += static_cast<double>(e.dur_ns) * 1e-9;
          mig += static_cast<double>(e.ts_ns + e.dur_ns - save_start) * 1e-9;
        }
      }
      double busy = 0.0;
      for (const fleet::FleetJob& j : f.sched->jobs()) busy += j.busy_seconds;
      slice_s.push_back(busy);
      migrate_s.push_back(mig);
      save_s.push_back(sv);
      restore_s.push_back(rs);
      last_traced = std::move(f);
    } else {
      untraced_run_s.push_back(f.run_s);
      if (i == 0) first = std::move(f);
    }
  }
  rep.samples["peak_rss_mib"].push_back(peak_rss_mib());

  if (opt.trace && last_traced.sched) {
    TelemetryOn on(true);
    log.recording = true;
    Values& v = rep.per_layer;
    const auto snap = telemetry::Registry::instance().snapshot();
    const auto evs = telemetry::TraceBuffer::instance().snapshot();
    std::map<std::string, double> spans;
    double epochs = 0.0;
    for (const auto& e : evs)
      if (e.ph == 'X') {
        spans[e.name] += static_cast<double>(e.dur_ns) * 1e-9;
        if (e.name == "epoch") epochs += 1.0;
      }
    const double runs = static_cast<double>(traced_run_s.size());
    read_counters(snap, runs, median(traced_run_s), v);
    v["quant.array_write_s"] = spans["array-write"] / runs;
    v["core.remap_s"] = spans["remap"] / runs;
    v["ckpt.save_s"] = median(save_s);
    v["ckpt.restore_s"] = median(restore_s);
    v["fleet.slice_s"] = median(slice_s);
    v["fleet.migrate_s"] = median(migrate_s);
    v["fleet.other_s"] =
        median(traced_run_s) - median(slice_s) - median(migrate_s);
    const fleet::FleetJob& j0 = last_traced.sched->jobs().front();
    const double in_situ =
        (spans["forward"] + spans["backward"] + spans["sgd-step"] -
         spans["array-write"]) /
        std::max(epochs, 1.0);
    probe_modules(*j0.trainer, test_set(j0.cfg), log, v);
    const double replay = replay_epoch(j0.trainer->model(), j0.cfg, log, v);
    v["nn.replay_ratio"] = in_situ > 0 ? replay / in_situ : 0.0;
    probe_setup(j0.cfg, log, v);
    v["telemetry.overhead_frac"] =
        median(traced_run_s) / median(untraced_run_s) - 1.0;
    log.recording = false;
  }

  const std::size_t ref_threads = threads > 1 ? 1 : 2;
  set_parallel_threads(ref_threads);
  FleetRun ref = fleet_run(trial_seed(opt.seed, 0), log);
  set_parallel_threads(threads);
  rep.checks["thread-invariance"].add(
      same_fleet(first, ref),
      "fleet run 0 summary, migrations or job histories at " +
          std::to_string(threads) + " vs " + std::to_string(ref_threads) +
          " threads differ");

  if (opt.trace && first.sched) {
    Values& v = rep.per_layer;
    double remaps = 0.0, faults = 0.0, bytes = 0.0;
    for (const fleet::FleetJob& j : first.sched->jobs()) {
      remaps += static_cast<double>(j.trainer->result().total_remaps);
      faults += static_cast<double>(j.trainer->result().last().total_faults);
    }
    for (const auto& m : first.sched->migrations())
      bytes += static_cast<double>(m.image_bytes);
    const std::size_t nmig = first.sched->migrations().size();
    v["trainer.acc_last3"] = rep.acc_last3.front();
    v["core.remaps"] = remaps;
    v["xbar.faults"] = faults;
    v["fleet.slices"] = static_cast<double>(first.summary.steps);
    v["fleet.migrations"] = static_cast<double>(nmig);
    v["ckpt.image_bytes"] = nmig ? bytes / static_cast<double>(nmig) : 0.0;
    const double one = threads > 1 ? ref.run_s : median(untraced_run_s);
    const double many = threads > 1 ? median(untraced_run_s) : ref.run_s;
    v["parallel.epoch_speedup_x"] = many > 0 ? one / many : 0.0;
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") opt.workload = val;
      else if (flag == "--seed") opt.seed = std::stoull(val);
      else if (flag == "--seconds") opt.seconds = std::stod(val);
      else if (flag == "--trace") opt.trace = val == "1";
      else if (flag == "--trace-out") opt.trace_out = val;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  const bool fleet_wl = opt.workload == "fleet-migrate";
  if (!fleet_wl && opt.workload != "train-resnet12-fp32" &&
      opt.workload != "train-squeezenet-q4")
    return usage(("unknown workload '" + opt.workload + "'").c_str());

  JObj manifest;
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t nproc = affinity_cpus();
  const std::size_t probe_k = std::max<std::size_t>(nproc, 1);
  const double capacity = capacity_probe(probe_k);
  JObj env;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("REMAPD_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    env.str(kv.substr(0, eq), eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  manifest.num("nproc", static_cast<double>(nproc))
      .num("hardware_concurrency", static_cast<double>(hw))
      .num("capacity_threads", static_cast<double>(probe_k))
      .num("capacity_x", capacity)
      .str("gemm_kernel", gemm_kernel_name())
      .str("int8_kernel", int8_kernel_name())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("threads", static_cast<double>(parallel_threads()))
      .raw("env", env.dump());

  Report rep;
  SpanLog log;
  try {
    if (fleet_wl) run_fleet(opt, rep, log);
    else run_training(opt, rep, log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (opt.trace) {
    rep.per_layer["parallel.threads"] = static_cast<double>(parallel_threads());
    rep.per_layer["parallel.capacity_x"] = capacity;
    if (!opt.trace_out.empty())
      write_trace(opt.trace_out, log.spans(),
                  telemetry::TraceBuffer::instance().snapshot(),
                  telemetry::current_thread_id());
  }

  JObj samples;
  for (const auto& [k, v] : rep.samples) samples.raw(k, jarr(v));
  JObj per_layer;
  for (const auto& [k, v] : rep.per_layer) per_layer.num(k, v);
  std::string checks = "[";
  for (const auto& [name, check] : rep.checks)
    checks += (checks.size() > 1 ? "," : "") + check.json(name);
  checks += "]";
  std::printf("%s\n", JObj()
                          .str("workload", opt.workload)
                          .num("seed", static_cast<double>(opt.seed))
                          .raw("manifest", manifest.dump())
                          .num("trials", static_cast<double>(rep.trials))
                          .num("attempted", static_cast<double>(rep.attempted))
                          .num("failed", static_cast<double>(rep.failed))
                          .raw("acc_last3", jarr(rep.acc_last3))
                          .raw("checks", checks)
                          .raw("samples", samples.dump())
                          .raw("per_layer", per_layer.dump())
                          .dump()
                          .c_str());
  return 0;
}
