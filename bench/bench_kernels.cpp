// Microbenchmarks (google-benchmark) of the library's hot kernels: GEMM,
// im2col, fault injection, analog column reads, BIST runs, fault-view
// construction, and NoC cycle stepping. These bound the wall-clock cost of
// the figure-reproduction benches.
//
// `--json PATH` switches to a handwritten micro-set covering the packed
// GEMM kernel's three driver paths (NN/NT/TN at 256^3, with GFLOP/s),
// three resnet12 conv-step GEMM shapes (forward m = 8, a grouped dW of
// 4-deep segments, dX of depth 8; reported, not baselined), the
// batch-lowered conv forward and backward on a wide early layer and on a
// deep 2x2 layer, and im2col, at 1 and 4 threads
// with a bitwise cross-thread determinism verdict — the BENCH_kernels.json
// perf-trajectory record that scripts/check_bench.py gates on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bist/controller.hpp"
#include "nn/conv2d.hpp"
#include "noc/network.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/im2col.hpp"
#include "util/parallel.hpp"
#include "xbar/mapper.hpp"

namespace {

using namespace remapd;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_Im2Col(benchmark::State& state) {
  ConvGeom g{8, 16, 16, 3, 3, 1, 1};
  Rng rng(2);
  Tensor img = Tensor::randn(Shape{8, 16, 16}, rng);
  std::vector<float> col(g.col_rows() * g.col_cols());
  for (auto _ : state) {
    im2col(img.data(), g, col.data(), g.col_cols());
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_Im2Col);

void BM_FaultInjection(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    Crossbar xb(128, 128);
    xb.inject_clustered_faults(164, 0.9, 2, rng);  // 1% density
    benchmark::DoNotOptimize(xb.fault_count());
  }
}
BENCHMARK(BM_FaultInjection);

void BM_ColumnCurrents(benchmark::State& state) {
  Crossbar xb(128, 128);
  Rng rng(4);
  xb.inject_random_faults(164, 0.9, rng);
  for (auto _ : state) {
    auto currents = all_column_currents(xb, TestPattern::kAllZero);
    benchmark::DoNotOptimize(currents.data());
  }
}
BENCHMARK(BM_ColumnCurrents);

void BM_BistRun(benchmark::State& state) {
  Crossbar xb(128, 128);
  Rng rng(5);
  xb.inject_random_faults(164, 0.9, rng);
  BistController bist;
  for (auto _ : state) {
    const BistReport rep = bist.run(xb);
    benchmark::DoNotOptimize(rep.density_estimate);
  }
}
BENCHMARK(BM_BistRun);

void BM_BuildFaultView(benchmark::State& state) {
  RcsConfig cfg = RcsConfig::sized_for(80, 32, 32);
  Rcs rcs(cfg);
  WeightMapper mapper(rcs);
  mapper.map_layers({{64, 576}});
  Rng rng(6);
  for (XbarId x = 0; x < rcs.total_crossbars(); ++x)
    rcs.crossbar(x).inject_random_faults(10, 0.9, rng);
  for (auto _ : state) {
    FaultView v = mapper.build_fault_view(0, Phase::kBackward, 0.5f);
    benchmark::DoNotOptimize(v.clamps.data());
  }
}
BENCHMARK(BM_BuildFaultView);

void BM_NocBroadcast(benchmark::State& state) {
  using namespace remapd::noc;
  NocConfig cfg;
  cfg.geometry = CmeshGeometry{8, 8};
  for (auto _ : state) {
    Network net(cfg);
    net.inject(PacketKind::kRemapRequest, 0, kBroadcast, 1);
    benchmark::DoNotOptimize(net.run_until_idle());
  }
}
BENCHMARK(BM_NocBroadcast);

void BM_NocWeightTransfer(benchmark::State& state) {
  using namespace remapd::noc;
  NocConfig cfg;
  cfg.geometry = CmeshGeometry{8, 8};
  for (auto _ : state) {
    Network net(cfg);
    net.inject(PacketKind::kWeightTransfer, 0, 63, 1024);
    benchmark::DoNotOptimize(net.run_until_idle());
  }
}
BENCHMARK(BM_NocWeightTransfer);

// ---------------------------------------------------------------------------
// --json micro-set (BENCH_kernels.json)
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Median-of-3 wall-clock seconds for `fn`; `prep`, when set, runs untimed
/// before each run.
double time_it(const std::function<void()>& fn,
               const std::function<void()>& prep = {}) {
  std::vector<double> runs;
  for (int r = 0; r < 3; ++r) {
    if (prep) prep();
    const auto t0 = Clock::now();
    fn();
    runs.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

struct KernelPoint {
  std::string workload;
  std::size_t threads;
  double median_ms;
  double gflops;  ///< 0 when the workload has no closed-form flop count
};

/// One micro-workload: runs `fn` (which must leave its result in `out`)
/// after an untimed `prep`, records a timing point, and cross-checks `out`
/// bitwise against the serial run.
struct Micro {
  const char* name;
  double flops;  // per single execution; 0 = no GFLOP/s reported
  std::function<void()> fn;
  const std::vector<float>* out;
  std::vector<float> serial;
  std::function<void()> prep = {};
};

int run_json_microset(const std::string& json_path) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  constexpr std::size_t kN = 256;

  Rng rng(11);
  const Tensor a = Tensor::randn(Shape{kN, kN}, rng);
  const Tensor b = Tensor::randn(Shape{kN, kN}, rng);
  std::vector<float> c_nn(kN * kN), c_nt(kN * kN), c_tn(kN * kN);
  const double cube_flops = 2.0 * kN * kN * kN;

  // resnet12's conv-step shapes at batch 32 on 16x16 inputs: the 8-channel
  // stem-stage forward (m = 8 fills 8 of two 6-row strips), a last-stage
  // dW whose depth is 32 samples of 4 columns summed in groups of 2, and
  // the stem-stage dX with depth out_ch = 8.
  const Tensor fw_a = Tensor::randn(Shape{8, 72}, rng);
  const Tensor fw_b = Tensor::randn(Shape{72, 8192}, rng);
  const Tensor dw_a = Tensor::randn(Shape{64, 128}, rng);
  const Tensor dw_b = Tensor::randn(Shape{576, 128}, rng);
  const Tensor dx_a = Tensor::randn(Shape{8, 72}, rng);
  const Tensor dx_b = Tensor::randn(Shape{8, 8192}, rng);
  std::vector<float> c_fw(8 * 8192), c_dw(64 * 576), c_dx(72 * 8192);

  const Tensor cx = Tensor::randn(Shape{16, 3, 32, 32}, rng);
  Rng crng(7);
  Conv2d conv(3, 32, 3, 1, 1, crng);
  Tensor cdy = Tensor::zeros(Shape{16, 32, 32, 32});
  for (std::size_t i = 0; i < cdy.numel(); i += 97) cdy[i] = 1.0f;
  std::vector<float> conv_y, conv_dx;

  // A deep layer as in resnet12's last stage: 64 -> 64 channels on a 2x2
  // map, so each sample has only 4 output columns and the whole-batch
  // panel carries the GEMM width.
  const Tensor dx_in = Tensor::randn(Shape{32, 64, 2, 2}, rng);
  Conv2d deep(64, 64, 3, 1, 1, crng);
  const Tensor ddy = Tensor::randn(Shape{32, 64, 2, 2}, rng);
  std::vector<float> deep_y, deep_dx;

  const ConvGeom ig{8, 16, 16, 3, 3, 1, 1};
  const Tensor img = Tensor::randn(Shape{8, 16, 16}, rng);
  std::vector<float> col(ig.col_rows() * ig.col_cols());

  std::vector<Micro> micros;
  micros.push_back({"gemm_nn_256", cube_flops,
                    [&] {
                      gemm(false, false, kN, kN, kN, 1.0f, a.data(), kN,
                           b.data(), kN, 0.0f, c_nn.data(), kN);
                    },
                    &c_nn,
                    {}});
  micros.push_back({"gemm_nt_256", cube_flops,
                    [&] {
                      gemm(false, true, kN, kN, kN, 1.0f, a.data(), kN,
                           b.data(), kN, 0.0f, c_nt.data(), kN);
                    },
                    &c_nt,
                    {}});
  micros.push_back({"gemm_tn_256", cube_flops,
                    [&] {
                      gemm(true, false, kN, kN, kN, 1.0f, a.data(), kN,
                           b.data(), kN, 0.0f, c_tn.data(), kN);
                    },
                    &c_tn,
                    {}});
  micros.push_back({"gemm_fwd_m8", 2.0 * 8 * 8192 * 72,
                    [&] {
                      gemm(false, false, 8, 8192, 72, 1.0f, fw_a.data(), 72,
                           fw_b.data(), 8192, 0.0f, c_fw.data(), 8192);
                    },
                    &c_fw,
                    {}});
  micros.push_back({"gemm_dw_seg4", 2.0 * 64 * 576 * 128,
                    [&] {
                      gemm_grouped(false, true, 64, 576, 4, 32, 2, 1.0f,
                                   dw_a.data(), 128, dw_b.data(), 128, 1.0f,
                                   c_dw.data(), 576);
                    },
                    &c_dw,
                    {},
                    // beta = 1 accumulates, as dW does; each run starts
                    // from a zeroed gradient.
                    [&] { std::fill(c_dw.begin(), c_dw.end(), 0.0f); }});
  micros.push_back({"gemm_dx_k8", 2.0 * 72 * 8192 * 8,
                    [&] {
                      gemm(true, false, 72, 8192, 8, 1.0f, dx_a.data(), 72,
                           dx_b.data(), 8192, 0.0f, c_dx.data(), 8192);
                    },
                    &c_dx,
                    {}});
  micros.push_back({"conv_fwd", 0.0,
                    [&] {
                      const Tensor y = conv.forward(cx, /*train=*/true);
                      conv_y.assign(y.data(), y.data() + y.numel());
                    },
                    &conv_y,
                    {}});
  micros.push_back({"conv_bwd", 0.0,
                    [&] {
                      const Tensor dx = conv.backward(cdy);
                      conv_dx.assign(dx.data(), dx.data() + dx.numel());
                    },
                    &conv_dx,
                    {},
                    // backward consumes the im2col panel its train-mode
                    // forward saved, so each run gets a fresh one.
                    [&] {
                      for (Param* p : conv.params()) p->zero_grad();
                      conv.forward(cx, /*train=*/true);
                    }});
  micros.push_back({"conv_deep_fwd", 0.0,
                    [&] {
                      const Tensor y = deep.forward(dx_in, /*train=*/true);
                      deep_y.assign(y.data(), y.data() + y.numel());
                    },
                    &deep_y,
                    {}});
  micros.push_back({"conv_deep_bwd", 0.0,
                    [&] {
                      const Tensor dx = deep.backward(ddy);
                      deep_dx.assign(dx.data(), dx.data() + dx.numel());
                    },
                    &deep_dx,
                    {},
                    [&] {
                      for (Param* p : deep.params()) p->zero_grad();
                      deep.forward(dx_in, /*train=*/true);
                    }});
  micros.push_back({"im2col", 0.0,
                    [&] {
                      for (int r = 0; r < 64; ++r)
                        im2col(img.data(), ig, col.data(), ig.col_cols());
                    },
                    &col,
                    {}});

  std::vector<KernelPoint> points;
  bool deterministic = true;
  for (const std::size_t n : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(n);
    for (Micro& m : micros) {
      const double s = time_it(m.fn, m.prep);
      if (n == 1) {
        m.serial = *m.out;
      } else if (m.serial.size() != m.out->size() ||
                 std::memcmp(m.serial.data(), m.out->data(),
                             m.serial.size() * sizeof(float)) != 0) {
        std::printf("FAIL: %s result differs at %zu threads\n", m.name, n);
        deterministic = false;
      }
      points.push_back(
          {m.name, n, s * 1e3, m.flops > 0.0 ? m.flops / s * 1e-9 : 0.0});
      std::printf("%-14s %2zu threads  %10.3f ms", m.name, n, s * 1e3);
      if (m.flops > 0.0) std::printf("  %8.2f GFLOP/s", m.flops / s * 1e-9);
      std::printf("\n");
    }
  }
  std::printf("results bitwise-identical across thread counts: %s\n",
              deterministic ? "yes" : "NO");

  std::ostringstream os;
  os << "{\"bench\":\"kernels\",\"hardware_threads\":" << hw
     << ",\"kernel\":\"" << gemm_kernel_name() << "\",\"deterministic\":"
     << (deterministic ? "true" : "false") << ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const KernelPoint& p = points[i];
    os << (i ? "," : "") << "{\"workload\":\"" << p.workload
       << "\",\"threads\":" << p.threads << ",\"median_ms\":" << p.median_ms;
    if (p.gflops > 0.0) os << ",\"gflops\":" << p.gflops;
    os << "}";
  }
  os << "]}";
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n",
                 json_path.c_str());
    return 2;
  }
  out << os.str() << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return deterministic ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc)
      return run_json_microset(argv[i + 1]);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
