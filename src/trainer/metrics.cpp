#include "trainer/metrics.hpp"

#include "nn/loss.hpp"
#include "util/parallel.hpp"

namespace remapd {

double evaluate_accuracy(Model& model, const Dataset& data,
                         std::size_t batch_size) {
  const std::size_t n = data.size();
  if (n == 0) return 0.0;
  const Shape& s = data.images.shape();
  const std::size_t sample_elems = s[1] * s[2] * s[3];
  const std::size_t nbatches = (n + batch_size - 1) / batch_size;

  const auto eval_batch = [&](std::size_t bi) {
    const std::size_t begin = bi * batch_size;
    const std::size_t end = std::min(begin + batch_size, n);
    const std::size_t bn = end - begin;
    Tensor batch(Shape{bn, s[1], s[2], s[3]});
    std::vector<std::int32_t> labels(bn);
    for (std::size_t k = 0; k < bn; ++k) {
      const float* from = data.images.data() + (begin + k) * sample_elems;
      float* to = batch.data() + k * sample_elems;
      for (std::size_t e = 0; e < sample_elems; ++e) to[e] = from[e];
      labels[k] = data.labels[begin + k];
    }
    const Tensor logits = model.forward(batch, /*train=*/false);
    return count_correct(logits, labels);
  };

  // Eval-mode forwards are read-only (layers only cache state when
  // train=true; see Conv2d/Linear local effective-weight buffers), so test
  // batches can run concurrently. Forward has no cross-sample reductions,
  // so per-sample results — and the integer `correct` sum — are identical
  // whether batches run in parallel here or serially with the GEMMs inside
  // forward using the pool. Prefer batch-level parallelism only when it
  // can occupy every worker; otherwise run batches serially and let the
  // layers' GEMMs use the pool.
  //
  // Memory: each concurrent forward allocates its own intermediate
  // activations (im2col cols buffers, per-layer outputs, and effective-
  // weight copies when fault views are set), so peak eval memory scales
  // with parallel_threads(). Fine for the current model zoo; if larger
  // models land, cap the concurrent batches or add per-worker scratch
  // reuse here.
  std::vector<std::size_t> correct(nbatches, 0);
  if (nbatches >= parallel_threads()) {
    parallel_for(0, nbatches, 1, [&](std::size_t b0, std::size_t b1) {
      for (std::size_t bi = b0; bi < b1; ++bi) correct[bi] = eval_batch(bi);
    });
  } else {
    for (std::size_t bi = 0; bi < nbatches; ++bi) correct[bi] = eval_batch(bi);
  }
  std::size_t total_correct = 0;
  for (std::size_t c : correct) total_correct += c;
  return static_cast<double>(total_correct) / static_cast<double>(n);
}

}  // namespace remapd
