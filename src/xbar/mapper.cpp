#include "xbar/mapper.hpp"

#include <stdexcept>

#include "xbar/transient.hpp"

namespace remapd {
namespace {

WeightClampKind clamp_kind(CellFault fault, PairHalf half) {
  if (fault == CellFault::kStuckAt0)
    return half == PairHalf::kPositive ? WeightClampKind::kPosStuck0
                                       : WeightClampKind::kNegStuck0;
  return half == PairHalf::kPositive ? WeightClampKind::kPosStuck1
                                     : WeightClampKind::kNegStuck1;
}

}  // namespace

WeightMapper::WeightMapper(Rcs& rcs) : rcs_(&rcs) {
  if (rcs.config().xbar_rows != rcs.config().xbar_cols)
    throw std::invalid_argument("WeightMapper: crossbars must be square");
}

void WeightMapper::map_layers(
    const std::vector<std::pair<std::size_t, std::size_t>>& layer_dims) {
  tasks_.clear();
  layer_dims_ = layer_dims;
  const std::size_t s = rcs_->config().xbar_rows;

  auto tile_matrix = [&](std::size_t layer, Phase phase, std::size_t rows,
                         std::size_t cols) {
    for (std::size_t r0 = 0; r0 < rows; r0 += s)
      for (std::size_t c0 = 0; c0 < cols; c0 += s)
        tasks_.push_back(WeightBlock{layer, phase, r0, c0,
                                     std::min(s, rows - r0),
                                     std::min(s, cols - c0)});
  };

  for (std::size_t l = 0; l < layer_dims.size(); ++l)
    tile_matrix(l, Phase::kForward, layer_dims[l].first,
                layer_dims[l].second);
  for (std::size_t l = 0; l < layer_dims.size(); ++l)
    // Backward copy stores W^T: tiled over the transposed dimensions.
    tile_matrix(l, Phase::kBackward, layer_dims[l].second,
                layer_dims[l].first);

  if (tasks_.size() > rcs_->total_crossbars())
    throw std::runtime_error(
        "WeightMapper: RCS too small: " + std::to_string(tasks_.size()) +
        " tasks > " + std::to_string(rcs_->total_crossbars()) +
        " crossbars");

  task_to_xbar_.resize(tasks_.size());
  xbar_to_task_.assign(rcs_->total_crossbars(), kNoTask);
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    task_to_xbar_[t] = t;  // identity initial placement
    xbar_to_task_[t] = t;
  }
}

void WeightMapper::swap_tasks(TaskId a, XbarId target_xbar) {
  const XbarId src = task_to_xbar_.at(a);
  const TaskId other = xbar_to_task_.at(target_xbar);
  task_to_xbar_[a] = target_xbar;
  xbar_to_task_[target_xbar] = a;
  xbar_to_task_[src] = other;
  if (other != kNoTask) task_to_xbar_[other] = src;
}

std::vector<XbarId> WeightMapper::xbars_of_phase(Phase p) const {
  std::vector<XbarId> out;
  for (TaskId t = 0; t < tasks_.size(); ++t)
    if (tasks_[t].phase == p) out.push_back(task_to_xbar_[t]);
  return out;
}

std::vector<XbarId> WeightMapper::mapped_xbars() const {
  std::vector<XbarId> out;
  out.reserve(tasks_.size());
  for (TaskId t = 0; t < tasks_.size(); ++t) out.push_back(task_to_xbar_[t]);
  return out;
}

FaultView WeightMapper::build_fault_view(std::size_t layer, Phase phase,
                                         float w_max,
                                         MappingMode mode) const {
  FaultView view;
  view.w_max = w_max;
  view.mode = mode;
  const QuantSpec& quant_spec = rcs_->config().cell.quant;
  view.levels = quant_spec.levels();
  view.int8_path = quant_spec.enabled && quant_spec.int8_gemm &&
                   mode == MappingMode::kSingleArrayBias;
  if (ir_drop_.enabled())
    view.gain.assign(layer_dims_[layer].first * layer_dims_[layer].second,
                     1.0f);

  const auto weight_index = [&](const WeightBlock& blk, std::size_t r,
                                std::size_t c) {
    return weight_flat_index(blk, r, c);
  };

  for (TaskId t = 0; t < tasks_.size(); ++t) {
    const WeightBlock& blk = tasks_[t];
    if (blk.layer != layer || blk.phase != phase) continue;
    const Crossbar& xb = rcs_->crossbar(task_to_xbar_[t]);

    for (const auto& [r, c] : xb.faulty_cells()) {
      if (r >= blk.cols || c >= blk.rows) continue;  // outside occupancy
      view.clamps.push_back(WeightClamp{
          static_cast<std::uint32_t>(weight_index(blk, r, c)),
          clamp_kind(xb.fault_at(r, c), xb.fault_half_at(r, c))});
    }

    // Live transient upsets. Continuous cells read as full-scale drift
    // until refreshed — same clamp semantics as a stuck-at, different
    // lifetime. Quantized cells instead suffer a *level flip*: the worst
    // single-bit disturbance (MSB) of the committed level code, delivered
    // as a kLevel clamp whose pinned value is decoded here. (Differential
    // mapping keeps the continuous full-scale model: its per-half code
    // semantics are out of scope for the single-array level grid.)
    if (transients_)
      for (const UpsetCell& u : transients_->upsets_of(task_to_xbar_[t])) {
        const std::size_t r = u.cell / xb.cols(), c = u.cell % xb.cols();
        if (r >= blk.cols || c >= blk.rows) continue;
        if (view.levels != 0 && xb.has_codes() &&
            mode == MappingMode::kSingleArrayBias) {
          const std::uint8_t flipped =
              quant::upset_level(xb.code_at(r, c), view.levels);
          view.clamps.push_back(WeightClamp{
              static_cast<std::uint32_t>(weight_index(blk, r, c)),
              WeightClampKind::kLevel,
              quant::level_decode(flipped, view.levels, w_max)});
          continue;
        }
        view.clamps.push_back(WeightClamp{
            static_cast<std::uint32_t>(weight_index(blk, r, c)),
            clamp_kind(u.toward_on ? CellFault::kStuckAt1
                                   : CellFault::kStuckAt0,
                       static_cast<PairHalf>(u.half))});
      }

    // IR-drop: every occupied cell's weight is attenuated by its wire
    // path under the current line scheme. Crossbar cell (r, c) has row
    // index r (word line) and column index c (bit line).
    if (ir_drop_.enabled())
      for (std::size_t r = 0; r < blk.cols; ++r)
        for (std::size_t c = 0; c < blk.rows; ++c)
          view.gain[weight_index(blk, r, c)] = static_cast<float>(
              ir_cell_gain(r, c, xb.rows(), xb.cols(), ir_drop_,
                           line_scheme_));
  }
  return view;
}

// Layer weight matrix is R x C. Crossbar cell (i, j) holds stored matrix
// element (blk.row0 + j, blk.col0 + i): matrix columns map onto crossbar
// rows (inputs) and matrix rows onto crossbar columns (outputs). The
// stored matrix is W for forward tasks and W^T for backward tasks; the
// returned index always addresses W's flat layout, so backward blocks
// transpose back.
std::size_t WeightMapper::weight_flat_index(const WeightBlock& blk,
                                            std::size_t r,
                                            std::size_t c) const {
  const std::size_t stored_row = blk.row0 + c;
  const std::size_t stored_col = blk.col0 + r;
  const std::size_t w_row =
      blk.phase == Phase::kForward ? stored_row : stored_col;
  const std::size_t w_col =
      blk.phase == Phase::kForward ? stored_col : stored_row;
  return w_row * layer_dims_[blk.layer].second + w_col;
}

std::vector<std::uint32_t> WeightMapper::task_weight_indices(
    TaskId t) const {
  const WeightBlock& blk = tasks_.at(t);
  std::vector<std::uint32_t> out;
  out.reserve(blk.rows * blk.cols);
  for (std::size_t r = 0; r < blk.cols; ++r)
    for (std::size_t c = 0; c < blk.rows; ++c)
      out.push_back(
          static_cast<std::uint32_t>(weight_flat_index(blk, r, c)));
  return out;
}

void WeightMapper::commit_level_codes(std::size_t layer, const float* w,
                                      float w_max) {
  const std::size_t levels = rcs_->config().cell.quant.levels();
  if (levels < 2) return;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    const WeightBlock& blk = tasks_[t];
    if (blk.layer != layer) continue;
    Crossbar& xb = rcs_->crossbar(task_to_xbar_[t]);
    if (!xb.has_codes()) continue;
    for (std::size_t r = 0; r < blk.cols; ++r)
      for (std::size_t c = 0; c < blk.rows; ++c)
        xb.set_code(r, c,
                    quant::level_encode_nearest(
                        w[weight_flat_index(blk, r, c)], levels, w_max));
  }
}

std::size_t WeightMapper::effective_fault_count(TaskId t) const {
  const WeightBlock& blk = tasks_.at(t);
  const Crossbar& xb = rcs_->crossbar(task_to_xbar_.at(t));
  std::size_t n = 0;
  for (const auto& [r, c] : xb.faulty_cells())
    if (r < blk.cols && c < blk.rows) ++n;
  return n;
}

void WeightMapper::record_weight_update() {
  for (XbarId x : mapped_xbars()) rcs_->crossbar(x).record_array_write();
}

// Serialized layout (read_task_map must stay in sync): u64 num_tasks, then
// per task: u64 layer, u8 phase, u64 row0/col0/rows/cols, u64 xbar;
// trailed by u8 line scheme.
void WeightMapper::save_state(ckpt::ByteWriter& w) const {
  w.u64(tasks_.size());
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    const WeightBlock& b = tasks_[t];
    w.u64(b.layer);
    w.u8(static_cast<std::uint8_t>(b.phase));
    w.u64(b.row0);
    w.u64(b.col0);
    w.u64(b.rows);
    w.u64(b.cols);
    w.u64(task_to_xbar_[t]);
  }
  w.u8(static_cast<std::uint8_t>(line_scheme_));
}

void WeightMapper::load_state(ckpt::ByteReader& r) {
  const std::uint64_t count = r.u64();
  if (count != tasks_.size())
    throw ckpt::CheckpointError(
        "task count mismatch: stored " + std::to_string(count) +
        ", mapped model has " + std::to_string(tasks_.size()));
  std::vector<XbarId> assignment(tasks_.size());
  std::vector<TaskId> inverse(rcs_->total_crossbars(), kNoTask);
  for (TaskId t = 0; t < count; ++t) {
    const WeightBlock& b = tasks_[t];
    const auto layer = static_cast<std::size_t>(r.u64());
    const auto phase = r.u8();
    const auto row0 = static_cast<std::size_t>(r.u64());
    const auto col0 = static_cast<std::size_t>(r.u64());
    const auto rows = static_cast<std::size_t>(r.u64());
    const auto cols = static_cast<std::size_t>(r.u64());
    if (layer != b.layer || phase != static_cast<std::uint8_t>(b.phase) ||
        row0 != b.row0 || col0 != b.col0 || rows != b.rows || cols != b.cols)
      throw ckpt::CheckpointError("task " + std::to_string(t) +
                                  " block geometry does not match the "
                                  "mapped model");
    const auto xbar = static_cast<XbarId>(r.u64());
    if (xbar >= rcs_->total_crossbars())
      throw ckpt::CheckpointError("task " + std::to_string(t) +
                                  " assigned to out-of-range crossbar " +
                                  std::to_string(xbar));
    if (inverse[xbar] != kNoTask)
      throw ckpt::CheckpointError("crossbar " + std::to_string(xbar) +
                                  " assigned to two tasks");
    assignment[t] = xbar;
    inverse[xbar] = t;
  }
  const std::uint8_t scheme = r.u8();
  if (scheme > static_cast<std::uint8_t>(LineScheme::kAlternating))
    throw ckpt::CheckpointError("invalid line-scheme code " +
                                std::to_string(scheme));
  task_to_xbar_ = std::move(assignment);
  xbar_to_task_ = std::move(inverse);
  line_scheme_ = static_cast<LineScheme>(scheme);
}

std::vector<WeightMapper::TaskMapEntry> WeightMapper::read_task_map(
    ckpt::ByteReader& r, LineScheme* scheme) {
  // Per entry: layer, phase byte, row0, col0, rows, cols, xbar.
  const std::size_t count = r.count(6 * 8 + 1);
  std::vector<TaskMapEntry> out;
  out.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    TaskMapEntry e;
    e.layer = static_cast<std::size_t>(r.u64());
    const std::uint8_t phase = r.u8();
    if (phase > static_cast<std::uint8_t>(Phase::kBackward))
      throw ckpt::CheckpointError("invalid phase code " +
                                  std::to_string(phase));
    e.phase = static_cast<Phase>(phase);
    e.row0 = static_cast<std::size_t>(r.u64());
    e.col0 = static_cast<std::size_t>(r.u64());
    e.rows = static_cast<std::size_t>(r.u64());
    e.cols = static_cast<std::size_t>(r.u64());
    e.xbar = static_cast<XbarId>(r.u64());
    out.push_back(e);
  }
  const std::uint8_t code = r.u8();
  if (code > static_cast<std::uint8_t>(LineScheme::kAlternating))
    throw ckpt::CheckpointError("invalid line-scheme code " +
                                std::to_string(code));
  if (scheme) *scheme = static_cast<LineScheme>(code);
  return out;
}

}  // namespace remapd
