// WeightMapper: tiles every layer's weight matrix into crossbar-sized
// blocks and assigns each block ("task") to a physical crossbar of the RCS.
//
// Training accelerators in the PipeLayer/ISAAC family keep two physical
// copies of each weight block: the forward copy (computes y = W x) and the
// backward copy (stores W^T, computes dx = W^T dy). Both are tasks in the
// paper's sense — "the computations associated with a CNN layer which are
// executed on a ReRAM crossbar" — and both are mapped here, to distinct
// crossbars.
//
// The mapper owns the task->crossbar assignment (mutable: remapping swaps
// it) and builds the per-layer FaultViews that couple each physical
// crossbar's stuck cells into the layer arithmetic (see nn/fault_view.hpp).
#pragma once

#include <optional>
#include <vector>

#include "nn/fault_view.hpp"
#include "xbar/ir_drop.hpp"
#include "xbar/rcs.hpp"

namespace remapd {

class TransientFaultModel;  // xbar/transient.hpp

using TaskId = std::size_t;
constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

/// One crossbar-sized block of a layer's (possibly transposed) weights.
struct WeightBlock {
  std::size_t layer;   ///< index into the model's faultable-layer list
  Phase phase;
  std::size_t row0, col0;  ///< offset in the stored matrix (W or W^T)
  std::size_t rows, cols;  ///< extent (<= crossbar dimensions)
};

/// Whether a block covers element (w_row, w_col) of the layer's weight
/// matrix W (accounting for the transposed storage of backward blocks).
[[nodiscard]] constexpr bool block_covers(const WeightBlock& blk,
                                          std::size_t w_row,
                                          std::size_t w_col) {
  if (blk.phase == Phase::kForward)
    return w_row >= blk.row0 && w_row < blk.row0 + blk.rows &&
           w_col >= blk.col0 && w_col < blk.col0 + blk.cols;
  return w_row >= blk.col0 && w_row < blk.col0 + blk.cols &&
         w_col >= blk.row0 && w_col < blk.row0 + blk.rows;
}

class WeightMapper : public ckpt::Snapshotable {
 public:
  /// `rcs` must outlive the mapper; crossbars must be square.
  explicit WeightMapper(Rcs& rcs);

  /// Tile `layer_dims[i] = (rows, cols)` of every faultable layer into
  /// forward + backward tasks and assign them to crossbars in id order.
  /// Throws if the RCS has fewer crossbars than tasks.
  void map_layers(const std::vector<std::pair<std::size_t, std::size_t>>&
                      layer_dims);

  [[nodiscard]] std::size_t num_tasks() const { return tasks_.size(); }
  [[nodiscard]] const WeightBlock& task(TaskId t) const {
    return tasks_.at(t);
  }
  [[nodiscard]] XbarId xbar_of(TaskId t) const { return task_to_xbar_.at(t); }
  /// Task currently on a crossbar, or kNoTask when idle.
  [[nodiscard]] TaskId task_on(XbarId x) const { return xbar_to_task_.at(x); }

  /// Exchange the crossbars of two tasks, or move a task to an idle
  /// crossbar (the remapping primitive — Fig. 3(c) weight exchange).
  void swap_tasks(TaskId a, XbarId target_xbar);

  /// Crossbar ids currently holding tasks of a phase.
  [[nodiscard]] std::vector<XbarId> xbars_of_phase(Phase p) const;
  /// All crossbar ids holding any task.
  [[nodiscard]] std::vector<XbarId> mapped_xbars() const;

  /// Union of fault clamps over all blocks of `layer` in `phase`, using
  /// each block's currently assigned crossbar. `w_max` is the layer's
  /// conductance full-scale (typically max |w| at write time). Live
  /// transient upsets (set_transients) are merged as clamps; an enabled
  /// IR-drop config (set_ir_drop) additionally populates the view's
  /// position-gain field under the current line scheme.
  [[nodiscard]] FaultView build_fault_view(
      std::size_t layer, Phase phase, float w_max,
      MappingMode mode = MappingMode::kSingleArrayBias) const;

  /// Couple a transient-fault model into every subsequently built view
  /// (nullptr detaches). The model must outlive the mapper.
  void set_transients(const TransientFaultModel* transients) {
    transients_ = transients;
  }
  /// Interconnect parasitics for subsequently built views.
  void set_ir_drop(const IrDropConfig& cfg) { ir_drop_ = cfg; }
  [[nodiscard]] const IrDropConfig& ir_drop() const { return ir_drop_; }
  /// Line-drive scheme (the X-CHANGR mitigation flips this to
  /// kAlternating). Survives checkpoints via save_state.
  void set_line_scheme(LineScheme scheme) { line_scheme_ = scheme; }
  [[nodiscard]] LineScheme line_scheme() const { return line_scheme_; }

  /// Ground-truth fault count that lands inside the occupied extent of the
  /// crossbar currently holding `t` (the portion that perturbs weights).
  [[nodiscard]] std::size_t effective_fault_count(TaskId t) const;

  /// Hop distance (tile Manhattan) between the tiles of two crossbars.
  [[nodiscard]] std::size_t hop_distance(XbarId a, XbarId b) const {
    return rcs_->tile_distance(rcs_->tile_of(a), rcs_->tile_of(b));
  }

  /// Account one weight-update write pass on every mapped crossbar
  /// (endurance bookkeeping driving post-deployment wear-out bias).
  void record_weight_update();

  /// Flat indices (into the layer's W storage) of every weight element of
  /// task `t`, in fixed cell-row-major order — the per-crossbar write
  /// order of the stochastic programmer. Depends only on the block
  /// geometry (never on the crossbar assignment), so callers may cache
  /// the result across remaps.
  [[nodiscard]] std::vector<std::uint32_t> task_weight_indices(
      TaskId t) const;

  /// Commit the level codes of every crossbar holding a task of `layer`
  /// (both phases) from the layer's current weights: code = nearest level
  /// of w on the L-level grid spanning [-w_max, +w_max]. No-op on
  /// continuous crossbars. Idempotent for fixed (weights, w_max) — called
  /// at every view-refresh boundary, including the re-refresh after a
  /// checkpoint resume.
  void commit_level_codes(std::size_t layer, const float* w, float w_max);

  [[nodiscard]] Rcs& rcs() { return *rcs_; }
  [[nodiscard]] const Rcs& rcs() const { return *rcs_; }

  /// Dimensions (rows, cols) of layer `l`'s weight matrix as mapped.
  [[nodiscard]] const std::pair<std::size_t, std::size_t>& layer_dims(
      std::size_t l) const {
    return layer_dims_.at(l);
  }

  // Snapshotable: every task's block geometry plus its current crossbar
  // assignment (the swaps Remap-D has performed live here), followed by
  // the line-drive scheme (a policy decision that must survive resume
  // because on_training_start is skipped then). load_state verifies the
  // stored blocks match the mapped model task-for-task, then applies the
  // assignment and rebuilds the inverse map.
  void save_state(ckpt::ByteWriter& w) const override;
  void load_state(ckpt::ByteReader& r) override;

  /// One row of the serialized task map, as read back by the
  /// `remapd_ckpt` inspector without reconstructing a mapper.
  struct TaskMapEntry {
    std::size_t layer = 0;
    Phase phase = Phase::kForward;
    std::size_t row0 = 0, col0 = 0, rows = 0, cols = 0;
    XbarId xbar = 0;
  };
  /// Parse a full save_state blob into inspector rows (the trailing line
  /// scheme is consumed and returned through `scheme` when non-null).
  static std::vector<TaskMapEntry> read_task_map(ckpt::ByteReader& r,
                                                 LineScheme* scheme = nullptr);

 private:
  /// Flat W-storage index of crossbar cell (r, c) of `blk` (transposing
  /// back for backward tasks) — the single indexing convention shared by
  /// view building, code commits, and the programmer's write order.
  [[nodiscard]] std::size_t weight_flat_index(const WeightBlock& blk,
                                              std::size_t r,
                                              std::size_t c) const;

  Rcs* rcs_;
  std::vector<std::pair<std::size_t, std::size_t>> layer_dims_;
  std::vector<WeightBlock> tasks_;
  std::vector<XbarId> task_to_xbar_;
  std::vector<TaskId> xbar_to_task_;
  const TransientFaultModel* transients_ = nullptr;
  IrDropConfig ir_drop_{};
  LineScheme line_scheme_ = LineScheme::kSingleSided;
};

}  // namespace remapd
