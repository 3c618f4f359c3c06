#include "xbar/transient.hpp"

#include <algorithm>
#include <atomic>
#include <random>

#include "util/parallel.hpp"

namespace remapd {

std::size_t TransientFaultModel::step_epoch(const Rcs& rcs) {
  const std::size_t n = rcs.total_crossbars();
  if (live_.size() < n) live_.resize(n);
  const std::size_t round = ++rounds_;
  if (!scenario_.enabled || scenario_.upset_rate <= 0.0) return 0;

  std::atomic<std::size_t> injected{0};
  parallel_for(0, n, 1, [&](std::size_t x0, std::size_t x1) {
    std::size_t added = 0;
    for (std::size_t x = x0; x < x1; ++x) {
      const Crossbar& xb = rcs.crossbar(static_cast<XbarId>(x));
      Rng child(Rng::derive_seed(Rng::derive_seed(base_seed_, round), x));
      const double lambda =
          scenario_.upset_rate * static_cast<double>(xb.cell_count());
      std::poisson_distribution<std::size_t> arrivals(lambda);
      const std::size_t count = arrivals(child.engine());
      std::vector<UpsetCell>& upsets = live_[x];
      for (std::size_t k = 0; k < count; ++k) {
        const auto cell = static_cast<std::uint32_t>(child.uniform_int(
            0, static_cast<std::int64_t>(xb.cell_count()) - 1));
        const bool toward_on = child.bernoulli(scenario_.toward_on_fraction);
        const bool pos_half = child.bernoulli(0.5);
        // A strike on a permanently stuck cell changes nothing; a second
        // strike on an already-drifted cell is absorbed by the first.
        const std::size_t r = cell / xb.cols(), c = cell % xb.cols();
        if (xb.fault_at(r, c) != CellFault::kNone) continue;
        const auto same = [cell](const UpsetCell& u) { return u.cell == cell; };
        if (std::any_of(upsets.begin(), upsets.end(), same)) continue;
        upsets.push_back(UpsetCell{
            cell, static_cast<std::uint8_t>(toward_on ? 1 : 0),
            static_cast<std::uint8_t>(pos_half ? PairHalf::kPositive
                                               : PairHalf::kNegative)});
        ++added;
      }
      std::sort(upsets.begin(), upsets.end(),
                [](const UpsetCell& a, const UpsetCell& b) {
                  return a.cell < b.cell;
                });
    }
    injected.fetch_add(added, std::memory_order_relaxed);
  });
  return injected.load();
}

const std::vector<UpsetCell>& TransientFaultModel::upsets_of(XbarId x) const {
  static const std::vector<UpsetCell> kEmpty;
  return x < live_.size() ? live_[x] : kEmpty;
}

std::size_t TransientFaultModel::clear_crossbar(XbarId x) {
  if (x >= live_.size()) return 0;
  const std::size_t n = live_[x].size();
  live_[x].clear();
  return n;
}

std::size_t TransientFaultModel::total_upsets() const {
  std::size_t n = 0;
  for (const auto& v : live_) n += v.size();
  return n;
}

void TransientFaultModel::save_state(ckpt::ByteWriter& w) const {
  w.u64(base_seed_);
  w.u64(rounds_);
  w.u64(live_.size());
  for (const auto& upsets : live_) {
    w.u64(upsets.size());
    for (const UpsetCell& u : upsets) {
      w.u32(u.cell);
      w.u8(u.toward_on);
      w.u8(u.half);
    }
  }
}

void TransientFaultModel::load_state(ckpt::ByteReader& r) {
  base_seed_ = r.u64();
  rounds_ = static_cast<std::size_t>(r.u64());
  live_.assign(r.count(8), {});  // each crossbar holds its upset count
  for (auto& upsets : live_) {
    const std::size_t count = r.count(4 + 1 + 1);  // cell, drift, half
    upsets.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      UpsetCell u;
      u.cell = r.u32();
      u.toward_on = r.u8();
      u.half = r.u8();
      if (u.toward_on > 1)
        throw ckpt::CheckpointError("transient upset with drift code " +
                                    std::to_string(u.toward_on));
      upsets.push_back(u);
    }
  }
}

}  // namespace remapd
