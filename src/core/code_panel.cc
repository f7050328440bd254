#include "core/code_panel.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace fdx {

namespace {

/// Rows a thread fills across every column before moving on, so the
/// rows it writes stay in cache while the columns stream past.
constexpr size_t kFillRows = 1024;

}  // namespace

CodePanel::CodePanel(size_t num_rows, const std::vector<size_t>& cardinalities)
    : num_rows_(num_rows),
      cardinalities_(cardinalities),
      width_(cardinalities.size()),
      offset_(cardinalities.size()) {
  for (size_t c = 0; c < cardinalities.size(); ++c) {
    width_[c] = static_cast<uint8_t>(CodeWidthFor(cardinalities[c]));
    widest_ = std::max<unsigned>(widest_, width_[c]);
  }
  column_of_.reserve(cardinalities.size());
  for (unsigned group = 0; group < 3; ++group) {
    const unsigned width = 1u << group;
    for (size_t c = 0; c < cardinalities.size(); ++c) {
      if (width_[c] != width) continue;
      offset_[c] = stride_;
      stride_ += width;
      ++counts_[group];
      column_of_.push_back(static_cast<uint32_t>(c));
    }
  }
  bytes_.resize(num_rows_ * stride_ + kPanelTailBytes);
}

void CodePanel::Fill(size_t first, const CodeView* sources, size_t count,
                     size_t threads) {
  ParallelFor(0, num_rows_, threads, [&](size_t lo, size_t hi) {
    for (size_t tile = lo; tile < hi; tile += kFillRows) {
      const size_t end = std::min(hi, tile + kFillRows);
      for (size_t i = 0; i < count; ++i) {
        const size_t col = first + i;
        uint8_t* dst = bytes_.data() + offset_[col];
        DispatchCodeWidth(sources[i].width, [&](auto src_zero) {
          using Src = decltype(src_zero);
          DispatchCodeWidth(width_[col], [&](auto dst_zero) {
            using Dst = decltype(dst_zero);
            for (size_t r = tile; r < end; ++r) {
              const Src code = LoadCode<Src>(sources[i].data, r);
              StoreCode<Dst>(dst + r * stride_, 0,
                             code == static_cast<Src>(~Src{0})
                                 ? static_cast<Dst>(~Dst{0})
                                 : static_cast<Dst>(code));
            }
          });
        });
      }
    }
  });
}

void CodePanel::CopyColumn(size_t col, CodeColumn* out) const {
  const unsigned width = width_[col];
  out->Reset(width, num_rows_);
  const uint8_t* src = bytes_.data() + offset_[col];
  uint8_t* dst = out->mutable_data();
  DispatchCodeWidth(width, [&](auto zero) {
    using T = decltype(zero);
    for (size_t r = 0; r < num_rows_; ++r) {
      StoreCode<T>(dst, r, LoadCode<T>(src + r * stride_, 0));
    }
  });
}

PanelView CodePanel::view() const {
  PanelView view;
  view.rows = bytes_.data();
  view.stride = stride_;
  view.ones = counts_[0];
  view.twos = counts_[1];
  view.fours = counts_[2];
  view.column_of = column_of_.data();
  return view;
}

}  // namespace fdx
