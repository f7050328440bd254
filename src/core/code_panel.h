#ifndef FDX_CORE_CODE_PANEL_H_
#define FDX_CORE_CODE_PANEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/code_column.h"
#include "linalg/simd.h"

namespace fdx {

/// A row-major panel of dictionary codes: row r holds the code of table
/// row r in every column, each at its column's CodeWidthFor width, the
/// one-byte columns first, then the two-byte, then the four-byte ones
/// (table order within a width). Rows are packed, so the panel is
/// Σ n·width(c) bytes, plus the kPanelTailBytes a vector kernel may read
/// past the last row. The resident pass driver packs every pass's bits
/// off one panel: one row compare per pair instead of one gather per
/// pair and column.
class CodePanel {
 public:
  /// A panel of `num_rows` rows over columns with the given
  /// cardinalities; its codes are unspecified until filled.
  CodePanel(size_t num_rows, const std::vector<size_t>& cardinalities);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return offset_.size(); }
  /// The bound on column `col`'s codes the panel was built with.
  size_t cardinality(size_t col) const { return cardinalities_[col]; }
  unsigned width(size_t col) const { return width_[col]; }
  /// The widest column's code width: a pass's sort key holds at most
  /// num_rows() codes of it.
  unsigned widest() const { return widest_; }
  /// Code bytes per row: Σ width(c).
  size_t row_bytes() const { return stride_; }

  /// Writes columns [first, first + count) from `sources[i]`, views of
  /// num_rows() codes at any width whose codes fit the column's (a
  /// source null becomes the column's null), in parallel over row
  /// blocks, so no two threads write one row.
  void Fill(size_t first, const CodeView* sources, size_t count,
            size_t threads);

  /// Copies column `col` out, contiguous at its width (a pass's sort
  /// key).
  void CopyColumn(size_t col, CodeColumn* out) const;

  /// What the panel pack kernels read; valid while the panel lives.
  PanelView view() const;

 private:
  size_t num_rows_;
  std::vector<size_t> cardinalities_;
  unsigned widest_ = 1;
  size_t stride_ = 0;
  size_t counts_[3] = {0, 0, 0};     ///< columns of width 1, 2, 4
  std::vector<uint8_t> width_;       ///< per table column
  std::vector<size_t> offset_;       ///< per table column: byte in a row
  std::vector<uint32_t> column_of_;  ///< panel column -> table column
  std::vector<uint8_t> bytes_;
};

}  // namespace fdx

#endif  // FDX_CORE_CODE_PANEL_H_
