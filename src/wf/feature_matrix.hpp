// Contiguous row-major feature storage for the WF attack engine.
//
// One allocation for the whole dataset instead of a std::vector per
// sample: rows are cache-line-contiguous, a fold's training subset is a
// single gather, and batch kernels (forest prediction, leaf k-NN) can
// stream it. Rows are handed out as std::span, so classifiers never see
// the storage layout.
//
// Storage is 64-byte over-aligned with a padded row stride (cols rounded
// up to 8 doubles), so every row starts on its own cache line — a plain
// std::vector<double> only guarantees 8-byte alignment, so a row could
// straddle two lines. Padding lanes are always zero, so equality and
// hashing over raw storage stay deterministic.
// row(r) spans exactly cols() entries; batch kernels that walk raw storage
// use row_stride() as the row-to-row distance.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <vector>

namespace stob::wf {

class FeatureMatrix {
 public:
  /// Row alignment in bytes (one cache line, one full AVX-512 vector).
  static constexpr std::size_t kRowAlign = 64;

  FeatureMatrix() = default;
  /// rows x cols matrix, zero-filled.
  FeatureMatrix(std::size_t rows, std::size_t cols);

  FeatureMatrix(const FeatureMatrix& other);
  FeatureMatrix& operator=(const FeatureMatrix& other);
  FeatureMatrix(FeatureMatrix&&) noexcept = default;
  FeatureMatrix& operator=(FeatureMatrix&&) noexcept = default;

  /// Copy a ragged row-of-vectors dataset into contiguous storage. All rows
  /// must have the same width.
  static FeatureMatrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Doubles between consecutive row starts (cols rounded up to 8).
  std::size_t row_stride() const { return stride_; }
  bool empty() const { return rows_ == 0; }

  std::span<const double> row(std::size_t r) const {
    return {data_.get() + r * stride_, cols_};
  }
  std::span<double> row(std::size_t r) { return {data_.get() + r * stride_, cols_}; }
  double at(std::size_t r, std::size_t c) const { return data_[r * stride_ + c]; }
  double& at(std::size_t r, std::size_t c) { return data_[r * stride_ + c]; }
  /// Start of row 0; rows are row_stride() doubles apart (NOT cols()).
  const double* data() const { return data_.get(); }

  /// Set the width of an empty matrix (before the first append_row).
  void set_cols(std::size_t cols);

  /// Append one row (must match cols(); sets cols() on a fresh matrix).
  void append_row(std::span<const double> values);

  /// New matrix holding rows `indices`, in order (fold/train-set gather).
  FeatureMatrix gathered(std::span<const std::size_t> indices) const;

  /// Value equality over shape and row contents (padding excluded, though
  /// it is zero on both sides by construction).
  friend bool operator==(const FeatureMatrix& a, const FeatureMatrix& b);

 private:
  struct AlignedDelete {
    void operator()(double* p) const {
      ::operator delete[](p, std::align_val_t(kRowAlign));
    }
  };

  /// Zero-filled 64-byte-aligned buffer of n doubles.
  static std::unique_ptr<double[], AlignedDelete> allocate(std::size_t n);
  /// Reallocate to `cap_rows` capacity, preserving contents.
  void reserve_rows(std::size_t cap_rows);

  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::size_t rows_ = 0;
  std::size_t cap_rows_ = 0;
  std::unique_ptr<double[], AlignedDelete> data_;
};

}  // namespace stob::wf
