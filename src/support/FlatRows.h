//===- support/FlatRows.h - Contiguous row-major feature store -*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SoA feature-row layout shared by every surrogate model.  A
/// std::vector<std::vector<double>> training store costs one heap
/// allocation and one pointer chase per row; the hot loops of the dynamic
/// tree (findLeaf walks per particle per candidate) and the GP (kernel rows
/// over the whole training set) touch every row thousands of times per
/// learner iteration.  FlatRows keeps all rows in one contiguous row-major
/// buffer so those walks are cache-linear, and RowRef lets call sites pass
/// either a row of that buffer or a plain std::vector<double> without
/// copying.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_FLATROWS_H
#define ALIC_SUPPORT_FLATROWS_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <type_traits>
#include <vector>

namespace alic {

/// Non-owning view of one feature row (a span of doubles).  Implicitly
/// constructible from std::vector<double> and from braced literals like
/// {0.5, 1.0}, whose backing storage lives until the end of the full
/// expression — long enough for any model call.
class RowRef {
public:
  RowRef() = default;
  RowRef(const double *Data, size_t Size) : Ptr(Data), Num(Size) {}
  RowRef(const std::vector<double> &Values)
      : Ptr(Values.data()), Num(Values.size()) {}
  // The backing array of a braced literal lives until the end of the full
  // expression — exactly the duration of the model call it is passed to.
  // GCC's lifetime warning assumes the view may outlive the call.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
  RowRef(std::initializer_list<double> Values)
      : Ptr(Values.begin()), Num(Values.size()) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  const double *data() const { return Ptr; }
  size_t size() const { return Num; }
  bool empty() const { return Num == 0; }
  double operator[](size_t I) const {
    assert(I < Num && "row index out of range");
    return Ptr[I];
  }
  const double *begin() const { return Ptr; }
  const double *end() const { return Ptr + Num; }

  std::vector<double> toVector() const { return {Ptr, Ptr + Num}; }

private:
  const double *Ptr = nullptr;
  size_t Num = 0;
};

/// Owning, contiguous row-major store of equally sized feature rows.
class FlatRows {
public:
  FlatRows() = default;

  /// Empty store whose rows will have \p Dim entries.
  explicit FlatRows(size_t Dim) : Dim(Dim) {}

  /// Copies \p Rows (all must be equally sized).
  FlatRows(const std::vector<std::vector<double>> &Rows) {
    reserveRows(Rows.size());
    for (const std::vector<double> &Row : Rows)
      push(Row);
  }

  /// Copies braced row literals: FlatRows R = {{0.0, 1.0}, {2.0, 3.0}}.
  FlatRows(std::initializer_list<std::initializer_list<double>> Rows) {
    for (const auto &Row : Rows)
      push(RowRef(Row.begin(), Row.size()));
  }

  /// Copies the rows of an iterator range (e.g. a sub-range of a
  /// std::vector<std::vector<double>>).
  template <typename It,
            typename = std::enable_if_t<std::is_convertible_v<
                decltype(*std::declval<It>()), RowRef>>>
  FlatRows(It First, It Last) {
    for (; First != Last; ++First)
      push(*First);
  }

  size_t size() const { return NumRows; }
  size_t dim() const { return Dim; }
  bool empty() const { return NumRows == 0; }

  /// Pointer to row \p I's first entry.
  const double *row(size_t I) const {
    assert(I < NumRows && "row index out of range");
    return Data.data() + I * Dim;
  }
  RowRef operator[](size_t I) const { return {row(I), Dim}; }

  /// Appends one row — safe even when \p Row aliases this store's own
  /// buffer (e.g. rows.push(rows[0])).  The first push fixes the
  /// dimensionality.
  void push(RowRef Row) {
    if (NumRows == 0 && Dim == 0) {
      Dim = Row.size();
      if (RowHint != 0 && Dim != 0)
        Data.reserve(RowHint * Dim);
    }
    assert(Row.size() == Dim && "row dimensionality mismatch");
    // Grow-then-copy instead of insert(): GCC 12's -Wstringop-overflow
    // misjudges the insert reallocation path when inlined from braced
    // row literals.
    size_t Old = Data.size();
    if (Data.capacity() >= Old + Dim) {
      // No reallocation: an aliasing Row (which points below Old) stays
      // valid while the new tail is written.
      Data.resize(Old + Dim);
      for (size_t I = 0; I != Dim; ++I)
        Data[Old + I] = Row[I];
    } else {
      // Growth path: reallocation would dangle an aliasing Row, so copy
      // it out first (rare, amortized by geometric growth).
      std::vector<double> Copy(Row.begin(), Row.end());
      Data.resize(Old + Dim);
      for (size_t I = 0; I != Dim; ++I)
        Data[Old + I] = Copy[I];
    }
    ++NumRows;
  }

  /// Removes the last row.
  void popRow() {
    assert(NumRows > 0 && "no row to pop");
    Data.resize(Data.size() - Dim);
    --NumRows;
  }

  void clear() {
    Data.clear();
    NumRows = 0;
  }

  /// Pre-allocates for \p Rows rows.  When the dimensionality is not yet
  /// known the hint is remembered and applied by the first push.
  void reserveRows(size_t Rows) {
    RowHint = Rows;
    if (Dim != 0)
      Data.reserve(Rows * Dim);
  }

  /// The raw row-major buffer (size() * dim() entries).
  const std::vector<double> &raw() const { return Data; }

private:
  size_t Dim = 0;
  size_t NumRows = 0;
  size_t RowHint = 0; ///< deferred reserveRows() hint (rows)
  std::vector<double> Data;
};

} // namespace alic

#endif // ALIC_SUPPORT_FLATROWS_H
