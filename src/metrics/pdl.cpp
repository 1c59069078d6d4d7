#include "metrics/pdl.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace fbf::metrics {

namespace {

/// Three band rows of up to 256 slots (k <= 126) live on the stack;
/// wider bands (huge k on long strings) take one heap buffer per call.
constexpr std::size_t kStackCells = 3 * 256;

/// Core banded OSA computation shared by the public entry points.
/// Returns the distance if it is <= k, otherwise k + 1 ("exceeded").
/// Preconditions: k >= 0 and abs(|s| - |t|) <= k (checked by callers).
///
/// Only the 2k+1 band cells of a row are stored, indexed by diagonal:
/// cell (i, j) lives at d = j - i + k.  Along a diagonal the recurrence's
/// neighbours sit at fixed places — (i-1, j-1) and (i-2, j-2) at d,
/// (i-1, j) at d + 1, (i, j-1) at d - 1 — so three rolling rows of 2k+3
/// slots (an `inf` sentinel either side, band cell d at slot d + 1) hold
/// the whole computation, with no per-row clearing of O(n) columns.
/// `kb` is k capped at max(|s|, |t|) — OSA(s, t) never exceeds that, so
/// a wider band changes nothing — and `rows` holds 3 * (2 * kb + 3) ints.
int banded_osa_rows(std::string_view s, std::string_view t, int k,
                    std::size_t kb, int* rows) {
  const std::size_t m = s.size();
  const std::size_t n = t.size();
  const int inf = static_cast<int>(kb) + 1;
  const std::size_t width = 2 * kb + 3;
  // Out-of-band cells hold `inf`, which plays the role of the paper's
  // "border of arbitrarily large integers" (the 1000 sentinels in Alg. 2).
  int* prev2 = rows;
  int* prev = rows + width;
  int* cur = rows + 2 * width;
  std::fill(rows, rows + 3 * width, inf);
  // Row 0: D(0, j) = j for j <= min(n, k), at d = j + k.
  for (std::size_t j = 0; j <= std::min(n, kb); ++j) {
    prev[j + kb + 1] = static_cast<int>(j);
  }
  for (std::size_t i = 1; i <= m; ++i) {
    // Band cells with 1 <= j <= n; below them lies column 0 (or nothing),
    // above them nothing.  Only these are written: the band's upper end
    // never rises from row to row and its lower end only falls, so every
    // cell a row reads was written by its own row, by one of the two rows
    // before it, or by the initial fill (never by a stale row — three
    // rows back the band started higher).
    const std::size_t d_lo = i <= kb ? kb - i + 1 : 0;
    const std::size_t d_hi = std::min(2 * kb, n + kb - i);
    if (i <= kb) {
      cur[d_lo] = static_cast<int>(i);  // column 0, at d = k - i
    }
    // A path of cost <= k never leaves the band, so every band cell holds
    // min(D(i, j), k + 1).  On those values a match's diagonal term is
    // never beaten by the other terms, so one branch-free minimum over
    // all of them equals Alg. 2's cell (which takes the diagonal alone on
    // a match).  The left and diagonal neighbours ride in registers.
    const char si = s[i - 1];
    const char si_prev = i > 1 ? s[i - 2] : '\0';
    // t[j - 2] for the first cell.  At j = 1 there is none, and the
    // transposition term reads cell (i - 2, -1), still inf from the
    // initial fill, so the placeholder never lowers a cell.
    const char* tj_ptr = t.data() + (i + d_lo - kb - 1);
    char t_left = i + d_lo - kb > 1 ? tj_ptr[-1] : '\0';
    int left = cur[d_lo];  // column 0 or the low sentinel
    int diag = prev[d_lo + 1];
    int row_min = left;
    for (std::size_t d = d_lo; d <= d_hi; ++d) {
      const char tj = *tj_ptr++;
      const int up = prev[d + 2];
      // inf is added unless the transposition applies; the cell's final
      // clamp to inf absorbs it.
      const int swapped = static_cast<int>(si == t_left) &
                          static_cast<int>(si_prev == tj);
      const int trans = prev2[d + 1] + 1 + ((swapped - 1) & inf);
      const int best = std::min({diag + static_cast<int>(si != tj), up + 1,
                                 left + 1, trans, inf});
      cur[d + 1] = best;
      row_min = std::min(row_min, best);
      left = best;
      diag = up;
      t_left = tj;
    }
    // Paper's early termination: no cell in this row is <= k, so no
    // completion can end <= k (costs are non-decreasing down the matrix).
    if (row_min >= inf) {
      return k + 1;
    }
    int* const recycled = prev2;
    prev2 = prev;
    prev = cur;
    cur = recycled;
  }
  const int d = prev[n + kb - m + 1];
  return d < inf ? d : k + 1;
}

/// banded_osa_rows on stack rows, or on one heap buffer when the band is
/// too wide for them.
int banded_osa(std::string_view s, std::string_view t, int k) {
  const std::size_t kb =
      std::min(static_cast<std::size_t>(k), std::max(s.size(), t.size()));
  const std::size_t cells = 3 * (2 * kb + 3);
  if (cells <= kStackCells) {
    int rows[kStackCells];
    return banded_osa_rows(s, t, k, kb, rows);
  }
  std::vector<int> rows(cells);
  return banded_osa_rows(s, t, k, kb, rows.data());
}

}  // namespace

bool pdl_within(std::string_view s, std::string_view t, int k) {
  if (k < 0) {
    return false;
  }
  // Algorithm 2 Step 1, verbatim: empty operands fail, as does a length
  // difference beyond the threshold (the classic length filter).
  if (s.empty() || t.empty()) {
    return false;
  }
  if (std::abs(static_cast<long>(s.size()) - static_cast<long>(t.size())) >
      k) {
    return false;
  }
  return banded_osa(s, t, k) <= k;
}

bool within_edits(std::string_view s, std::string_view t, int k) {
  if (k < 0) {
    return false;
  }
  if (s.empty() || t.empty()) {
    return static_cast<int>(std::max(s.size(), t.size())) <= k;
  }
  if (std::abs(static_cast<long>(s.size()) - static_cast<long>(t.size())) >
      k) {
    return false;
  }
  return banded_osa(s, t, k) <= k;
}

std::optional<int> bounded_dl_distance(std::string_view s, std::string_view t,
                                       int k) {
  if (k < 0) {
    return std::nullopt;
  }
  if (s.empty() || t.empty()) {
    const int d = static_cast<int>(std::max(s.size(), t.size()));
    return d <= k ? std::optional<int>(d) : std::nullopt;
  }
  if (std::abs(static_cast<long>(s.size()) - static_cast<long>(t.size())) >
      k) {
    return std::nullopt;
  }
  const int d = banded_osa(s, t, k);
  return d <= k ? std::optional<int>(d) : std::nullopt;
}

}  // namespace fbf::metrics
