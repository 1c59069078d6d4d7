// Packed structure-of-arrays signature planes for the batched filter
// kernel (DESIGN.md §8).
//
// An array of classic Signatures is an array of structs: each holds up
// to five 32-bit words plus a size byte (24 bytes), so a filter sweep
// strides through memory touching mostly padding, and every FindDiffBits
// call loops over a runtime word count.  The packed store transposes the
// layout: signatures become 64-bit *words* stored in contiguous, 64-byte-
// aligned planes (plane w holds word w of every row), so one query can be
// XOR+popcount-ed against a whole tile of candidates with sequential
// loads — the shape the batched kernel in core/fbf_kernel.hpp wants.
//
// Supported layouts (word counts per row):
//   numeric                    1 x u64   (30 used bits)
//   alpha, l <= 2              1 x u64   (word0 | word1 << 26; 52 bits)
//   alphanumeric, l <= 2       2 x u64   (plane 0 alpha, plane 1 numeric)
// Wider layouts (alpha l > 2) do not fit the planes and report
// !supported(); callers fall back to the classic per-pair scan.
//
// Packing is a bijective placement into disjoint bit ranges, so
// popcount(packed(m) XOR packed(n)) == FindDiffBits(m, n) exactly — the
// filter semantics are unchanged (property-tested).
//
// A parallel flat `lengths()` array rides along so the length filter
// never touches std::string during the join.
//
// The store grows *incrementally*: append() packs new rows into spare
// capacity (geometric doubling, no full repack per batch), which is what
// lets the incremental EntityStore keep a packed image of the master list
// across nightly batches.  Words past size() up to padded_size() are
// always zero, so vector kernels may read whole cache lines past the tail.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/signature.hpp"

namespace fbf::core {

/// 64-byte-aligned uint64 buffer with amortized geometric growth.  The
/// allocated size is a multiple of 8 words (one cache line) and every
/// word past the written count is zero-filled, so vector kernels may read
/// whole lines past the logical end without faulting.
class AlignedPlane {
 public:
  AlignedPlane() = default;
  explicit AlignedPlane(std::size_t count);

  [[nodiscard]] std::uint64_t* data() noexcept { return data_.get(); }
  [[nodiscard]] const std::uint64_t* data() const noexcept {
    return data_.get();
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  /// Allocated size including zero padding (multiple of 8).
  [[nodiscard]] std::size_t padded_size() const noexcept { return padded_; }

  /// Grows the buffer so at least `count` words are writable, preserving
  /// existing contents and keeping the tail zero-filled.  Amortized O(1)
  /// per word (geometric doubling); never shrinks.
  void ensure(std::size_t count);
  /// Marks `count` words as written (must be <= padded_size()).
  void set_size(std::size_t count) noexcept { count_ = count; }

 private:
  struct Deleter {
    void operator()(std::uint64_t* p) const noexcept {
      ::operator delete[](p, std::align_val_t{64});
    }
  };
  std::unique_ptr<std::uint64_t[], Deleter> data_;
  std::size_t count_ = 0;
  std::size_t padded_ = 0;
};

/// Words per packed row for a layout, or 0 when the layout is unsupported.
[[nodiscard]] constexpr std::size_t packed_words(FieldClass cls,
                                                 int alpha_words) noexcept {
  switch (cls) {
    case FieldClass::kNumeric:
      return 1;
    case FieldClass::kAlpha:
      return alpha_words <= 2 ? 1 : 0;
    case FieldClass::kAlphanumeric:
      return alpha_words <= 2 ? 2 : 0;
  }
  return 0;
}

/// Maximum popcount the *last* plane's XOR diff can contribute for a
/// layout — the "max remaining popcount" bound the block kernel's
/// early-accept prune needs (see core/fbf_kernel.hpp).  The two-plane
/// alphanumeric layout keeps the numeric word in plane 1 and only 30 of
/// its 64 bits are ever set (3 occurrence bits × 10 digits), so the
/// plane-1 diff sets at most 30 bits.  Single-plane layouts have no
/// remaining plane: 0.
[[nodiscard]] constexpr int max_tail_popcount(FieldClass cls,
                                              int alpha_words) noexcept {
  return packed_words(cls, alpha_words) == 2 ? 30 : 0;
}

/// Packs one classic signature into its plane words (layout above).
/// `out` must have room for packed_words() entries.
void pack_signature(const Signature& sig, FieldClass cls, int alpha_words,
                    std::uint64_t* out) noexcept;

class PackedSignatureStore {
 public:
  PackedSignatureStore() = default;

  /// Empty store with an established layout, ready for append().  Layout
  /// must be supported().
  PackedSignatureStore(FieldClass cls, int alpha_words);

  /// Builds packed planes + the length array for every string, fanning the
  /// generation across `threads` pool workers (the Gen row is timed as the
  /// whole parallel build).  Layout must be supported().
  PackedSignatureStore(std::span<const std::string> strings, FieldClass cls,
                       int alpha_words = kDefaultAlphaWords,
                       std::size_t threads = 1);

  [[nodiscard]] static bool supported(FieldClass cls,
                                      int alpha_words) noexcept {
    return packed_words(cls, alpha_words) != 0;
  }

  /// Appends one batch of strings (signatures generated here, fanned
  /// across `threads`).  Existing rows are never repacked: new rows land
  /// in spare capacity, growing geometrically when exhausted.
  void append(std::span<const std::string> strings, std::size_t threads = 1);

  /// Appends one pre-built signature (caller already paid generation —
  /// e.g. the EntityStore keeps classic per-record signatures for its
  /// snapshot format and feeds them here instead of re-deriving).
  void append_signature(const Signature& sig, std::uint32_t length);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t words() const noexcept { return words_; }
  /// This store's layout bound for the kernel's early-accept prune.
  [[nodiscard]] int max_tail_popcount() const noexcept {
    return fbf::core::max_tail_popcount(cls_, alpha_words_);
  }
  [[nodiscard]] double build_ms() const noexcept { return build_ms_; }
  [[nodiscard]] FieldClass field_class() const noexcept { return cls_; }
  [[nodiscard]] int alpha_words() const noexcept { return alpha_words_; }
  /// Allocated rows per plane (multiple of 8; rows past size() are zero).
  [[nodiscard]] std::size_t padded_size() const noexcept {
    return planes_[0].padded_size();
  }

  /// Plane w: word w of every row, contiguous and 64-byte aligned.
  [[nodiscard]] const std::uint64_t* plane(std::size_t w) const noexcept {
    return planes_[w].data();
  }
  /// String lengths, flat (the length filter reads these, not strings).
  [[nodiscard]] const std::uint32_t* lengths() const noexcept {
    return lengths_.data();
  }

  /// Row i's word w (tests / per-pair fallbacks).
  [[nodiscard]] std::uint64_t word(std::size_t w,
                                   std::size_t i) const noexcept {
    return planes_[w].data()[i];
  }

 private:
  void reserve_rows(std::size_t total);

  AlignedPlane planes_[2];
  std::vector<std::uint32_t> lengths_;
  std::size_t size_ = 0;
  std::size_t words_ = 0;
  double build_ms_ = 0.0;
  FieldClass cls_ = FieldClass::kAlpha;
  int alpha_words_ = kDefaultAlphaWords;
};

}  // namespace fbf::core
