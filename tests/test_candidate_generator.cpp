// Property tests for the generate stage of the generate→filter→verify
// cascade (DESIGN.md §14).  The load-bearing guarantee is zero false
// negatives: the block index must surface a superset of
// { j : OSA(query, t_j) <= k }, so the verifier-final match set is
// *identical* to the dense sweep's across layouts, k in {1,2}, thread
// counts, and incremental appends.  Also pinned here: the tag-only
// bit-packed postings store (round trip, order independence, bit-width
// widening past 2^20 ids, thread-count invariance, forced tag
// collisions), generator selection (FBF_FORCE_GENERATOR),
// and the soundness gates that keep a forced "block" from ever changing
// answers.
#include "core/block_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <span>
#include <stop_token>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/candidate_pipeline.hpp"
#include "core/exec_policy.hpp"
#include "core/match_join.hpp"
#include "datagen/dataset.hpp"
#include "linkage/engine.hpp"
#include "linkage/incremental.hpp"
#include "linkage/person_gen.hpp"
#include "metrics/pdl.hpp"
#include "testenv.hpp"
#include "util/rng.hpp"

namespace {

namespace c = fbf::core;
namespace dg = fbf::datagen;
namespace lk = fbf::linkage;
using fbf::metrics::pdl_within;
using fbf::util::Rng;

using fbf::testenv::ScopedForceGenerator;

// ---------------------------------------------------------------------------
// PackedPostings: the tag-only bit-packed store.
// ---------------------------------------------------------------------------

/// One (hash, id) entry of a test input.
struct Entry {
  std::uint64_t hash;
  std::uint32_t id;
};

/// Spreads a small integer over all 64 bits, as the generator's
/// finalized key hashes are.
constexpr std::uint64_t spread(std::uint64_t x) {
  return (x + 1) * 0x9e3779b97f4a7c15ull;
}

/// Builds `p` over `entries` (ids < n_ids): the key source hands each id
/// its hashes in input order, duplicates included.
bool build_from(c::PackedPostings& p, std::uint32_t n_ids,
                const std::vector<Entry>& entries, std::size_t threads = 1,
                int tag_bits = c::PackedPostings::kTagBits) {
  std::vector<std::vector<std::uint64_t>> by_id(n_ids);
  for (const Entry& e : entries) {
    by_id[e.id].push_back(e.hash);
  }
  return p.build(
      n_ids, entries.size(),
      [&](std::uint32_t id, std::vector<std::uint64_t>& out) {
        out.insert(out.end(), by_id[id].begin(), by_id[id].end());
        return true;
      },
      threads, tag_bits);
}

std::vector<std::uint32_t> find_ids(const c::PackedPostings& p,
                                    std::uint64_t hash) {
  std::vector<std::uint32_t> ids;
  p.find(hash, ids);
  return ids;
}

TEST(PackedPostings, RoundTripSortsAndDeduplicates) {
  // Unsorted input with duplicates; the build keeps one entry per
  // (hash, id), and a lookup returns the hash's ids in ascending order.
  const std::vector<Entry> entries = {
      {spread(40), 7}, {spread(10), 3}, {spread(40), 1}, {spread(10), 3},
      {spread(25), 0}, {spread(40), 7}, {spread(10), 9},
  };
  c::PackedPostings p;
  ASSERT_TRUE(build_from(p, 10, entries));
  EXPECT_EQ(p.entry_count(), 5u);  // two duplicates dropped
  EXPECT_EQ(p.bits_per_id(), 4);
  EXPECT_EQ(find_ids(p, spread(10)), (std::vector<std::uint32_t>{3, 9}));
  EXPECT_EQ(find_ids(p, spread(25)), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(find_ids(p, spread(40)), (std::vector<std::uint32_t>{1, 7}));
  EXPECT_TRUE(find_ids(p, spread(11)).empty());
  // Every position holds its bucket's entries in ascending id order.
  for (std::size_t b = 0; b < p.bucket_count(); ++b) {
    const auto r = p.bucket_at(b);
    for (std::size_t pos = r.begin + 1; pos < r.end; ++pos) {
      EXPECT_LE(p.id_at(pos - 1), p.id_at(pos));
    }
  }
}

/// Every observable of two stores is equal: counts, widths, each bucket
/// range, and the tag and id at every position.
void expect_same_postings(const c::PackedPostings& a,
                          const c::PackedPostings& b,
                          const std::string& label) {
  ASSERT_EQ(a.entry_count(), b.entry_count()) << label;
  ASSERT_EQ(a.bucket_count(), b.bucket_count()) << label;
  ASSERT_EQ(a.bits_per_id(), b.bits_per_id()) << label;
  ASSERT_EQ(a.tag_bits(), b.tag_bits()) << label;
  for (std::size_t i = 0; i < a.bucket_count(); ++i) {
    ASSERT_EQ(a.bucket_at(i).begin, b.bucket_at(i).begin) << label << " " << i;
    ASSERT_EQ(a.bucket_at(i).end, b.bucket_at(i).end) << label << " " << i;
  }
  for (std::size_t pos = 0; pos < a.entry_count(); ++pos) {
    ASSERT_EQ(a.tag_at(pos), b.tag_at(pos)) << label << " pos " << pos;
    ASSERT_EQ(a.id_at(pos), b.id_at(pos)) << label << " pos " << pos;
  }
}

TEST(PackedPostings, BuildIsInputOrderIndependent) {
  // Which keys an id has decides what is stored, not the order or
  // repetition in which the key source hands them over: every bucket
  // holds the same (id, tag) entries with ids ascending.  Only one id's
  // own entries inside one bucket follow the source's order.
  Rng rng(99);
  std::vector<Entry> entries;
  for (int i = 0; i < 500; ++i) {
    entries.push_back({spread(rng.next() % 37),
                       static_cast<std::uint32_t>(rng.next() % 1000)});
  }
  std::vector<Entry> shuffled = entries;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next() % i]);
  }
  for (std::size_t i = 0; i < 100; ++i) {
    shuffled.push_back(shuffled[i * 3]);
  }
  c::PackedPostings a;
  c::PackedPostings b;
  ASSERT_TRUE(build_from(a, 1000, entries));
  // The same expected size, so both tables get the same bucket count.
  std::vector<std::vector<std::uint64_t>> by_id(1000);
  for (const Entry& e : shuffled) {
    by_id[e.id].push_back(e.hash);
  }
  ASSERT_TRUE(b.build(1000, entries.size(),
                      [&](std::uint32_t id, std::vector<std::uint64_t>& out) {
                        out = by_id[id];
                        return true;
                      }));
  ASSERT_EQ(a.entry_count(), b.entry_count());
  ASSERT_EQ(a.bucket_count(), b.bucket_count());
  for (std::size_t bucket = 0; bucket < a.bucket_count(); ++bucket) {
    const auto ra = a.bucket_at(bucket);
    const auto rb = b.bucket_at(bucket);
    ASSERT_EQ(ra.begin, rb.begin);
    ASSERT_EQ(ra.end, rb.end);
    std::vector<std::pair<std::uint32_t, std::uint16_t>> in_a;
    std::vector<std::pair<std::uint32_t, std::uint16_t>> in_b;
    for (std::size_t pos = ra.begin; pos < ra.end; ++pos) {
      in_a.emplace_back(a.id_at(pos), a.tag_at(pos));
      in_b.emplace_back(b.id_at(pos), b.tag_at(pos));
      if (pos > ra.begin) {
        EXPECT_LE(a.id_at(pos - 1), a.id_at(pos));
        EXPECT_LE(b.id_at(pos - 1), b.id_at(pos));
      }
    }
    std::sort(in_a.begin(), in_a.end());
    std::sort(in_b.begin(), in_b.end());
    ASSERT_EQ(in_a, in_b) << "bucket " << bucket;
  }
}

TEST(PackedPostings, BitWidthWidensPastTwentyBitIds) {
  // ~20 bits per id at a million rows is the design point; the store must
  // widen automatically when ids cross the 2^20 boundary, and ids packed
  // near the boundary (including spills across 64-bit word seams) must
  // round-trip exactly.
  constexpr std::uint32_t kBoundary = 1u << 20;
  {
    c::PackedPostings p;
    ASSERT_TRUE(build_from(p, kBoundary,
                           {{spread(1), kBoundary - 1}, {spread(1), 12345}}));
    EXPECT_EQ(p.bits_per_id(), 20);
    EXPECT_EQ(find_ids(p, spread(1)),
              (std::vector<std::uint32_t>{12345, kBoundary - 1}));
  }
  {
    std::vector<Entry> entries;
    // Enough entries at 21 bits that packed positions straddle word
    // boundaries (64 is not a multiple of 21).
    for (std::uint32_t i = 0; i < 200; ++i) {
      entries.push_back({spread(i % 7), kBoundary + i});
    }
    c::PackedPostings p;
    ASSERT_TRUE(build_from(p, kBoundary + 200, entries));
    EXPECT_EQ(p.bits_per_id(), 21);
    for (std::uint64_t key = 0; key < 7; ++key) {
      const std::vector<std::uint32_t> ids = find_ids(p, spread(key));
      ASSERT_FALSE(ids.empty());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_GE(ids[i], kBoundary);
        EXPECT_LT(ids[i], kBoundary + 200);
        EXPECT_EQ((ids[i] - kBoundary) % 7, key);
        if (i > 0) {
          EXPECT_GT(ids[i], ids[i - 1]);
        }
      }
    }
  }
}

TEST(PackedPostings, EmptyAndSingleEntry) {
  c::PackedPostings p;
  ASSERT_TRUE(build_from(p, 0, {}));
  EXPECT_EQ(p.entry_count(), 0u);
  EXPECT_TRUE(find_ids(p, spread(0)).empty());
  ASSERT_TRUE(build_from(p, 1, {{spread(0), 0}}));
  EXPECT_EQ(p.entry_count(), 1u);
  EXPECT_EQ(p.bits_per_id(), 1);
  EXPECT_EQ(find_ids(p, spread(0)), (std::vector<std::uint32_t>{0}));
}

TEST(PackedPostings, AbortedBuildLeavesTheStoreEmpty) {
  c::PackedPostings p;
  ASSERT_TRUE(build_from(p, 3, {{spread(1), 0}, {spread(2), 2}}));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    const bool built = p.build(
        100, 100,
        [](std::uint32_t id, std::vector<std::uint64_t>& out) {
          out.push_back(spread(id));
          return id < 50;
        },
        threads);
    EXPECT_FALSE(built);
    EXPECT_EQ(p.entry_count(), 0u);
    EXPECT_TRUE(find_ids(p, spread(1)).empty());
  }
}

/// The store holds exactly the distinct entries: bucket by bucket, the
/// entries whose hash falls there in ascending id order, one id's in the
/// order the key source handed them over (first occurrences; sorted by
/// hash for lists longer than 16); each stored hash finds its ids; and
/// any hash finds exactly the ids of its bucket that carry its tag.
void expect_postings_of(const c::PackedPostings& p,
                        std::vector<Entry> entries, Rng& rng,
                        const std::string& label) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.id < b.id; });
  std::vector<Entry> distinct;
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i;
    while (j < entries.size() && entries[j].id == entries[i].id) {
      ++j;
    }
    std::vector<Entry> one(entries.begin() + static_cast<std::ptrdiff_t>(i),
                           entries.begin() + static_cast<std::ptrdiff_t>(j));
    if (one.size() > 16) {
      std::sort(one.begin(), one.end(), [](const Entry& a, const Entry& b) {
        return a.hash < b.hash;
      });
    }
    for (const Entry& e : one) {
      if (std::none_of(distinct.end() - static_cast<std::ptrdiff_t>(std::min(
                                            distinct.size(), one.size())),
                       distinct.end(), [&](const Entry& d) {
                         return d.id == e.id && d.hash == e.hash;
                       })) {
        distinct.push_back(e);
      }
    }
    i = j;
  }
  entries = std::move(distinct);
  ASSERT_EQ(p.entry_count(), entries.size()) << label;
  // Stable by bucket: the order inside each bucket, as the build places
  // them.
  std::stable_sort(entries.begin(), entries.end(),
                   [&](const Entry& a, const Entry& b) {
                     return p.bucket_of(a.hash) < p.bucket_of(b.hash);
                   });
  for (std::size_t pos = 0; pos < entries.size(); ++pos) {
    const auto r = p.bucket_at(p.bucket_of(entries[pos].hash));
    ASSERT_TRUE(pos >= r.begin && pos < r.end) << label << " pos " << pos;
    ASSERT_EQ(p.id_at(pos), entries[pos].id) << label << " pos " << pos;
    ASSERT_EQ(p.tag_at(pos), p.tag_of(entries[pos].hash)) << label;
  }
  for (std::size_t i = 0; i < entries.size(); i += 97) {
    const std::vector<std::uint32_t> ids = find_ids(p, entries[i].hash);
    ASSERT_TRUE(std::find(ids.begin(), ids.end(), entries[i].id) != ids.end())
        << label << " lost entry " << i;
  }
  for (int probe = 0; probe < 1000; ++probe) {
    const std::uint64_t h = rng.next();
    const auto r = p.bucket_at(p.bucket_of(h));
    std::vector<std::uint32_t> expect;
    for (std::size_t pos = r.begin; pos < r.end; ++pos) {
      if (p.tag_at(pos) == p.tag_of(h)) {
        expect.push_back(p.id_at(pos));
      }
    }
    ASSERT_EQ(find_ids(p, h), expect) << label << " hash " << h;
  }
}

TEST(PackedPostings, BuildIsThreadCountInvariant) {
  // The chunked two-pass build must produce the same layout at every
  // thread count.  The shapes stress the chunk seams: 21-bit ids (64 is
  // not a multiple of 21, so neighbouring chunks share packed words), one
  // hot bucket holding every entry, one hot key holding 12k ids, and
  // mostly empty buckets.
  Rng rng(2024);
  constexpr std::size_t kEntries = 60000;
  constexpr std::uint32_t kWideId = 1u << 20;
  constexpr std::uint32_t kIds = kWideId + 200000;
  const auto random_id = [&] {
    return kWideId + static_cast<std::uint32_t>(rng.next() % 200000);
  };
  struct Shape {
    std::string name;
    std::vector<Entry> entries;
  };
  std::vector<Shape> shapes(4);
  shapes[0].name = "uniform 21-bit ids";
  shapes[1].name = "one bucket";
  shapes[2].name = "hot key";
  shapes[3].name = "empty buckets";
  for (std::size_t i = 0; i < kEntries; ++i) {
    shapes[0].entries.push_back({rng.next(), random_id()});
    // Top 24 bits clear: every entry falls in the first bucket.
    shapes[1].entries.push_back({rng.next() >> 24, random_id()});
    const std::uint64_t high = (rng.next() & 1) != 0 ? 0xfull << 60 : 0;
    shapes[3].entries.push_back({(rng.next() >> 4) | high, random_id()});
  }
  constexpr std::uint64_t kHotHash = 0x5eed5eed5eed5eedull;
  for (std::uint32_t i = 0; i < 12000; ++i) {
    shapes[2].entries.push_back({kHotHash, kWideId + 12000 - i});
  }
  for (std::size_t i = 0; i < kEntries; ++i) {
    shapes[2].entries.push_back({rng.next(), random_id()});
  }
  for (Shape& shape : shapes) {
    // Exact duplicates must collapse at every thread count too.
    const std::size_t original = shape.entries.size();
    for (std::size_t i = 0; i < original; i += 17) {
      const Entry copy = shape.entries[i];
      shape.entries.push_back(copy);
    }
    c::PackedPostings serial;
    ASSERT_TRUE(build_from(serial, kIds, shape.entries, 1));
    expect_postings_of(serial, shape.entries, rng, shape.name);
    for (const std::size_t threads :
         {std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{8}}) {
      c::PackedPostings parallel;
      ASSERT_TRUE(build_from(parallel, kIds, shape.entries, threads));
      expect_same_postings(serial, parallel,
                           shape.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(PackedPostings, NarrowTagsOnlyAddIds) {
  // Forced collisions: with fewer tag bits more entries of a bucket share
  // a tag, so a lookup returns more ids, never fewer.  At zero bits it
  // returns the whole bucket.
  Rng rng(7);
  std::vector<Entry> entries;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    entries.push_back({rng.next(), i / 3});
  }
  c::PackedPostings full;
  ASSERT_TRUE(build_from(full, 20000, entries));
  for (const int bits : {0, 1, 4}) {
    c::PackedPostings narrow;
    ASSERT_TRUE(build_from(narrow, 20000, entries, 2, bits));
    ASSERT_EQ(narrow.bucket_count(), full.bucket_count());
    std::size_t extra = 0;
    for (std::size_t i = 0; i < entries.size(); i += 7) {
      const std::vector<std::uint32_t> wide_ids =
          find_ids(full, entries[i].hash);
      const std::vector<std::uint32_t> narrow_ids =
          find_ids(narrow, entries[i].hash);
      ASSERT_TRUE(std::includes(narrow_ids.begin(), narrow_ids.end(),
                                wide_ids.begin(), wide_ids.end()))
          << "tag bits " << bits;
      extra += narrow_ids.size() - wide_ids.size();
      if (bits == 0) {
        const auto r = narrow.bucket_at(narrow.bucket_of(entries[i].hash));
        ASSERT_EQ(narrow_ids.size(), r.end - r.begin);
      }
    }
    EXPECT_GT(extra, 0u) << "tag bits " << bits << " forced no collision";
  }
}

// ---------------------------------------------------------------------------
// Generator selection: names, parsing, FBF_FORCE_GENERATOR.
// ---------------------------------------------------------------------------

TEST(GeneratorSelect, NamesAndParsing) {
  EXPECT_STREQ(c::generator_name(c::GeneratorKind::kDense), "dense");
  EXPECT_STREQ(c::generator_name(c::GeneratorKind::kBlockIndex),
               "block-index");
  EXPECT_EQ(c::generator_from_name("dense"), c::GeneratorKind::kDense);
  EXPECT_EQ(c::generator_from_name("block"), c::GeneratorKind::kBlockIndex);
  EXPECT_EQ(c::generator_from_name("block-index"),
            c::GeneratorKind::kBlockIndex);
  EXPECT_EQ(c::generator_from_name("bogus"), std::nullopt);
  EXPECT_EQ(c::generator_from_name(""), std::nullopt);
}

TEST(GeneratorSelect, EnvOverrideWinsBothWays) {
  {
    ScopedForceGenerator force("block");
    EXPECT_EQ(c::select_generator(c::GeneratorKind::kDense),
              c::GeneratorKind::kBlockIndex);
  }
  {
    ScopedForceGenerator force("dense");
    EXPECT_EQ(c::select_generator(c::GeneratorKind::kBlockIndex),
              c::GeneratorKind::kDense);
  }
  {
    ScopedForceGenerator force(nullptr);
    EXPECT_EQ(c::select_generator(c::GeneratorKind::kDense),
              c::GeneratorKind::kDense);
    EXPECT_EQ(c::select_generator(c::GeneratorKind::kBlockIndex),
              c::GeneratorKind::kBlockIndex);
  }
  {
    // Unknown value: warn (once) and fall back to the request.
    ScopedForceGenerator force("quantum");
    EXPECT_EQ(c::select_generator(c::GeneratorKind::kDense),
              c::GeneratorKind::kDense);
    EXPECT_EQ(c::select_generator(c::GeneratorKind::kBlockIndex),
              c::GeneratorKind::kBlockIndex);
  }
}

// ---------------------------------------------------------------------------
// BlockIndexGenerator: soundness and incremental behavior.
// ---------------------------------------------------------------------------

TEST(BlockIndexGenerator, SupportedRange) {
  EXPECT_TRUE(c::BlockIndexGenerator::supported(0));
  EXPECT_TRUE(c::BlockIndexGenerator::supported(1));
  EXPECT_TRUE(c::BlockIndexGenerator::supported(2));
  EXPECT_FALSE(c::BlockIndexGenerator::supported(3));
  EXPECT_FALSE(c::BlockIndexGenerator::supported(-1));
}

/// Every stored j with OSA(query, t_j) <= k must appear in generate()'s
/// output (zero false negatives); output must be sorted unique.
void expect_sound_superset(const c::BlockIndexGenerator& gen,
                           std::span<const std::string> stored,
                           std::span<const std::string> queries, int k) {
  std::vector<std::uint32_t> ids;
  for (const std::string& q : queries) {
    ids.clear();
    gen.generate(q, ids);
    ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    ASSERT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
    for (std::size_t j = 0; j < stored.size(); ++j) {
      if (pdl_within(q, stored[j], k)) {
        ASSERT_TRUE(std::binary_search(ids.begin(), ids.end(),
                                       static_cast<std::uint32_t>(j)))
            << gen.name() << " missed stored[" << j << "]='" << stored[j]
            << "' for query '" << q << "' at k=" << k;
      }
    }
  }
}

TEST(BlockIndexGenerator, ZeroFalseNegativesAcrossFieldsAndK) {
  for (const dg::FieldKind kind :
       {dg::FieldKind::kLastName, dg::FieldKind::kSsn,
        dg::FieldKind::kAddress}) {
    for (const int k : {1, 2}) {
      const auto dataset = dg::build_paired_dataset(kind, 250, 311).value();
      const c::BlockIndexGenerator gen(k, dataset.error);
      EXPECT_EQ(gen.size(), dataset.error.size());
      expect_sound_superset(gen, dataset.error, dataset.clean, k);
    }
  }
}

TEST(BlockIndexGenerator, EmptyStringsAreCovered) {
  // OSA("", t) = |t|, so "" must surface as a candidate for short queries
  // and short strings must surface for an empty query.  (The linkage
  // bank's missing-field rule post-filters empties; the *generator* may
  // never drop them.)
  const std::vector<std::string> stored = {"", "a", "ab", "abc"};
  const c::BlockIndexGenerator gen(1, stored);
  std::vector<std::uint32_t> ids;
  gen.generate("a", ids);
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), 0u));  // ""
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), 1u));  // "a"
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), 2u));  // "ab"
  ids.clear();
  gen.generate("", ids);
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), 0u));
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), 1u));
}

TEST(BlockIndexGenerator, LongStringsAreUnconditionalCandidates) {
  // Strings past the deletion-enumeration cap can't be keyed; they must
  // surface for every query (sound), and an over-long query must surface
  // every stored id (the dense fallback).
  const std::string longish(100, 'z');
  const std::vector<std::string> stored = {"alpha", longish, "beta"};
  const c::BlockIndexGenerator gen(1, stored);
  EXPECT_EQ(gen.stats().long_strings, 1u);
  std::vector<std::uint32_t> ids;
  gen.generate("alphq", ids);
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), 0u));
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), 1u));
  ids.clear();
  gen.generate(std::string(90, 'q'), ids);
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(BlockIndexGenerator, IncrementalAppendsMatchBulkBuild) {
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 300, 47).value();
  const std::span<const std::string> column(dataset.error);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const c::BlockIndexGenerator bulk(1, column, threads);
    c::BlockIndexGenerator incremental(1);
    // First half in one bulk append, second half one record at a time —
    // the overflow tier takes the singles.
    const std::size_t half = column.size() / 2;
    incremental.append(column.first(half), threads);
    for (std::size_t i = half; i < column.size(); ++i) {
      incremental.append(column.first(i + 1));
    }
    ASSERT_EQ(bulk.size(), incremental.size());
    ASSERT_GT(incremental.stats().overflow_entries, 0u);
    // The overflow tier matches full hashes, the base tags: before the
    // fold both are sound supersets; after it they are the same index.
    expect_sound_superset(incremental, column, dataset.clean, 1);
    incremental.compact(column, threads);
    expect_same_postings(bulk.postings(), incremental.postings(),
                         "threads=" + std::to_string(threads));
    std::vector<std::uint32_t> a;
    std::vector<std::uint32_t> b;
    for (std::size_t i = 0; i < dataset.clean.size(); i += 3) {
      a.clear();
      b.clear();
      bulk.generate(dataset.clean[i], a);
      incremental.generate(dataset.clean[i], b);
      ASSERT_EQ(a, b) << "threads=" << threads << " query i=" << i;
    }
  }
}

TEST(BlockIndexGenerator, BulkAppendOntoBaseAndOverflowEqualsFreshBuild) {
  // A bulk append rebuilds the base from the whole column — the strings
  // of the base and the overflow tier included — and the result must
  // equal a fresh bulk build of every string, position for position, at
  // every thread count.
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 7000, 59).value();
  const std::span<const std::string> all(dataset.error);
  const c::BlockIndexGenerator fresh(1, all, 3);
  ASSERT_GE(fresh.stats().entries, 50000u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{4},
                                    std::size_t{8}}) {
    c::BlockIndexGenerator gen(1);
    gen.append(all.first(3000), threads);
    for (std::size_t i = 3000; i < 3200; ++i) {
      gen.append(all.first(i + 1));
    }
    ASSERT_GT(gen.stats().overflow_entries, 0u);
    gen.append(all, threads);
    EXPECT_EQ(gen.stats().overflow_entries, 0u);
    ASSERT_EQ(gen.size(), fresh.size());
    expect_same_postings(fresh.postings(), gen.postings(),
                         "threads=" + std::to_string(threads));
  }
}

TEST(BlockIndexGenerator, CompactionPreservesGeneration) {
  // Single appends stay in the overflow tier (exact hashes); compaction
  // moves them into the tagged base, which may add tag-collision
  // candidates but never drops one, and leaves the verified matches as
  // they were.
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 200, 53).value();
  const std::span<const std::string> column(dataset.error);
  c::BlockIndexGenerator gen(1);
  for (std::size_t i = 0; i < column.size(); ++i) {
    gen.append(column.first(i + 1));
  }
  std::vector<std::vector<std::uint32_t>> before(dataset.clean.size());
  for (std::size_t i = 0; i < dataset.clean.size(); ++i) {
    gen.generate(dataset.clean[i], before[i]);
  }
  const auto pre = gen.stats();
  ASSERT_GT(pre.overflow_entries, 0u);
  gen.compact(column);
  const auto post = gen.stats();
  EXPECT_EQ(post.overflow_entries, 0u);
  EXPECT_EQ(post.compactions, pre.compactions + 1);
  EXPECT_EQ(post.entries, pre.overflow_entries);
  for (std::size_t i = 0; i < dataset.clean.size(); ++i) {
    std::vector<std::uint32_t> after;
    gen.generate(dataset.clean[i], after);
    ASSERT_TRUE(std::includes(after.begin(), after.end(), before[i].begin(),
                              before[i].end()))
        << "query i=" << i;
    for (const std::uint32_t j : after) {
      if (pdl_within(dataset.clean[i], column[j], 1)) {
        ASSERT_TRUE(std::binary_search(before[i].begin(), before[i].end(), j))
            << "query i=" << i;
      }
    }
  }
  // Idempotent once the overflow is empty.
  gen.compact(column);
  EXPECT_EQ(gen.stats().compactions, post.compactions);
}

TEST(BlockIndexGenerator, AutomaticCompactionTriggersAndStaysSound) {
  // Enough single appends to outgrow the overflow tier and fold into the
  // base at least once mid-stream.
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kAddress, 900, 61).value();
  const std::span<const std::string> column(dataset.error);
  c::BlockIndexGenerator gen(1);
  for (std::size_t i = 0; i < column.size(); ++i) {
    gen.append(column.first(i + 1));
  }
  EXPECT_GT(gen.stats().compactions, 0u);
  std::vector<std::string> queries;
  for (std::size_t i = 0; i < dataset.clean.size(); i += 9) {
    queries.push_back(dataset.clean[i]);
  }
  expect_sound_superset(gen, column, queries, 1);
}

TEST(BlockIndexGenerator, NarrowTagsStaySound) {
  // Forced collisions through the real key families: at 0-4 tag bits
  // most base lookups return foreign ids, and generation must stay a
  // superset of the full-tag index's and of the true matches.
  for (const int k : {1, 2}) {
    const auto dataset =
        dg::build_paired_dataset(dg::FieldKind::kLastName, 400, 83).value();
    const c::BlockIndexGenerator full(k, dataset.error);
    for (const int bits : {0, 4}) {
      const auto narrow =
          c::BlockIndexGenerator::build(k, dataset.error, 2, {}, bits);
      ASSERT_TRUE(narrow.has_value());
      EXPECT_EQ(narrow->postings().tag_bits(), bits);
      expect_sound_superset(*narrow, dataset.error, dataset.clean, k);
      std::size_t extra = 0;
      for (const std::string& q : dataset.clean) {
        std::vector<std::uint32_t> a;
        std::vector<std::uint32_t> b;
        full.generate(q, a);
        narrow->generate(q, b);
        ASSERT_TRUE(std::includes(b.begin(), b.end(), a.begin(), a.end()))
            << "k=" << k << " bits=" << bits << " '" << q << "'";
        extra += b.size() - a.size();
      }
      EXPECT_GT(extra, 0u) << "k=" << k << " bits=" << bits;
    }
  }
}

TEST(BlockIndexGenerator, StoppedBuildReturnsNothing) {
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 300, 89).value();
  std::stop_source source;
  source.request_stop();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    EXPECT_FALSE(c::BlockIndexGenerator::build(1, dataset.error, threads,
                                               source.get_token())
                     .has_value());
  }
  const auto built =
      c::BlockIndexGenerator::build(1, dataset.error, 1, std::stop_token{});
  ASSERT_TRUE(built.has_value());
  expect_same_postings(c::BlockIndexGenerator(1, dataset.error).postings(),
                       built->postings(), "unstopped");
}

TEST(BlockIndexGenerator, BatchedProbeEqualsPerQueryGenerate) {
  // generate_batch must append exactly what per-query generate appends,
  // for every group size around kProbeGroup, on an index with all three
  // tiers populated: CSR base, un-compacted overflow, and long strings.
  // Queries include an empty one and ones too long to enumerate.
  constexpr std::size_t kGroup = c::BlockIndexGenerator::kProbeGroup;
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 160, 71).value();
  std::vector<std::string> stored(dataset.error.begin(),
                                  dataset.error.begin() + 120);
  stored.push_back("");
  stored.push_back(std::string(70, 'Q'));
  stored.push_back(std::string(65, 'Q') + "RS");
  std::vector<std::string> appended(dataset.error.begin() + 120,
                                    dataset.error.end());
  appended.push_back(std::string(80, 'Z'));
  std::vector<std::string> queries(dataset.clean.begin(),
                                   dataset.clean.begin() + 40);
  queries.insert(queries.begin() + 3, "");
  queries.insert(queries.begin() + 11, std::string(70, 'Q'));
  queries.insert(queries.begin() + 20, std::string(66, 'Q') + "R");
  queries.push_back(dataset.clean[130]);  // matches an overflow entry
  queries.push_back(dataset.clean[150]);
  std::vector<std::string> column = stored;
  column.insert(column.end(), appended.begin(), appended.end());
  for (const int k : {0, 1, 2}) {
    c::BlockIndexGenerator gen(k, stored);
    for (std::size_t i = stored.size(); i < column.size(); ++i) {
      gen.append(std::span<const std::string>(column).first(i + 1));
    }
    const c::BlockIndexStats st = gen.stats();
    ASSERT_GT(st.overflow_entries, 0u) << "k=" << k;
    ASSERT_EQ(st.long_strings, 3u) << "k=" << k;

    // Per-query reference; every list starts with a marker so the
    // comparison also checks that generate_batch appends.
    constexpr std::uint32_t kMarker = 0xfffffffu;
    std::vector<std::vector<std::uint32_t>> expected(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      expected[q].push_back(kMarker);
      gen.generate(queries[q], expected[q]);
    }
    const std::vector<std::string_view> views(queries.begin(), queries.end());
    for (std::size_t n = 1; n <= kGroup + 1; ++n) {
      for (std::size_t b = 0; b < views.size(); b += n) {
        const std::size_t len = std::min(n, views.size() - b);
        std::vector<std::vector<std::uint32_t>> outs(len, {kMarker});
        gen.generate_batch(std::span(views).subspan(b, len), outs);
        for (std::size_t q = 0; q < len; ++q) {
          ASSERT_EQ(outs[q], expected[b + q])
              << "k=" << k << " group size " << n << " query " << b + q
              << " '" << queries[b + q] << "'";
        }
      }
    }
    // The whole query list in one call (several internal groups).
    std::vector<std::vector<std::uint32_t>> all(views.size(), {kMarker});
    gen.generate_batch(views, all);
    EXPECT_EQ(all, expected) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// filter_ids: the generate→filter seam.
// ---------------------------------------------------------------------------

/// One query's verified match set via filter_ids → verify over the
/// candidate ids `ids`.
std::vector<std::uint32_t> indexed_matches(
    std::span<const std::uint32_t> ids, const c::CandidatePipeline& pipe,
    std::span<const std::string> stored, const std::string& query,
    c::PipelineCounters& pc) {
  std::vector<std::uint32_t> survivors;
  pipe.filter_ids(pipe.make_query(query), ids, survivors, pc);
  std::vector<std::uint32_t> matches;
  for (const std::uint32_t j : survivors) {
    if (pipe.verify(query, stored[j], pc)) {
      matches.push_back(j);
    }
  }
  return matches;
}

TEST(FilterIds, MatchSetsAreGeneratorIndependent) {
  // The generate→filter contract: every id (the dense candidate set) and
  // the block index's ids produce the same verified match set, which
  // equals the brute-force PDL ground truth.  Ladder counters stay
  // monotone per generator but legitimately differ across generators.
  struct LayoutCase {
    dg::FieldKind kind;
    c::FieldClass cls;
    int alpha_words;
  };
  const LayoutCase layouts[] = {
      {dg::FieldKind::kSsn, c::FieldClass::kNumeric, 2},
      {dg::FieldKind::kLastName, c::FieldClass::kAlpha, 2},
      {dg::FieldKind::kAddress, c::FieldClass::kAlphanumeric, 2},
      // alpha l=3 exercises the per-pair fallback inside filter_ids.
      {dg::FieldKind::kLastName, c::FieldClass::kAlpha, 3},
  };
  for (const auto& layout : layouts) {
    for (const int k : {1, 2}) {
      const auto dataset =
          dg::build_paired_dataset(layout.kind, 180, 131).value();
      c::PipelineConfig cfg;
      cfg.field_class = layout.cls;
      cfg.alpha_words = layout.alpha_words;
      cfg.k = k;
      cfg.use_length = true;
      const c::CandidatePipeline pipe(cfg, dataset.error);

      std::vector<std::uint32_t> all_ids(dataset.error.size());
      std::iota(all_ids.begin(), all_ids.end(), 0u);
      const c::BlockIndexGenerator block(k, dataset.error);

      for (std::size_t i = 0; i < dataset.clean.size(); i += 5) {
        const std::string& q = dataset.clean[i];
        c::PipelineCounters pc_dense;
        c::PipelineCounters pc_block;
        std::vector<std::uint32_t> block_ids;
        block.generate(q, block_ids);
        const auto m_dense =
            indexed_matches(all_ids, pipe, dataset.error, q, pc_dense);
        const auto m_block =
            indexed_matches(block_ids, pipe, dataset.error, q, pc_block);
        ASSERT_EQ(m_dense, m_block)
            << dg::field_kind_name(layout.kind) << " l=" << layout.alpha_words
            << " k=" << k << " i=" << i;
        // Ground truth: brute-force PDL.
        std::vector<std::uint32_t> truth;
        for (std::size_t j = 0; j < dataset.error.size(); ++j) {
          if (pdl_within(q, dataset.error[j], k)) {
            truth.push_back(static_cast<std::uint32_t>(j));
          }
        }
        ASSERT_EQ(m_dense, truth) << "dense vs brute force at i=" << i;
        // Ladder monotonicity within each run.
        EXPECT_GE(pc_dense.candidates_generated, pc_dense.fbf_evaluated);
        EXPECT_GE(pc_dense.fbf_evaluated, pc_dense.fbf_pass);
        EXPECT_GE(pc_block.candidates_generated, pc_block.fbf_evaluated);
        EXPECT_GE(pc_block.fbf_evaluated, pc_block.fbf_pass);
        // The index admits no more than the dense sweep.
        EXPECT_LE(pc_block.candidates_generated, pc_dense.candidates_generated);
      }
    }
  }
}

TEST(FilterIds, EmptyIdListIsANoOp) {
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 64, 5).value();
  c::PipelineConfig cfg;
  cfg.field_class = c::FieldClass::kAlpha;
  cfg.alpha_words = 2;
  const c::CandidatePipeline pipe(cfg, dataset.error);
  std::vector<std::uint32_t> survivors;
  c::PipelineCounters pc;
  const auto q = pipe.make_query(dataset.clean[0]);
  EXPECT_EQ(pipe.filter_ids(q, {}, survivors, pc), 0u);
  EXPECT_TRUE(survivors.empty());
  EXPECT_EQ(pc.candidates_generated, 0u);
  EXPECT_EQ(pc.fbf_evaluated, 0u);
}

// ---------------------------------------------------------------------------
// Consumer equivalence: the join, linkage, the store.
// ---------------------------------------------------------------------------

TEST(GeneratorEquivalence, MatchJoinBlockEqualsDense) {
  // Pin the env: this test asserts the *requested* generator is honored,
  // so it must not inherit a CI leg's FBF_FORCE_GENERATOR override.
  const ScopedForceGenerator clear_env(nullptr);
  // One field per packed layout: alpha, numeric, alphanumeric.
  for (const dg::FieldKind kind :
       {dg::FieldKind::kLastName, dg::FieldKind::kSsn,
        dg::FieldKind::kAddress}) {
    for (const int k : {1, 2}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const auto dataset = dg::build_paired_dataset(kind, 300, 211).value();
        c::JoinConfig cfg;
        cfg.method = c::Method::kFpdl;
        cfg.k = k;
        cfg.field_class = dg::field_class_of(kind);
        cfg.threads = threads;
        cfg.collect_matches = true;

        cfg.generator = c::GeneratorKind::kDense;
        const auto dense =
            c::match_strings(dataset.clean, dataset.error, cfg);
        cfg.generator = c::GeneratorKind::kBlockIndex;
        const auto block =
            c::match_strings(dataset.clean, dataset.error, cfg);

        EXPECT_STREQ(dense.generator, "dense");
        EXPECT_STREQ(block.generator, "block-index");
        EXPECT_EQ(dense.matches, block.matches);
        EXPECT_EQ(dense.diagonal_matches, block.diagonal_matches);
        ASSERT_EQ(dense.match_pairs, block.match_pairs)
            << dg::field_kind_name(kind) << " k=" << k
            << " threads=" << threads;
        // The index must narrow generation, never widen it.
        EXPECT_LE(block.candidates_generated, dense.candidates_generated);
        EXPECT_EQ(dense.candidates_generated, dense.pairs);
      }
    }
  }
}

TEST(GeneratorEquivalence, BlockJoinIsScheduleInvariant) {
  // Workers claim blocks of left rows in whatever order they get to
  // them; counters and the sorted match pairs must not depend on that —
  // across thread counts, with enough rows for many blocks per worker.
  const ScopedForceGenerator clear_env(nullptr);
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 5000, 223).value();
  c::JoinConfig cfg;
  cfg.collect_matches = true;
  cfg.generator = c::GeneratorKind::kBlockIndex;
  cfg.threads = 1;
  const auto serial = c::match_strings(dataset.clean, dataset.error, cfg);
  ASSERT_STREQ(serial.generator, "block-index");
  ASSERT_GT(serial.tiles, 8u);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    cfg.threads = threads;
    const auto run = c::match_strings(dataset.clean, dataset.error, cfg);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(run.candidates_generated, serial.candidates_generated)
        << label;
    EXPECT_EQ(run.length_pass, serial.length_pass) << label;
    EXPECT_EQ(run.fbf_evaluated, serial.fbf_evaluated) << label;
    EXPECT_EQ(run.fbf_pass, serial.fbf_pass) << label;
    EXPECT_EQ(run.verify_calls, serial.verify_calls) << label;
    EXPECT_EQ(run.matches, serial.matches) << label;
    EXPECT_EQ(run.diagonal_matches, serial.diagonal_matches) << label;
    ASSERT_EQ(run.match_pairs, serial.match_pairs) << label;
  }
  cfg.threads = 3;
  cfg.generator = c::GeneratorKind::kDense;
  EXPECT_EQ(c::match_strings(dataset.clean, dataset.error, cfg).match_pairs,
            serial.match_pairs);
}

TEST(GeneratorEquivalence, FilterOnlyMethodStaysDense) {
  // Method::kFbf scores the filter verdict directly (Verifier::kNone), so
  // block generation would change answers; the soundness gate must hold
  // the join on the dense path even when the block index is requested —
  // or forced through the environment.
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 200, 17).value();
  c::JoinConfig cfg;
  cfg.method = c::Method::kFbfOnly;
  cfg.k = 1;
  cfg.field_class = c::FieldClass::kAlpha;
  cfg.collect_matches = true;
  const auto dense = c::match_strings(dataset.clean, dataset.error, cfg);
  cfg.generator = c::GeneratorKind::kBlockIndex;
  const auto requested = c::match_strings(dataset.clean, dataset.error, cfg);
  EXPECT_STREQ(requested.generator, "dense");
  EXPECT_EQ(dense.match_pairs, requested.match_pairs);
  {
    ScopedForceGenerator force("block");
    cfg.generator = c::GeneratorKind::kDense;
    const auto forced = c::match_strings(dataset.clean, dataset.error, cfg);
    EXPECT_STREQ(forced.generator, "dense");
    EXPECT_EQ(dense.match_pairs, forced.match_pairs);
  }
}

TEST(GeneratorEquivalence, UnsupportedKFallsBackToDense) {
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 150, 29).value();
  c::JoinConfig cfg;
  cfg.method = c::Method::kFpdl;
  cfg.k = 3;  // past BlockIndexGenerator::supported
  cfg.field_class = c::FieldClass::kAlpha;
  cfg.collect_matches = true;
  const auto dense = c::match_strings(dataset.clean, dataset.error, cfg);
  cfg.generator = c::GeneratorKind::kBlockIndex;
  const auto block = c::match_strings(dataset.clean, dataset.error, cfg);
  EXPECT_STREQ(block.generator, "dense");
  EXPECT_EQ(dense.match_pairs, block.match_pairs);
}

TEST(GeneratorEquivalence, ForcedBlockMatchesDenseJoin) {
  // The CI forced-generator leg in miniature: FBF_FORCE_GENERATOR=block
  // reroutes a default-config join, and the match set must not move.
  const ScopedForceGenerator clear_env(nullptr);  // dense baseline first
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kLastName, 250, 83).value();
  c::JoinConfig cfg;
  cfg.method = c::Method::kFpdl;
  cfg.k = 1;
  cfg.field_class = c::FieldClass::kAlpha;
  cfg.collect_matches = true;
  const auto dense = c::match_strings(dataset.clean, dataset.error, cfg);
  ScopedForceGenerator force("block");
  const auto forced = c::match_strings(dataset.clean, dataset.error, cfg);
  EXPECT_STREQ(forced.generator, "block-index");
  EXPECT_EQ(dense.matches, forced.matches);
  ASSERT_EQ(dense.match_pairs, forced.match_pairs);
}

TEST(GeneratorEquivalence, LinkageBlockEqualsDense) {
  // Pin the env so the dense and block runs actually take different
  // generation paths even under a forced CI leg.
  const ScopedForceGenerator clear_env(nullptr);
  Rng rng(907);
  const auto right = lk::generate_people(200, rng);
  const auto left = lk::make_error_records(right, {}, rng);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    lk::LinkConfig cfg;
    cfg.comparator = lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
    cfg.collect_matches = true;
    cfg.exec.threads = threads;
    cfg.exec.generator = fbf::core::GeneratorKind::kDense;
    const auto dense = lk::link_exhaustive(left, right, cfg);
    cfg.exec.generator = fbf::core::GeneratorKind::kBlockIndex;
    const auto block = lk::link_exhaustive(left, right, cfg);
    EXPECT_EQ(dense.matches, block.matches);
    EXPECT_EQ(dense.true_positives, block.true_positives);
    EXPECT_EQ(dense.false_positives, block.false_positives);
    ASSERT_EQ(dense.match_pairs, block.match_pairs)
        << "threads=" << threads;
    // Generation narrowed; verification decisions unchanged.
    EXPECT_LE(block.counters.candidates_generated,
              dense.counters.candidates_generated);
  }
}

TEST(GeneratorEquivalence, PrebuiltContextInheritsGenerator) {
  const ScopedForceGenerator clear_env(nullptr);
  Rng rng(911);
  const auto right = lk::generate_people(150, rng);
  const auto left = lk::make_error_records(right, {}, rng);
  lk::LinkConfig cfg;
  cfg.comparator = lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  cfg.collect_matches = true;
  const auto dense = lk::link_exhaustive(left, right, cfg);

  lk::LinkConfig block_cfg = cfg;
  block_cfg.exec.generator = fbf::core::GeneratorKind::kBlockIndex;
  const lk::LinkageContext ctx(right, block_cfg.comparator, block_cfg.exec);
  const auto block = lk::link_exhaustive(left, ctx, block_cfg);
  EXPECT_EQ(dense.matches, block.matches);
  ASSERT_EQ(dense.match_pairs, block.match_pairs);
}

TEST(GeneratorEquivalence, EntityStoreBlockEqualsDense) {
  const ScopedForceGenerator clear_env(nullptr);
  Rng rng(419);
  const auto clean = lk::generate_people(120, rng);
  const auto errors = lk::make_error_records(clean, {}, rng);

  lk::EntityStoreOptions dense_opts;
  lk::EntityStoreOptions block_opts;
  block_opts.exec.generator = fbf::core::GeneratorKind::kBlockIndex;

  const auto comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  lk::EntityStore dense(comparator, dense_opts);
  lk::EntityStore block(comparator, block_opts);
  // Two batches so the second probes overflow-tier entries appended by
  // the first (the incremental-index path).
  const std::size_t half = clean.size() / 2;
  const std::span<const lk::PersonRecord> all(clean);
  dense.ingest(all.subspan(0, half));
  block.ingest(all.subspan(0, half));
  dense.ingest(errors);
  block.ingest(errors);
  dense.ingest(all.subspan(half));
  block.ingest(all.subspan(half));

  ASSERT_EQ(dense.size(), block.size());
  EXPECT_EQ(dense.entity_count(), block.entity_count());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(dense.entity_of(i), block.entity_of(i)) << "record " << i;
  }
}

}  // namespace
