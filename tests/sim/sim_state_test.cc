// Unit coverage for the dense per-query state backend: the FlatMap64
// open-addressing table in isolation, and SimState's dense vs
// map-reference backends held to identical observable semantics op by
// op (the whole-simulator version of this contract lives in
// engine_equivalence_test.cc).

#include "sppnet/sim/sim_state.h"

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"
#include "sppnet/io/checkpoint.h"

namespace sppnet {
namespace {

TEST(FlatMap64Test, FindOnEmptyReturnsNull) {
  FlatMap64<std::uint32_t> m;
  EXPECT_EQ(m.Find(0), nullptr);
  EXPECT_EQ(m.Find(~std::uint64_t{0}), nullptr);
  EXPECT_EQ(m.size(), 0u);
}

TEST(FlatMap64Test, InsertFindRoundTrip) {
  FlatMap64<std::uint32_t> m;
  const auto [slot, inserted] = m.FindOrInsert(42);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(*slot, 0u);  // Fresh slots are value-initialized.
  *slot = 7;
  const auto [again, inserted_again] = m.FindOrInsert(42);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 7u);
  ASSERT_NE(m.Find(42), nullptr);
  EXPECT_EQ(*m.Find(42), 7u);
  EXPECT_EQ(m.Find(43), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap64Test, GrowthPreservesEntries) {
  FlatMap64<std::uint64_t> m;
  constexpr std::uint64_t kNumKeys = 10000;
  for (std::uint64_t i = 0; i < kNumKeys; ++i) {
    // Sequential qid-like keys — the production access pattern the
    // splitmix64 scramble exists for.
    *m.FindOrInsert(i).first = i * 3 + 1;
  }
  EXPECT_EQ(m.size(), kNumKeys);
  EXPECT_GE(m.Capacity(), kNumKeys);
  EXPECT_GT(m.ApproxMemoryBytes(), 0u);
  for (std::uint64_t i = 0; i < kNumKeys; ++i) {
    ASSERT_NE(m.Find(i), nullptr) << i;
    ASSERT_EQ(*m.Find(i), i * 3 + 1) << i;
  }
  EXPECT_EQ(m.Find(kNumKeys), nullptr);
}

TEST(FlatMap64Test, ClearIsGenerationBumpNotStorageWipe) {
  FlatMap64<std::uint32_t> m;
  for (std::uint64_t i = 0; i < 100; ++i) *m.FindOrInsert(i).first = 1;
  const std::size_t capacity = m.Capacity();
  m.Clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.Capacity(), capacity);  // O(1): storage untouched.
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(m.Find(i), nullptr) << i;
  }
  // Reinsertion after Clear starts from value-initialized slots again.
  const auto [slot, inserted] = m.FindOrInsert(5);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*slot, 0u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap64Test, AdversarialKeysCollideWithoutLoss) {
  // Keys differing only in high bits, plus wide-spread randoms: linear
  // probing must keep every entry reachable.
  FlatMap64<std::uint64_t> m;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 64; ++i) {
    keys.push_back(i << 56);
    keys.push_back((i << 32) | 0xabcdef);
  }
  Rng rng(31337);
  for (int i = 0; i < 500; ++i) keys.push_back(rng.NextUint64());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    *m.FindOrInsert(keys[i]).first = i;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(m.Find(keys[i]), nullptr) << i;
    // Duplicated random keys keep the last write; re-derive expected.
    std::size_t expected = i;
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      if (keys[j] == keys[i]) expected = j;
    }
    ASSERT_EQ(*m.Find(keys[i]), expected) << i;
  }
}

// --- SimState backend parity --------------------------------------------
//
// Drive both backends through the same operation sequence and assert
// every observable return value matches. The simulator relies on this
// parity for the bitwise engine-equivalence goldens; these tests localize
// a violation to the specific operation instead of a whole-run digest.

struct BackendPair {
  SimState dense{SimStateBackend::kDense, 8};
  SimState map{SimStateBackend::kMapReference, 8};
};

TEST(SimStateParityTest, MarkSeenAndUpstream) {
  BackendPair s;
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t cluster = rng.NextBounded(8);
    const std::uint64_t qid = rng.NextBounded(300);
    const auto upstream = static_cast<std::uint32_t>(rng.NextBounded(50));
    ASSERT_EQ(s.dense.MarkSeen(cluster, qid, upstream),
              s.map.MarkSeen(cluster, qid, upstream));
    const std::uint32_t* du = s.dense.Upstream(cluster, qid);
    const std::uint32_t* mu = s.map.Upstream(cluster, qid);
    ASSERT_NE(du, nullptr);
    ASSERT_NE(mu, nullptr);
    ASSERT_EQ(*du, *mu);  // First writer wins in both backends.
  }
  EXPECT_EQ(s.dense.duplicate_entries(), s.map.duplicate_entries());
  EXPECT_EQ(s.dense.Upstream(0, 999999), nullptr);
  EXPECT_EQ(s.map.Upstream(0, 999999), nullptr);
}

TEST(SimStateParityTest, ClaimFindAndRootMapping) {
  BackendPair s;
  for (std::uint64_t qid = 0; qid < 200; qid += 2) {
    QueryState& d = s.dense.Claim(qid);
    QueryState& m = s.map.Claim(qid);
    d.user = m.user = static_cast<std::uint32_t>(qid);
    d.submit_time = m.submit_time = 0.5 * static_cast<double>(qid);
  }
  for (std::uint64_t qid = 0; qid < 220; ++qid) {
    QueryState* d = s.dense.Find(qid);
    QueryState* m = s.map.Find(qid);
    ASSERT_EQ(d == nullptr, m == nullptr) << qid;
    if (d != nullptr) {
      ASSERT_EQ(d->user, m->user);
      ASSERT_EQ(d->submit_time, m->submit_time);
    }
  }
  // Root mapping: unmapped qids resolve to themselves; the first
  // SetRoot binding wins (emplace semantics) in both backends.
  EXPECT_EQ(s.dense.RootOf(17), 17u);
  EXPECT_EQ(s.map.RootOf(17), 17u);
  s.dense.SetRoot(100, 4);
  s.map.SetRoot(100, 4);
  s.dense.SetRoot(100, 9);  // Must not overwrite.
  s.map.SetRoot(100, 9);
  EXPECT_EQ(s.dense.RootOf(100), 4u);
  EXPECT_EQ(s.map.RootOf(100), 4u);
}

// Drives both backends through one seeded mix of duplicate-table
// visits, root claims and retry-root bindings over qids [0, num_qids).
void PopulateBoth(BackendPair& s, std::uint64_t num_qids, std::uint64_t seed) {
  Rng rng(seed);
  for (std::uint64_t qid = 0; qid < num_qids; ++qid) {
    if (qid % 3 != 2) {
      QueryState& d = s.dense.Claim(qid);
      QueryState& m = s.map.Claim(qid);
      d.user = m.user = static_cast<std::uint32_t>(rng.NextBounded(1000));
      d.ring_ttl = m.ring_ttl = static_cast<std::uint32_t>(qid % 5);
      d.submit_time = m.submit_time = 0.25 * static_cast<double>(qid);
    } else {
      s.dense.SetRoot(qid, qid - 2);
      s.map.SetRoot(qid, qid - 2);
    }
    for (int visit = 0; visit < 4; ++visit) {
      const std::size_t cluster = rng.NextBounded(8);
      const auto upstream = static_cast<std::uint32_t>(rng.NextBounded(50));
      s.dense.MarkSeen(cluster, qid, upstream);
      s.map.MarkSeen(cluster, qid, upstream);
    }
  }
}

// Every observable read of `a` and `b` agrees over qids [0, num_qids)
// and the clusters both address.
void ExpectSameObservableState(SimState& a, SimState& b,
                               std::uint64_t num_qids,
                               std::size_t num_clusters) {
  EXPECT_EQ(a.retire_floor(), b.retire_floor());
  EXPECT_EQ(a.duplicate_entries(), b.duplicate_entries());
  for (std::uint64_t qid = 0; qid < num_qids; ++qid) {
    for (std::size_t c = 0; c < num_clusters; ++c) {
      const std::uint32_t* au = a.Upstream(c, qid);
      const std::uint32_t* bu = b.Upstream(c, qid);
      ASSERT_EQ(au == nullptr, bu == nullptr) << qid << "@" << c;
      if (au != nullptr) {
        ASSERT_EQ(*au, *bu) << qid << "@" << c;
      }
    }
    const QueryState* as = a.Find(qid);
    const QueryState* bs = b.Find(qid);
    ASSERT_EQ(as == nullptr, bs == nullptr) << qid;
    if (as != nullptr) {
      ASSERT_EQ(as->user, bs->user) << qid;
      ASSERT_EQ(as->ring_ttl, bs->ring_ttl) << qid;
      ASSERT_EQ(as->submit_time, bs->submit_time) << qid;
    }
    ASSERT_EQ(a.RootOf(qid), b.RootOf(qid)) << qid;
  }
}

std::vector<std::uint8_t> SavedBytes(const SimState& s) {
  CheckpointWriter w(0x74736554u, 1);
  s.SaveTo(w);
  return w.Finish();
}

TEST(SimStateParityTest, RetireBelowDropsOnlyRetiredQids) {
  BackendPair s;
  PopulateBoth(s, 120, 41);
  s.dense.RetireBelow(40);
  s.map.RetireBelow(40);
  EXPECT_EQ(s.dense.retire_floor(), 40u);
  ExpectSameObservableState(s.dense, s.map, 120, 8);
  for (std::uint64_t qid = 0; qid < 40; ++qid) {
    for (std::size_t c = 0; c < 8; ++c) {
      ASSERT_EQ(s.dense.Upstream(c, qid), nullptr) << qid;
    }
    ASSERT_EQ(s.dense.Find(qid), nullptr) << qid;
    ASSERT_EQ(s.dense.RootOf(qid), qid) << qid;  // Mapping gone: identity.
  }
  // Everything at or above the floor survives: claimed roots stay
  // claimed, retry bindings still resolve.
  for (std::uint64_t qid = 40; qid < 120; ++qid) {
    if (qid % 3 != 2) {
      ASSERT_NE(s.dense.Find(qid), nullptr) << qid;
    } else {
      ASSERT_EQ(s.dense.RootOf(qid), qid - 2) << qid;
    }
  }
  // The historical insert tally is not rewound by retirement.
  BackendPair fresh;
  PopulateBoth(fresh, 120, 41);
  EXPECT_EQ(s.dense.duplicate_entries(), fresh.dense.duplicate_entries());
}

TEST(SimStateParityTest, RetireBelowIsMonotone) {
  BackendPair s;
  PopulateBoth(s, 100, 42);
  s.dense.RetireBelow(50);
  s.map.RetireBelow(50);
  const std::vector<std::uint8_t> at_fifty = SavedBytes(s.dense);
  // A lower or equal floor is a no-op in both backends.
  for (const std::uint64_t floor : {std::uint64_t{20}, std::uint64_t{50}}) {
    s.dense.RetireBelow(floor);
    s.map.RetireBelow(floor);
    EXPECT_EQ(s.dense.retire_floor(), 50u);
    EXPECT_EQ(s.map.retire_floor(), 50u);
    EXPECT_EQ(SavedBytes(s.dense), at_fifty);
    EXPECT_EQ(SavedBytes(s.map), at_fifty);
  }
  // Fresh qids past the floor are still addressable after the no-ops.
  EXPECT_TRUE(s.dense.MarkSeen(3, 100, 7));
  EXPECT_TRUE(s.map.MarkSeen(3, 100, 7));
  ExpectSameObservableState(s.dense, s.map, 101, 8);
}

TEST(SimStateParityTest, EnsureClustersKeepsExistingEntries) {
  SimState dense(SimStateBackend::kDense, 4);
  SimState map(SimStateBackend::kMapReference, 4);
  for (std::uint64_t qid = 0; qid < 30; ++qid) {
    const std::size_t cluster = qid % 4;
    const auto upstream = static_cast<std::uint32_t>(qid + 1);
    dense.MarkSeen(cluster, qid, upstream);
    map.MarkSeen(cluster, qid, upstream);
  }
  // Growth (an in-sim split promoting new super-peers), then a smaller
  // request, which must be a no-op.
  dense.EnsureClusters(16);
  map.EnsureClusters(16);
  dense.EnsureClusters(2);
  map.EnsureClusters(2);
  for (std::uint64_t qid = 0; qid < 30; ++qid) {
    ASSERT_NE(dense.Upstream(qid % 4, qid), nullptr) << qid;
    ASSERT_EQ(*dense.Upstream(qid % 4, qid), qid + 1) << qid;
  }
  for (std::uint64_t qid = 0; qid < 30; ++qid) {
    const std::size_t cluster = 4 + qid % 12;
    ASSERT_EQ(dense.MarkSeen(cluster, qid, 99), map.MarkSeen(cluster, qid, 99));
  }
  ExpectSameObservableState(dense, map, 30, 16);
}

TEST(SimStateParityTest, SaveBytesAreBackendPortable) {
  BackendPair s;
  PopulateBoth(s, 200, 43);
  EXPECT_EQ(SavedBytes(s.dense), SavedBytes(s.map));
  s.dense.RetireBelow(75);
  s.map.RetireBelow(75);
  EXPECT_EQ(SavedBytes(s.dense), SavedBytes(s.map));
}

TEST(SimStateParityTest, LoadRestoresUnderEitherBackend) {
  BackendPair s;
  PopulateBoth(s, 150, 44);
  s.dense.RetireBelow(30);
  s.map.RetireBelow(30);
  const std::vector<std::uint8_t> bytes = SavedBytes(s.dense);
  for (const SimStateBackend backend :
       {SimStateBackend::kDense, SimStateBackend::kMapReference}) {
    SCOPED_TRACE(backend == SimStateBackend::kDense ? "dense" : "map");
    std::optional<CheckpointReader> r =
        CheckpointReader::Open(bytes, 0x74736554u, 1);
    ASSERT_TRUE(r.has_value());
    // Constructed with fewer clusters than saved: the load grows them.
    SimState restored(backend, 2);
    ASSERT_TRUE(restored.LoadFrom(*r));
    EXPECT_TRUE(r->AtEnd());
    ExpectSameObservableState(restored, s.map, 150, 8);
    EXPECT_EQ(SavedBytes(restored), bytes);
  }
}

TEST(SimStateTest, LoadRejectsMalformedPayloads) {
  const auto load = [](const std::vector<std::uint8_t>& bytes) {
    std::optional<CheckpointReader> r =
        CheckpointReader::Open(bytes, 0x74736554u, 1);
    EXPECT_TRUE(r.has_value());
    SimState state(SimStateBackend::kDense, 4);
    return state.LoadFrom(*r);
  };
  {
    // A section that is not the state section.
    CheckpointWriter w(0x74736554u, 1);
    w.BeginSection(0x61616161u);
    w.PutU64(0);
    EXPECT_FALSE(load(w.Finish()));
  }
  {
    // The state tag and header, then a duplicate-table count promising
    // more entries than the payload holds.
    CheckpointWriter w(0x74736554u, 1);
    w.BeginSection(0x74617473u);  // "stat"
    w.PutU64(0);                  // Retirement floor.
    w.PutU64(3);                  // Duplicate tally.
    w.PutU64(4);                  // Clusters.
    w.PutU64(1000);               // Duplicate-table entries...
    w.PutU64(1);                  // ...of which only one qid follows.
    EXPECT_FALSE(load(w.Finish()));
  }
}

TEST(SimStateTest, EmptyDenseStateCostsNothingPerCluster) {
  // The dense backend keys its tables by qid and keeps no per-cluster
  // container, so an idle state costs zero bytes however many clusters
  // it addresses; the reference maps hold one table per cluster.
  SimState small(SimStateBackend::kDense, 8);
  SimState large(SimStateBackend::kDense, 100000);
  EXPECT_EQ(small.ApproxScratchBytes(), 0u);
  EXPECT_EQ(large.ApproxScratchBytes(), 0u);
  large.EnsureClusters(200000);
  EXPECT_EQ(large.ApproxScratchBytes(), 0u);
  SimState map_small(SimStateBackend::kMapReference, 8);
  SimState map_large(SimStateBackend::kMapReference, 100000);
  EXPECT_GT(map_large.ApproxScratchBytes(), map_small.ApproxScratchBytes());
}

TEST(SimStateTest, ScratchBytesTrackPopulation) {
  BackendPair s;
  Rng rng(21);
  for (std::uint64_t qid = 0; qid < 5000; ++qid) {
    s.dense.Claim(qid);
    s.map.Claim(qid);
    s.dense.SetRoot(qid, qid);
    s.map.SetRoot(qid, qid);
    for (int c = 0; c < 3; ++c) {
      const std::size_t cluster = rng.NextBounded(8);
      const auto up = static_cast<std::uint32_t>(rng.NextBounded(40));
      s.dense.MarkSeen(cluster, qid, up);
      s.map.MarkSeen(cluster, qid, up);
    }
  }
  // Absolute bytes are layout-dependent; what must hold is that both
  // estimates are positive and grew with the population. (Whether dense
  // beats the maps is workload-dependent — the per-node figures for the
  // real simulator workload are measured in bench/sim_scale.)
  EXPECT_GT(s.dense.ApproxScratchBytes(), 100u * 1024u);
  EXPECT_GT(s.map.ApproxScratchBytes(), 100u * 1024u);
}

TEST(SimStateDeathTest, DenseClaimRejectsReclaim) {
  // Root qids are claimed exactly once per submission; a double claim is
  // a qid-allocation bug the dense backend traps.
  SimState dense(SimStateBackend::kDense, 2);
  dense.Claim(5);
  EXPECT_DEATH(dense.Claim(5), "state_live_");
}

TEST(SimStateDeathTest, WritesBelowTheRetirementFloorAbort) {
  // A write for a retired qid means the retention horizon was violated;
  // both backends trap it rather than silently re-inserting.
  for (const SimStateBackend backend :
       {SimStateBackend::kDense, SimStateBackend::kMapReference}) {
    SimState state(backend, 4);
    state.MarkSeen(0, 12, 1);
    state.RetireBelow(10);
    EXPECT_DEATH(state.MarkSeen(1, 5, 2), "qid >= qid_base_");
    EXPECT_DEATH(state.Claim(5), "qid >= qid_base_");
    EXPECT_DEATH(state.SetRoot(5, 1), "qid >= qid_base_");
  }
}

}  // namespace
}  // namespace sppnet
