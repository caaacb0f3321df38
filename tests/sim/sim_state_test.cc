// Unit coverage for the per-query state: the FlatMap64 open-addressing
// table in isolation, and SimState held op by op to explicit expected
// values and to a checkpoint-restored copy of itself (the
// whole-simulator version of these contracts is the golden digests in
// engine_equivalence_test.cc).

#include "sppnet/sim/sim_state.h"

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
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

// --- SimState: explicit expectations and restore parity -----------------
//
// Each test drives one state through an operation sequence and checks
// its reads against explicit expected values, then holds a
// checkpoint-restored copy of the state to the same reads and the same
// saved bytes — parity between a live state and its restore. These
// localize a violation to one operation instead of a whole-run digest.

// Drives `s` through one seeded mix of duplicate-table visits, root
// claims and retry-root bindings over qids [0, num_qids): qid % 3 == 2
// binds to qid - 2, every other qid is a claimed root.
void Populate(SimState& s, std::uint64_t num_qids, std::uint64_t seed) {
  Rng rng(seed);
  for (std::uint64_t qid = 0; qid < num_qids; ++qid) {
    if (qid % 3 != 2) {
      QueryState& state = s.Claim(qid);
      state.user = static_cast<std::uint32_t>(rng.NextBounded(1000));
      state.ring_ttl = static_cast<std::uint32_t>(qid % 5);
      state.submit_time = 0.25 * static_cast<double>(qid);
    } else {
      s.SetRoot(qid, qid - 2);
    }
    for (int visit = 0; visit < 4; ++visit) {
      const std::size_t cluster = rng.NextBounded(8);
      const auto upstream = static_cast<std::uint32_t>(rng.NextBounded(50));
      s.MarkSeen(cluster, qid, upstream);
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

// Saves `s` and restores the bytes into a fresh state constructed with
// fewer clusters (the load grows them): the copy must read exactly like
// `s` over qids [0, num_qids) and re-save the same bytes.
void ExpectRestoredCopyMatches(SimState& s, std::uint64_t num_qids,
                               std::size_t num_clusters) {
  const std::vector<std::uint8_t> bytes = SavedBytes(s);
  std::optional<CheckpointReader> r =
      CheckpointReader::Open(bytes, 0x74736554u, 1);
  ASSERT_TRUE(r.has_value());
  SimState restored(2);
  ASSERT_TRUE(restored.LoadFrom(*r));
  EXPECT_TRUE(r->AtEnd());
  ExpectSameObservableState(restored, s, num_qids, num_clusters);
  EXPECT_EQ(SavedBytes(restored), bytes);
}

TEST(SimStateParityTest, MarkSeenAndUpstream) {
  SimState s(8);
  // Expected contents: the first writer of each (cluster, qid) wins.
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint32_t> expected;
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t cluster = rng.NextBounded(8);
    const std::uint64_t qid = rng.NextBounded(300);
    const auto upstream = static_cast<std::uint32_t>(rng.NextBounded(50));
    const bool fresh =
        expected.emplace(std::pair{cluster, qid}, upstream).second;
    ASSERT_EQ(s.MarkSeen(cluster, qid, upstream), fresh);
    const std::uint32_t* got = s.Upstream(cluster, qid);
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(*got, expected.at({cluster, qid}));
  }
  EXPECT_EQ(s.duplicate_entries(), expected.size());
  for (std::uint64_t qid = 0; qid < 300; ++qid) {
    for (std::size_t c = 0; c < 8; ++c) {
      ASSERT_EQ(s.Upstream(c, qid) != nullptr, expected.count({c, qid}) == 1)
          << qid << "@" << c;
    }
  }
  EXPECT_EQ(s.Upstream(0, 999999), nullptr);
  ExpectRestoredCopyMatches(s, 300, 8);
}

TEST(SimStateParityTest, ClaimFindAndRootMapping) {
  SimState s(8);
  for (std::uint64_t qid = 0; qid < 200; qid += 2) {
    QueryState& state = s.Claim(qid);
    state.user = static_cast<std::uint32_t>(qid);
    state.submit_time = 0.5 * static_cast<double>(qid);
  }
  for (std::uint64_t qid = 0; qid < 220; ++qid) {
    const QueryState* state = s.Find(qid);
    ASSERT_EQ(state != nullptr, qid % 2 == 0 && qid < 200) << qid;
    if (state != nullptr) {
      ASSERT_EQ(state->user, qid);
      ASSERT_EQ(state->submit_time, 0.5 * static_cast<double>(qid));
    }
  }
  // Root mapping: unmapped qids resolve to themselves; the first
  // SetRoot binding wins.
  EXPECT_EQ(s.RootOf(17), 17u);
  s.SetRoot(100, 4);
  s.SetRoot(100, 9);  // Must not overwrite.
  EXPECT_EQ(s.RootOf(100), 4u);
  ExpectRestoredCopyMatches(s, 220, 8);
}

TEST(SimStateParityTest, RetireBelowDropsOnlyRetiredQids) {
  SimState s(8);
  Populate(s, 120, 41);
  ExpectRestoredCopyMatches(s, 120, 8);
  s.RetireBelow(40);
  EXPECT_EQ(s.retire_floor(), 40u);
  for (std::uint64_t qid = 0; qid < 40; ++qid) {
    for (std::size_t c = 0; c < 8; ++c) {
      ASSERT_EQ(s.Upstream(c, qid), nullptr) << qid;
    }
    ASSERT_EQ(s.Find(qid), nullptr) << qid;
    ASSERT_EQ(s.RootOf(qid), qid) << qid;  // Mapping gone: identity.
  }
  // Everything at or above the floor survives: claimed roots stay
  // claimed, retry bindings still resolve.
  for (std::uint64_t qid = 40; qid < 120; ++qid) {
    if (qid % 3 != 2) {
      ASSERT_NE(s.Find(qid), nullptr) << qid;
      ASSERT_EQ(s.Find(qid)->submit_time, 0.25 * static_cast<double>(qid));
    } else {
      ASSERT_EQ(s.RootOf(qid), qid - 2) << qid;
    }
  }
  // The historical insert tally is not rewound by retirement.
  SimState fresh(8);
  Populate(fresh, 120, 41);
  EXPECT_EQ(s.duplicate_entries(), fresh.duplicate_entries());
}

TEST(SimStateParityTest, RetireBelowIsMonotone) {
  SimState s(8);
  Populate(s, 100, 42);
  s.RetireBelow(50);
  const std::vector<std::uint8_t> at_fifty = SavedBytes(s);
  // A lower or equal floor is a no-op.
  for (const std::uint64_t floor : {std::uint64_t{20}, std::uint64_t{50}}) {
    s.RetireBelow(floor);
    EXPECT_EQ(s.retire_floor(), 50u);
    EXPECT_EQ(SavedBytes(s), at_fifty);
  }
  // A higher floor still advances; 51 also drops qid 50, the last
  // binding to a root below the floor, so the state restores.
  s.RetireBelow(51);
  EXPECT_EQ(s.retire_floor(), 51u);
  EXPECT_EQ(s.RootOf(50), 50u);
  EXPECT_EQ(s.RootOf(53), 51u);
  // Fresh qids past the floor are still addressable after the no-ops.
  EXPECT_TRUE(s.MarkSeen(3, 100, 7));
  ASSERT_NE(s.Upstream(3, 100), nullptr);
  EXPECT_EQ(*s.Upstream(3, 100), 7u);
  ExpectRestoredCopyMatches(s, 101, 8);
}

TEST(SimStateParityTest, EnsureClustersKeepsExistingEntries) {
  SimState s(4);
  for (std::uint64_t qid = 0; qid < 30; ++qid) {
    s.MarkSeen(qid % 4, qid, static_cast<std::uint32_t>(qid + 1));
  }
  // Growth (an in-sim split promoting new super-peers), then a smaller
  // request, which must be a no-op.
  s.EnsureClusters(16);
  s.EnsureClusters(2);
  for (std::uint64_t qid = 0; qid < 30; ++qid) {
    ASSERT_NE(s.Upstream(qid % 4, qid), nullptr) << qid;
    ASSERT_EQ(*s.Upstream(qid % 4, qid), qid + 1) << qid;
  }
  // The grown cluster ids are addressable and start empty.
  for (std::uint64_t qid = 0; qid < 30; ++qid) {
    ASSERT_TRUE(s.MarkSeen(4 + qid % 12, qid, 99)) << qid;
  }
  EXPECT_EQ(s.duplicate_entries(), 60u);
  // The restored copy keeps all 16 cluster ids addressable.
  ExpectRestoredCopyMatches(s, 30, 16);
}

TEST(SimStateParityTest, ExactRetirementReleasesAtZeroCount) {
  // One root with two in-flight events and a retry qid bound to it; the
  // retry holds the root until it retires itself. Each qid's duplicate
  // entries, state and binding drop exactly when its count reaches zero.
  SimState s(8);
  const std::uint64_t root = s.Mint();
  const std::uint64_t retry = s.Mint();
  ASSERT_EQ(root, 0u);
  ASSERT_EQ(retry, 1u);
  s.Claim(root).submit_time = 1.0;
  s.SetRoot(root, root);
  s.AddRef(root);
  s.AddRef(root);
  s.MarkSeen(2, root, 7);
  s.SetRoot(retry, root);
  s.AddRef(retry);
  s.MarkSeen(3, retry, 8);
  EXPECT_EQ(s.live_roots(), 1u);
  s.RetireIfIdle(root, 1.5);  // Still counted: a no-op.
  s.Release(root, 2.0);
  s.Release(root, 2.5);
  // The bound retry still holds the root.
  ASSERT_NE(s.Find(root), nullptr);
  ASSERT_NE(s.Upstream(2, root), nullptr);
  EXPECT_EQ(s.RootOf(retry), root);
  EXPECT_EQ(s.InFlightCounts(),
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {root, 1}, {retry, 1}}));
  ExpectRestoredCopyMatches(s, 2, 8);
  s.Release(retry, 4.0);
  EXPECT_EQ(s.Find(root), nullptr);
  EXPECT_EQ(s.Upstream(2, root), nullptr);
  EXPECT_EQ(s.Upstream(3, retry), nullptr);
  EXPECT_EQ(s.RootOf(retry), retry);
  EXPECT_EQ(s.live_roots(), 0u);
  EXPECT_TRUE(s.InFlightCounts().empty());
  EXPECT_EQ(s.longest_lifetime_seconds(), 3.0);
  EXPECT_EQ(s.retire_floor(), 2u);
  EXPECT_EQ(s.duplicate_entries(), 2u);  // Historical: not rewound.
}

TEST(SimStateParityTest, OutOfOrderRetirementKeepsTheWindowBounded) {
  // Queries end out of submission order. Every retired qid is released
  // at once, and the floor advances over the retired prefix, so a long
  // stream of short-lived queries behind one long-lived root keeps only
  // the window from that root on.
  SimState s(8);
  constexpr std::uint64_t kQueries = 5000;
  const std::uint64_t anchor = s.Mint();
  s.Claim(anchor);
  s.AddRef(anchor);
  for (std::uint64_t i = 1; i < kQueries; ++i) {
    const std::uint64_t qid = s.Mint();
    s.Claim(qid).submit_time = static_cast<double>(i);
    s.AddRef(qid);
    s.MarkSeen(i % 8, qid, 1);
    s.Release(qid, static_cast<double>(i) + 0.25);
  }
  EXPECT_EQ(s.live_roots(), 1u);
  EXPECT_EQ(s.retire_floor(), 0u);  // Held by the anchor.
  EXPECT_EQ(s.Find(kQueries / 2), nullptr);
  EXPECT_EQ(s.Upstream((kQueries / 2) % 8, kQueries / 2), nullptr);
  EXPECT_EQ(s.longest_lifetime_seconds(), 0.25);
  ExpectRestoredCopyMatches(s, kQueries, 8);
  s.Release(anchor, static_cast<double>(kQueries));
  EXPECT_EQ(s.retire_floor(), kQueries);
  EXPECT_EQ(s.live_roots(), 0u);
  EXPECT_EQ(s.longest_lifetime_seconds(), static_cast<double>(kQueries));
  // The slot arrays compacted: nothing of the retired window is still
  // resident beyond the array capacity itself.
  EXPECT_LT(s.ApproxScratchBytes(), 2u * 1024u * 1024u);
}

TEST(SimStateTest, LoadRejectsMalformedPayloads) {
  constexpr std::uint32_t kMagic = 0x74736554u;
  // A "stat" section header: retirement floor, next qid, duplicate
  // tally, clusters.
  const auto header = [](CheckpointWriter& w, std::uint64_t floor,
                         std::uint64_t clusters,
                         std::uint64_t next_qid = 100) {
    w.BeginSection(0x74617473u);  // "stat"
    w.PutU64(floor);
    w.PutU64(next_qid);
    w.PutU64(0);
    w.PutU64(clusters);
  };
  const auto put_state = [](CheckpointWriter& w, std::uint64_t qid) {
    w.PutU64(qid);
    PutQueryState(w, QueryState{});
  };
  std::vector<std::pair<const char*, std::vector<std::uint8_t>>> payloads;
  {
    CheckpointWriter w(kMagic, 1);
    w.BeginSection(0x61616161u);
    w.PutU64(0);
    payloads.emplace_back("a section that is not the state section",
                          w.Finish());
  }
  {
    CheckpointWriter w(kMagic, 1);
    header(w, 0, 4);
    w.PutU64(1000);  // Duplicate-table entries...
    w.PutU64(1);     // ...of which only one qid follows.
    payloads.emplace_back("a count promising more entries than follow",
                          w.Finish());
  }
  {
    CheckpointWriter w(kMagic, 1);
    header(w, 0, 4);
    w.PutU64(1);  // One duplicate-table entry, for cluster 4 of 4.
    w.PutU64(7);
    w.PutU64(4);
    w.PutU32(0);
    w.PutU64(0);
    w.PutU64(0);
    payloads.emplace_back("a cluster id at the saved cluster count",
                          w.Finish());
  }
  {
    CheckpointWriter w(kMagic, 1);
    header(w, 10, 4);
    w.PutU64(0);
    w.PutU64(1);  // One query state, for qid 5 below the floor of 10.
    put_state(w, 5);
    w.PutU64(0);
    payloads.emplace_back("a qid below the saved retirement floor",
                          w.Finish());
  }
  {
    CheckpointWriter w(kMagic, 1);
    header(w, 0, 4, 50);
    w.PutU64(0);
    w.PutU64(1);  // One query state, for qid 50 at the next qid of 50.
    put_state(w, 50);
    w.PutU64(0);
    payloads.emplace_back("a state qid at the saved next qid", w.Finish());
  }
  {
    CheckpointWriter w(kMagic, 1);
    header(w, 0, 4, 50);
    w.PutU64(1);  // One duplicate-table entry, for qid 2^60.
    w.PutU64(std::uint64_t{1} << 60);
    w.PutU64(0);
    w.PutU32(0);
    w.PutU64(0);
    w.PutU64(0);
    payloads.emplace_back("a duplicate-table qid far above the next qid",
                          w.Finish());
  }
  {
    CheckpointWriter w(kMagic, 1);
    header(w, 0, 4, 50);
    w.PutU64(0);
    w.PutU64(0);
    w.PutU64(1);  // One binding, to a root at the next qid.
    w.PutU64(9);
    w.PutU64(50);
    payloads.emplace_back("a binding to a root at the saved next qid",
                          w.Finish());
  }
  {
    CheckpointWriter w(kMagic, 1);
    header(w, 20, 4, 10);
    w.PutU64(0);
    w.PutU64(0);
    w.PutU64(0);
    payloads.emplace_back("a next qid below the floor", w.Finish());
  }
  {
    CheckpointWriter w(kMagic, 1);
    header(w, 0, 4, std::uint64_t{1} << 60);
    w.PutU64(0);
    w.PutU64(0);
    w.PutU64(0);
    payloads.emplace_back("a qid window wider than kMaxQidWindow",
                          w.Finish());
  }
  {
    CheckpointWriter w(kMagic, 1);
    header(w, 0, 4);
    w.PutU64(0);
    w.PutU64(2);  // Two query states for the same qid.
    put_state(w, 3);
    put_state(w, 3);
    w.PutU64(0);
    payloads.emplace_back("a state qid written twice", w.Finish());
  }
  {
    CheckpointWriter w(kMagic, 1);
    header(w, 0, std::uint64_t{1} << 40);
    w.PutU64(0);
    w.PutU64(0);
    w.PutU64(0);
    payloads.emplace_back("an absurd cluster count", w.Finish());
  }
  for (const auto& [what, bytes] : payloads) {
    SCOPED_TRACE(what);
    std::optional<CheckpointReader> r =
        CheckpointReader::Open(bytes, kMagic, 1);
    ASSERT_TRUE(r.has_value());
    SimState state(4);
    EXPECT_FALSE(state.LoadFrom(*r));
  }
  // The same framing with in-range ids loads: the payloads above fail
  // on their one bad field, not on their shape.
  CheckpointWriter w(kMagic, 1);
  header(w, 2, 4);
  w.PutU64(1);
  w.PutU64(7);
  w.PutU64(3);
  w.PutU32(0);
  w.PutU64(1);
  put_state(w, 3);
  w.PutU64(0);
  const std::vector<std::uint8_t> bytes = w.Finish();
  std::optional<CheckpointReader> r = CheckpointReader::Open(bytes, kMagic, 1);
  ASSERT_TRUE(r.has_value());
  SimState state(4);
  EXPECT_TRUE(state.LoadFrom(*r));
}

TEST(SimStateTest, EmptyDenseStateCostsNothingPerCluster) {
  // The tables are keyed by qid with no per-cluster container, so an
  // idle state costs zero bytes however many clusters it addresses.
  SimState small(8);
  SimState large(100000);
  EXPECT_EQ(small.ApproxScratchBytes(), 0u);
  EXPECT_EQ(large.ApproxScratchBytes(), 0u);
  large.EnsureClusters(200000);
  EXPECT_EQ(large.ApproxScratchBytes(), 0u);
}

TEST(SimStateTest, ScratchBytesTrackPopulation) {
  SimState s(8);
  Rng rng(21);
  for (std::uint64_t qid = 0; qid < 5000; ++qid) {
    s.Claim(qid);
    s.SetRoot(qid, qid);
    for (int c = 0; c < 3; ++c) {
      const std::size_t cluster = rng.NextBounded(8);
      const auto up = static_cast<std::uint32_t>(rng.NextBounded(40));
      s.MarkSeen(cluster, qid, up);
    }
  }
  // Absolute bytes are layout-dependent; what must hold is that the
  // estimate grew with the population (the per-node figures for the
  // real simulator workload are measured in bench/sim_scale).
  EXPECT_GT(s.ApproxScratchBytes(), 100u * 1024u);
}

TEST(SimStateDeathTest, DenseClaimRejectsReclaim) {
  // Root qids are claimed exactly once per submission; a double claim is
  // a qid-allocation bug the state traps.
  SimState state(2);
  state.Claim(5);
  EXPECT_DEATH(state.Claim(5), "claimed twice");
}

TEST(SimStateDeathTest, WritesBelowTheRetirementFloorAbort) {
  // A write for a retired qid means an in-flight count was lost; the
  // state traps it rather than silently re-inserting.
  SimState state(4);
  state.MarkSeen(0, 12, 1);
  state.RetireBelow(10);
  EXPECT_DEATH(state.MarkSeen(1, 5, 2), "qid >= qid_base_");
  EXPECT_DEATH(state.Claim(5), "qid >= qid_base_");
  EXPECT_DEATH(state.SetRoot(5, 1), "qid >= qid_base_");
}

TEST(SimStateDeathTest, WritesToARetiredQidAboveTheFloorAbort) {
  // Exact retirement releases qids out of order, so a retired qid can
  // sit above the floor; a write to one must fail as loudly as a write
  // below it.
  SimState state(4);
  const std::uint64_t held = state.Mint();
  const std::uint64_t done = state.Mint();
  state.AddRef(held);
  state.Claim(done);
  state.RetireIfIdle(done, 1.0);
  ASSERT_EQ(state.retire_floor(), 0u);
  ASSERT_EQ(state.Find(done), nullptr);
  EXPECT_DEATH(state.MarkSeen(1, done, 2), "retired qid");
  EXPECT_DEATH(state.Claim(done), "retire");
  EXPECT_DEATH(state.SetRoot(done, held), "retired qid");
  EXPECT_DEATH(state.AddRef(done), "retired qid");
}

}  // namespace
}  // namespace sppnet
