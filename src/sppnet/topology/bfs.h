#ifndef SPPNET_TOPOLOGY_BFS_H_
#define SPPNET_TOPOLOGY_BFS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "sppnet/topology/topology.h"

namespace sppnet {

/// Reusable per-source state for flood traversals. The evaluation engine
/// runs one flood per source super-peer, so all arrays are allocated once
/// and recycled via an epoch counter instead of being cleared.
class FloodScratch {
 public:
  void Prepare(std::size_t n);

  /// True if `u` was visited during the current flood.
  bool Visited(NodeId u) const { return mark_[u] == epoch_; }

  /// Depth of `u`; only meaningful when Visited(u).
  int Depth(NodeId u) const { return depth_[u]; }

  /// BFS-tree predecessor of `u`; the source is its own parent.
  NodeId Parent(NodeId u) const { return parent_[u]; }

  /// Messages received by `u` during the flood (fresh + duplicates).
  std::uint32_t Receptions(NodeId u) const { return receptions_[u]; }

  /// Query transmissions performed by `u`.
  std::uint32_t Transmissions(NodeId u) const { return transmissions_[u]; }

  /// Visitation order; order()[0] is the source.
  const std::vector<NodeId>& order() const { return order_; }

 private:
  friend struct FloodAccess;

  std::vector<int> depth_;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> receptions_;
  std::vector<std::uint32_t> transmissions_;
  std::vector<std::uint32_t> mark_;
  std::vector<NodeId> order_;
  std::uint32_t epoch_ = 0;
};

/// Aggregate statistics of one flood.
struct FloodStats {
  /// Nodes that saw the query, including the source.
  std::size_t reached = 0;
  /// Total query-message transmissions.
  double transmissions = 0.0;
  /// Messages that arrived at an already-visited node (received, then
  /// dropped). transmissions == (reached - 1) + duplicates.
  double duplicates = 0.0;
  /// Sum of BFS depths over reached nodes (source contributes 0);
  /// mean response path length = depth_sum / (reached - 1).
  double depth_sum = 0.0;
};

/// Simulates the paper's baseline Gnutella flood from `source` with the
/// given TTL over `topo` (Section 3.1): every node that first receives the
/// query with remaining TTL forwards it on all connections except the one
/// it arrived on; duplicates are received and dropped.
///
/// Fills `scratch` with per-node depths, predecessors, reception and
/// transmission counts, and the visitation order. Complete topologies are
/// handled by closed form (every non-source node is at depth 1).
FloodStats FloodBfs(const Topology& topo, NodeId source, int ttl,
                    FloodScratch& scratch);

/// Mean BFS depth of the nearest `reach` non-source nodes from `source`
/// (the paper's "expected path length" for a desired reach, Figure 9).
/// Returns std::nullopt if fewer than `reach` nodes are reachable.
std::optional<double> EplForReach(const Topology& topo, NodeId source,
                                  std::size_t reach, FloodScratch& scratch);

/// Smallest TTL whose flood from `source` reaches every node, or
/// std::nullopt if the topology is disconnected from `source`.
std::optional<int> MinTtlForFullReach(const Topology& topo, NodeId source,
                                      FloodScratch& scratch);

/// One element of a batched-BFS level: bit i of `word` set means the
/// flood from the batch's i-th source first reaches `node` at this level.
struct BatchLevelEntry {
  NodeId node = 0;
  std::uint64_t word = 0;
};

/// Multi-source BFS over the CSR adjacency that advances up to
/// kBfsWordBits (= 64) source frontiers per pass: each node carries one
/// frontier/visited bit per source, so one word-wide OR-and-mask expands
/// an edge for every flood in the batch at once.
///
/// The output is a per-depth list of (node, source-word) entries with node
/// ids ascending within each level — a canonical form that does not depend
/// on which kernel produced it. The bit-parallel kernel gets that order
/// without sorting: the push marks each node that joins the next level in
/// a one-bit-per-node bitmap, and the level is emitted by scanning the
/// bitmap's words in order, clearing each as it is read. The scalar
/// reference kernel (64 ordinary queue BFS traversals bucketed into the
/// same shape) exists to pin the bit-parallel kernel down: both must
/// produce bit-identical levels, which is what
/// tests/topology/batched_bfs_test.cc enforces and what lets the
/// evaluation engine swap kernels without perturbing any downstream
/// floating-point arithmetic.
///
/// Depths are truncated at `max_depth` (the flood TTL): a node first
/// reached at depth d is recorded iff d <= max_depth. State is recycled
/// across Run() calls; instances are cheap to keep per worker thread.
class BatchedBfs {
 public:
  enum class Kernel { kBitParallel, kScalarReference };

  /// Runs `sources.size()` (<= kBfsWordBits, > 0) simultaneous floods.
  /// Duplicate source nodes are allowed and produce independent floods.
  void Run(const Graph& graph, std::span<const NodeId> sources, int max_depth,
           Kernel kernel = Kernel::kBitParallel);

  /// Number of recorded levels; levels 0..num_levels()-1 are non-empty.
  int num_levels() const { return static_cast<int>(level_offsets_.size()) - 1; }

  /// Entries of one level, node ids strictly ascending.
  std::span<const BatchLevelEntry> Level(int depth) const {
    return {entries_.data() + level_offsets_[depth],
            level_offsets_[depth + 1] - level_offsets_[depth]};
  }

  /// Depth of `u` in the flood from the `source_bit`-th source, or -1 if
  /// unreached within max_depth. O(levels * log n); intended for tests.
  int Depth(std::size_t source_bit, NodeId u) const;

  /// Bytes currently held by scratch + output arrays (capacity, not
  /// size) — the bench reports this as bytes/node.
  std::size_t MemoryBytes() const;

 private:
  void PrepareRun(const Graph& graph, std::span<const NodeId> sources);
  void RunBitParallel(const Graph& graph, int max_depth);
  void MarkNext(NodeId v) {
    next_bits_[v / kBfsWordBits] |= std::uint64_t{1} << (v % kBfsWordBits);
  }
  // Calls emit(v) for every bit v of next_bits_, ascending, clearing each
  // word as it is read, so the bitmap is all zero again on return.
  template <typename Emit>
  void DrainNextBits(Emit emit);
  void RunScalarReference(const Graph& graph,
                          std::span<const NodeId> sources, int max_depth);

  std::vector<std::uint64_t> visited_;    // One source-bit word per node.
  std::vector<std::uint64_t> next_;       // Level under construction.
  std::vector<std::uint64_t> next_bits_;  // Bit v: v joins that level.
  std::vector<BatchLevelEntry> entries_;    // All levels, concatenated.
  std::vector<std::size_t> level_offsets_;  // num_levels() + 1 fenceposts.
  std::vector<std::pair<NodeId, int>> queue_;  // Scalar-reference BFS queue.
  std::size_t num_nodes_ = 0;
};

}  // namespace sppnet

#endif  // SPPNET_TOPOLOGY_BFS_H_
