#include "sppnet/topology/bfs.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "sppnet/common/check.h"

namespace sppnet {

// Grants bfs.cc access to FloodScratch internals without exposing setters
// in the public API.
struct FloodAccess {
  static void Visit(FloodScratch& s, NodeId u, int depth, NodeId parent) {
    s.depth_[u] = depth;
    s.parent_[u] = parent;
    s.mark_[u] = s.epoch_;
    s.receptions_[u] = 0;
    s.transmissions_[u] = 0;
    s.order_.push_back(u);
  }
  static void AddReception(FloodScratch& s, NodeId u) { ++s.receptions_[u]; }
  static void SetTransmissions(FloodScratch& s, NodeId u, std::uint32_t t) {
    s.transmissions_[u] = t;
  }
  static void SetReceptions(FloodScratch& s, NodeId u, std::uint32_t r) {
    s.receptions_[u] = r;
  }
};

void FloodScratch::Prepare(std::size_t n) {
  if (depth_.size() != n) {
    depth_.assign(n, 0);
    parent_.assign(n, 0);
    receptions_.assign(n, 0);
    transmissions_.assign(n, 0);
    mark_.assign(n, 0);
    epoch_ = 0;
  }
  ++epoch_;
  if (epoch_ == 0) {  // Epoch counter wrapped; reset marks.
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }
  order_.clear();
}

namespace {

FloodStats FloodComplete(std::size_t n, NodeId source, int ttl,
                         FloodScratch& scratch) {
  FloodStats stats;
  FloodAccess::Visit(scratch, source, 0, source);
  stats.reached = 1;
  if (ttl < 1 || n <= 1) return stats;

  for (NodeId v = 0; v < n; ++v) {
    if (v == source) continue;
    FloodAccess::Visit(scratch, v, 1, source);
  }
  stats.reached = n;
  stats.depth_sum = static_cast<double>(n - 1);

  const auto fan = static_cast<double>(n - 1);
  // Source sends to everyone.
  FloodAccess::SetTransmissions(scratch, source, static_cast<std::uint32_t>(n - 1));
  stats.transmissions = fan;
  if (ttl >= 2) {
    // Every depth-1 node forwards to all connections except the one the
    // query arrived on (the source): n-2 redundant transmissions each,
    // received and dropped by the other depth-1 nodes.
    const auto dup_fan = static_cast<std::uint32_t>(n - 2);
    for (NodeId v = 0; v < n; ++v) {
      if (v == source) continue;
      FloodAccess::SetTransmissions(scratch, v, dup_fan);
      // Receives 1 fresh (from source) + duplicates from all other
      // depth-1 nodes.
      FloodAccess::SetReceptions(scratch, v, 1 + dup_fan);
    }
    stats.transmissions += static_cast<double>(n - 1) * dup_fan;
    stats.duplicates = static_cast<double>(n - 1) * dup_fan;
  } else {
    for (NodeId v = 0; v < n; ++v) {
      if (v == source) continue;
      FloodAccess::SetReceptions(scratch, v, 1);
    }
  }
  return stats;
}

}  // namespace

FloodStats FloodBfs(const Topology& topo, NodeId source, int ttl,
                    FloodScratch& scratch) {
  const std::size_t n = topo.num_nodes();
  SPPNET_CHECK(source < n);
  SPPNET_CHECK(ttl >= 0);
  scratch.Prepare(n);

  if (topo.is_complete()) return FloodComplete(n, source, ttl, scratch);

  const Graph& g = topo.graph();
  FloodStats stats;
  FloodAccess::Visit(scratch, source, 0, source);

  // order() doubles as the BFS queue: nodes are appended when first
  // visited and processed in append order.
  std::size_t head = 0;
  while (head < scratch.order().size()) {
    const NodeId u = scratch.order()[head++];
    const int du = scratch.Depth(u);
    if (du >= ttl) continue;  // Reached nodes at depth == ttl do not forward.
    const NodeId pu = scratch.Parent(u);
    std::uint32_t sent = 0;
    for (const NodeId v : g.Neighbors(u)) {
      if (v == pu && u != source) continue;  // Do not send back on arrival edge.
      ++sent;
      if (!scratch.Visited(v)) {
        FloodAccess::Visit(scratch, v, du + 1, u);
        FloodAccess::AddReception(scratch, v);
      } else {
        FloodAccess::AddReception(scratch, v);
        stats.duplicates += 1.0;
      }
    }
    FloodAccess::SetTransmissions(scratch, u, sent);
    stats.transmissions += static_cast<double>(sent);
  }

  stats.reached = scratch.order().size();
  for (const NodeId u : scratch.order()) {
    stats.depth_sum += static_cast<double>(scratch.Depth(u));
  }
  return stats;
}

std::optional<double> EplForReach(const Topology& topo, NodeId source,
                                  std::size_t reach, FloodScratch& scratch) {
  SPPNET_CHECK(reach >= 1);
  const std::size_t n = topo.num_nodes();
  if (reach > n - 1) return std::nullopt;
  if (topo.is_complete()) return 1.0;

  scratch.Prepare(n);
  FloodAccess::Visit(scratch, source, 0, source);
  const Graph& g = topo.graph();
  double depth_sum = 0.0;
  std::size_t counted = 0;
  std::size_t head = 0;
  while (head < scratch.order().size() && counted < reach) {
    const NodeId u = scratch.order()[head++];
    const int du = scratch.Depth(u);
    for (const NodeId v : g.Neighbors(u)) {
      if (scratch.Visited(v)) continue;
      FloodAccess::Visit(scratch, v, du + 1, u);
      depth_sum += static_cast<double>(du + 1);
      if (++counted == reach) break;
    }
  }
  if (counted < reach) return std::nullopt;
  return depth_sum / static_cast<double>(reach);
}

std::optional<int> MinTtlForFullReach(const Topology& topo, NodeId source,
                                      FloodScratch& scratch) {
  const std::size_t n = topo.num_nodes();
  if (n <= 1) return 0;
  if (topo.is_complete()) return 1;

  // One unbounded BFS; the answer is the eccentricity of the source.
  scratch.Prepare(n);
  FloodAccess::Visit(scratch, source, 0, source);
  const Graph& g = topo.graph();
  int max_depth = 0;
  std::size_t head = 0;
  while (head < scratch.order().size()) {
    const NodeId u = scratch.order()[head++];
    const int du = scratch.Depth(u);
    for (const NodeId v : g.Neighbors(u)) {
      if (scratch.Visited(v)) continue;
      FloodAccess::Visit(scratch, v, du + 1, u);
      max_depth = std::max(max_depth, du + 1);
    }
  }
  if (scratch.order().size() < n) return std::nullopt;
  return max_depth;
}

template <typename Emit>
void BatchedBfs::DrainNextBits(Emit emit) {
  for (std::size_t w = 0; w < next_bits_.size(); ++w) {
    for (std::uint64_t bits = std::exchange(next_bits_[w], 0); bits != 0;
         bits &= bits - 1) {
      emit(static_cast<NodeId>(
          w * kBfsWordBits + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  }
}

void BatchedBfs::PrepareRun(const Graph& graph,
                            std::span<const NodeId> sources) {
  SPPNET_CHECK(!sources.empty());
  SPPNET_CHECK(sources.size() <= kBfsWordBits);
  const std::size_t n = graph.num_nodes();
  if (num_nodes_ != n) {
    visited_.assign(n, 0);
    next_.assign(n, 0);
    next_bits_.assign(WordsForBits(n), 0);
    num_nodes_ = n;
  } else {
    // Every visited node appears in at least one level entry, so the
    // previous run's output doubles as the clear list.
    for (const BatchLevelEntry& e : entries_) visited_[e.node] = 0;
  }
  entries_.clear();
  level_offsets_.assign(1, 0);

  // Level 0: seed the source bits, then emit one entry per distinct
  // source node (several sources may share a node).
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const NodeId s = sources[i];
    SPPNET_CHECK(s < n);
    MarkNext(s);
    visited_[s] |= std::uint64_t{1} << i;
  }
  DrainNextBits([&](NodeId s) { entries_.push_back({s, visited_[s]}); });
  level_offsets_.push_back(entries_.size());
}

void BatchedBfs::Run(const Graph& graph, std::span<const NodeId> sources,
                     int max_depth, Kernel kernel) {
  SPPNET_CHECK(max_depth >= 0);
  PrepareRun(graph, sources);
  if (kernel == Kernel::kBitParallel) {
    RunBitParallel(graph, max_depth);
  } else {
    RunScalarReference(graph, sources, max_depth);
  }
}

void BatchedBfs::RunBitParallel(const Graph& graph, int max_depth) {
  const std::size_t* offsets = graph.offsets().data();
  const NodeId* adjacency = graph.adjacency().data();
  for (int depth = 0; depth < max_depth; ++depth) {
    const std::size_t begin = level_offsets_[depth];
    const std::size_t end = level_offsets_[depth + 1];
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId u = entries_[i].node;
      const std::uint64_t w = entries_[i].word;
      for (std::size_t a = offsets[u]; a < offsets[u + 1]; ++a) {
        const NodeId v = adjacency[a];
        const std::uint64_t fresh = w & ~visited_[v];
        if (fresh != 0) {
          MarkNext(v);
          next_[v] |= fresh;
        }
      }
    }
    DrainNextBits([&](NodeId v) {
      const std::uint64_t w = std::exchange(next_[v], 0);
      visited_[v] |= w;
      entries_.push_back({v, w});
    });
    if (entries_.size() == end) break;  // Empty level: every flood is done.
    level_offsets_.push_back(entries_.size());
  }
}

void BatchedBfs::RunScalarReference(const Graph& graph,
                                    std::span<const NodeId> sources,
                                    int max_depth) {
  // 64 ordinary queue BFS traversals; (depth, node, bit) triples are
  // bucketed afterwards into the same canonical per-level shape the
  // bit-parallel kernel emits.
  std::vector<std::pair<std::pair<int, NodeId>, std::uint64_t>> raw;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    queue_.clear();
    queue_.emplace_back(sources[i], 0);
    std::size_t head = 0;
    while (head < queue_.size()) {
      const auto [u, du] = queue_[head++];
      if (du == max_depth) continue;
      for (const NodeId v : graph.Neighbors(u)) {
        if ((visited_[v] & bit) != 0) continue;
        visited_[v] |= bit;
        raw.push_back({{du + 1, v}, bit});
        queue_.emplace_back(v, du + 1);
      }
    }
  }
  std::sort(raw.begin(), raw.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t i = 0;
  int level = 1;
  while (i < raw.size()) {
    SPPNET_CHECK(raw[i].first.first == level);  // Levels are contiguous.
    while (i < raw.size() && raw[i].first.first == level) {
      BatchLevelEntry entry{raw[i].first.second, 0};
      while (i < raw.size() && raw[i].first ==
                                   std::make_pair(level, entry.node)) {
        entry.word |= raw[i].second;
        ++i;
      }
      entries_.push_back(entry);
    }
    level_offsets_.push_back(entries_.size());
    ++level;
  }
}

int BatchedBfs::Depth(std::size_t source_bit, NodeId u) const {
  const std::uint64_t bit = std::uint64_t{1} << source_bit;
  for (int d = 0; d < num_levels(); ++d) {
    const std::span<const BatchLevelEntry> level = Level(d);
    const auto it = std::lower_bound(
        level.begin(), level.end(), u,
        [](const BatchLevelEntry& e, NodeId node) { return e.node < node; });
    if (it != level.end() && it->node == u && (it->word & bit) != 0) return d;
  }
  return -1;
}

std::size_t BatchedBfs::MemoryBytes() const {
  return visited_.capacity() * sizeof(std::uint64_t) +
         next_.capacity() * sizeof(std::uint64_t) +
         next_bits_.capacity() * sizeof(std::uint64_t) +
         entries_.capacity() * sizeof(BatchLevelEntry) +
         level_offsets_.capacity() * sizeof(std::size_t) +
         queue_.capacity() * sizeof(std::pair<NodeId, int>);
}

}  // namespace sppnet
