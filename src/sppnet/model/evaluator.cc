#include "sppnet/model/evaluator.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sppnet/common/check.h"
#include "sppnet/obs/metrics.h"
#include "sppnet/topology/bfs.h"

namespace sppnet {

LoadVector InstanceLoads::MeanOf(const std::vector<LoadVector>& loads) {
  LoadVector sum;
  for (const auto& l : loads) sum += l;
  if (!loads.empty()) sum *= 1.0 / static_cast<double>(loads.size());
  return sum;
}

namespace {

/// How many entries ahead the accumulate loops prefetch the randomly
/// addressed records they will touch. Every loop there is bound by
/// memory latency, not by arithmetic.
constexpr std::size_t kPrefetchAhead = 16;

inline void PrefetchRead(const void* p) { __builtin_prefetch(p, 0); }
inline void PrefetchWrite(const void* p) { __builtin_prefetch(p, 1); }

/// Raw per-entity accumulation in bytes/sec and processing units/sec;
/// converted to bps / Hz only at the very end.
struct RawLoad {
  double in_bytes = 0.0;
  double out_bytes = 0.0;
  double units = 0.0;
};

/// One (source, node) element of a batch's canonical flood: the reach
/// list of a source is ordered by (depth ascending, node id ascending),
/// entry 0 being the source itself. `parent` names the canonical
/// BFS-tree parent: the minimum-id neighbor one level closer to the
/// source. Dispatch stores the parent's node id; the per-source pass
/// rewrites it into the parent's index in the same list (always smaller
/// than the entry's own index). `recv` is the number of query
/// transmissions the node receives, after correcting for children not
/// sending back on their arrival edge.
struct ReachEntry {
  NodeId node = 0;
  std::uint32_t parent = 0;
  std::uint32_t own_pos = 0;  // Slot in the batch-compact records.
  std::uint32_t recv = 0;
  std::uint16_t depth = 0;
};

/// A node's source words around the level being dispatched: `prev` is
/// its word one level closer to the sources, `below` the OR of its words
/// at levels < ttl (the sources whose query it forwards). Interleaved so
/// that one neighbor visit reads one 16-byte record.
struct NodeWords {
  std::uint64_t prev = 0;
  std::uint64_t below = 0;
};

/// One record per distinct node a batch reaches: the node's constants,
/// filled once after dispatch, then weighted sums over the batch's
/// sources (w = source query rate).
struct PositionSums {
  double response_prob = 0.0;
  double expected_results = 0.0;
  double expected_addrs = 0.0;
  double degree = 0.0;
  // Query transmissions/receptions and reach...
  double wt = 0.0, wr = 0.0, wreach = 0.0;
  // ...response bundles sent (excluding each source's own row)...
  double snd_m = 0.0, snd_r = 0.0, snd_a = 0.0;
  // ...and subtree-only bundles received (children's, excluding the
  // node's own response — summed directly so no cancellation occurs).
  double sub_m = 0.0, sub_r = 0.0, sub_a = 0.0;
};

/// Expected response traffic (msgs, results, addrs) travelling up a
/// source's response tree.
struct Bundle {
  double msgs = 0.0;
  double results = 0.0;
  double addrs = 0.0;
};

/// Everything one 64-source batch contributes to the evaluation,
/// extracted on the worker so the fold (which runs on one thread, in
/// batch order) stays cheap and deterministic.
struct BatchResult {
  // Sparse per-cluster query-phase load, one entry per reached node in
  // first-seen order (the fold adds each node's delta once, so the
  // order does not affect any sum).
  std::vector<std::pair<NodeId, RawLoad>> pool_delta;
  double weighted_results = 0.0;
  double weighted_epl = 0.0;
  double weighted_reach = 0.0;
  double total_weight = 0.0;
  double duplicates = 0.0;  // Sum over batch sources of w * dup.
  // Deterministic kernel tallies.
  std::uint64_t levels = 0;
  std::uint64_t frontier_entries = 0;
  std::uint64_t reached = 0;
  std::uint64_t edge_visits = 0;
  std::uint64_t neighbor_visits = 0;
  std::size_t scratch_bytes = 0;  // Size-based, so parallelism-independent.
  // Wall-clock phase times; report-only.
  double expand_seconds = 0.0;
  double accumulate_seconds = 0.0;
};

/// Per-worker reusable state. Dense arrays are indexed by node id; the
/// compact arrays have one slot per distinct node reached by the current
/// batch. Every value read during a batch is (re)initialized by that
/// batch, so results never depend on which batches a worker ran before —
/// the property that makes parallelism bit-transparent.
struct BatchScratch {
  explicit BatchScratch(std::size_t n) : words(n), pos_of(n, 0), idx_of(n, 0) {}

  BatchedBfs bfs;
  std::vector<NodeWords> words;  // All zero between batches.
  // Sparse set: u has a position iff union_nodes[pos_of[u]] == u.
  std::vector<std::uint32_t> pos_of;
  std::vector<std::uint32_t> idx_of;  // Node -> index in one reach list.
  std::vector<NodeId> union_nodes;    // Distinct reached nodes, first seen.
  std::vector<PositionSums> sums;     // Parallel to union_nodes.
  std::vector<Bundle> acc;  // Per reach-list entry; zeroed after each use.
  std::array<std::vector<ReachEntry>, kBfsWordBits> reach;
};

class Evaluator {
 public:
  Evaluator(const NetworkInstance& inst, const Configuration& config,
            const ModelInputs& inputs)
      : inst_(inst),
        config_(config),
        costs_(inputs.costs),
        n_(inst.NumClusters()),
        k_(inst.redundancy_k),
        qlen_(inputs.stats.query_length_bytes),
        qbytes_(inputs.costs.QueryBytes(qlen_)),
        sendq_(inputs.costs.SendQueryUnits(qlen_)),
        recvq_(inputs.costs.RecvQueryUnits(qlen_)) {
    cluster_pool_.assign(n_, RawLoad{});
    partner_raw_.assign(inst.TotalPartners(), RawLoad{});
    client_raw_.assign(inst.TotalClients(), RawLoad{});
    conn_.resize(n_);
    users_.resize(n_);
    query_rate_of_cluster_.resize(n_);
    submit_rate_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      conn_[i] = inst.PartnerConnections(i);
      users_[i] = static_cast<double>(inst.ClusterUsers(i));
      query_rate_of_cluster_[i] = users_[i] * config.query_rate;
      submit_rate_[i] =
          static_cast<double>(inst.NumClients(i)) * config.query_rate;
    }
    client_conn_ = inst.ClientConnections();
  }

  InstanceLoads Run(const EvalOptions& options) {
    out_.results_per_query.assign(n_, 0.0);
    out_.epl_per_source.assign(n_, 0.0);
    out_.reach_per_source.assign(n_, 0.0);

    if (inst_.topology.is_complete()) {
      EvaluateQueriesComplete();
    } else {
      EvaluateQueriesBatched(options);
    }
    EvaluateJoinsAndUpdates();
    return Finalize();
  }

 private:
  // --- Response-message composition helpers -------------------------------
  // A bundle of expected response traffic is described by (msgs, results,
  // addrs); both bytes and processing costs are linear in those three.
  double ResponseBytes(double msgs, double results, double addrs) const {
    return costs_.response_base_bytes * msgs +
           costs_.response_per_addr_bytes * addrs +
           costs_.response_per_result_bytes * results;
  }
  double SendResponseUnits(double msgs, double results, double addrs,
                           double connections) const {
    return costs_.send_response_units * msgs +
           costs_.send_response_per_addr * addrs +
           costs_.send_response_per_result * results +
           msgs * costs_.MultiplexUnits(connections);
  }
  double RecvResponseUnits(double msgs, double results, double addrs,
                           double connections) const {
    return costs_.recv_response_units * msgs +
           costs_.recv_response_per_addr * addrs +
           costs_.recv_response_per_result * results +
           msgs * costs_.MultiplexUnits(connections);
  }

  /// Client <-> super-peer traffic that every client-originated query
  /// incurs inside the source cluster `s`: the submission hop and the
  /// forwarding of every response (msgs/results/addrs totals) to the
  /// querying client. `source_pool` is cluster s's query-traffic pool
  /// (batch-local in the batched path). Client entries are only ever
  /// touched by their own cluster's source, so writing them from a
  /// worker is race-free and order-independent.
  void ApplyIntraClusterQueryTraffic(std::size_t s, double total_msgs,
                                     double total_results, double total_addrs,
                                     RawLoad& source_pool) {
    const double submit_rate = submit_rate_[s];  // client queries/sec
    // Submission hop: one query message client -> one partner.
    source_pool.in_bytes += submit_rate * qbytes_;
    source_pool.units +=
        submit_rate * (recvq_ + costs_.MultiplexUnits(conn_[s]));
    // Response forwarding: every response message (network + the local
    // one assembled from the cluster's own index) is relayed to the
    // querying client.
    source_pool.out_bytes +=
        submit_rate * ResponseBytes(total_msgs, total_results, total_addrs);
    source_pool.units += submit_rate * SendResponseUnits(
                             total_msgs, total_results, total_addrs, conn_[s]);
    // Client side, per client of cluster s (each submits at query_rate).
    const double rate = config_.query_rate;
    RawLoad client_delta;
    client_delta.out_bytes = rate * qbytes_;
    client_delta.units = rate * (sendq_ + costs_.MultiplexUnits(client_conn_));
    client_delta.in_bytes =
        rate * ResponseBytes(total_msgs, total_results, total_addrs);
    client_delta.units += rate * RecvResponseUnits(total_msgs, total_results,
                                                   total_addrs, client_conn_);
    for (std::size_t c = inst_.client_offset[s];
         c < inst_.client_offset[s + 1]; ++c) {
      client_raw_[c].in_bytes += client_delta.in_bytes;
      client_raw_[c].out_bytes += client_delta.out_bytes;
      client_raw_[c].units += client_delta.units;
    }
  }

  // --- Sparse (power-law) query evaluation ---------------------------------
  //
  // Sources are processed in batches of 64 by the batched BFS kernel.
  // One batch is evaluated in three stages, all of them shared between
  // the bit-parallel and scalar-reference engines (the engines differ
  // only in how the kernel's integer level lists are produced, which is
  // why their floating-point outputs are bit-identical):
  //
  //   1. Dispatch the kernel's per-level (node, source-word) lists into
  //      per-source canonical reach lists. Each (node, word) entry's
  //      neighbors are scanned once for the whole word: ANDing the word
  //      with the neighbors' previous-level words yields every source's
  //      canonical parent, and with their forwarding words (levels
  //      < ttl) every source's reception count.
  //   2. Per source, run the flooding-cost and reverse response-tree
  //      recurrences, but accumulate only the *weighted integer/bundle
  //      sums* per reached node (the load algebra is linear in them).
  //   3. Once per reached node per batch, expand those sums into the
  //      RawLoad pool using the per-node cost constants.
  //
  // Per-batch results are folded into the global pools in batch order on
  // the calling thread, so evaluation parallelism never reorders any
  // floating-point reduction (the model/trials.cc contract).

  BatchResult ComputeBatch(std::size_t b, BatchedBfs::Kernel kernel,
                           BatchScratch& sc) {
    const Graph& graph = inst_.topology.graph();
    BatchResult res;
    const std::size_t begin = b * kBfsWordBits;
    const std::size_t end = std::min(n_, begin + kBfsWordBits);
    const std::size_t batch_size = end - begin;
    std::array<NodeId, kBfsWordBits> sources;
    for (std::size_t i = 0; i < batch_size; ++i) {
      sources[i] = static_cast<NodeId>(begin + i);
    }

    const auto t0 = std::chrono::steady_clock::now();
    sc.bfs.Run(graph, {sources.data(), batch_size}, config_.ttl, kernel);
    const auto t1 = std::chrono::steady_clock::now();
    res.expand_seconds = std::chrono::duration<double>(t1 - t0).count();

    const int num_levels = sc.bfs.num_levels();
    const int ttl = config_.ttl;
    // Levels 0..ttl-1 forward the query: `below` collects them up front.
    // The expand pushed each of their entries over every incident edge;
    // counting that here keeps the tally the same for both kernels.
    const int forwarding_levels = std::min(ttl, num_levels);
    for (int d = 0; d < forwarding_levels; ++d) {
      for (const BatchLevelEntry& e : sc.bfs.Level(d)) {
        sc.words[e.node].below |= e.word;
        res.edge_visits += graph.Degree(e.node);
      }
    }

    // Dispatch levels into per-source canonical reach lists: levels
    // ascending, node ids ascending within a level, so each list comes
    // out in (depth, node) order with the source at index 0. Batch
    // positions are assigned in first-seen order, so the batch's sources
    // (level 0, ascending) hold positions 0..batch_size-1.
    sc.union_nodes.clear();
    for (std::size_t i = 0; i < batch_size; ++i) sc.reach[i].clear();
    std::array<NodeId, kBfsWordBits> parent{};
    std::array<std::uint32_t, kBfsWordBits> count{};  // Zero between entries.
    std::uint64_t frontier_entries = 0;
    std::uint64_t neighbor_visits = 0;
    for (int d = 0; d < num_levels; ++d) {
      if (d >= 2) {
        for (const BatchLevelEntry& e : sc.bfs.Level(d - 2)) {
          sc.words[e.node].prev = 0;
        }
      }
      if (d >= 1) {
        for (const BatchLevelEntry& e : sc.bfs.Level(d - 1)) {
          sc.words[e.node].prev = e.word;
        }
      }
      const auto d16 = static_cast<std::uint16_t>(d);
      const auto level = sc.bfs.Level(d);
      frontier_entries += level.size();
      for (std::size_t k = 0; k < level.size(); ++k) {
        // Two-stage prefetch: an entry's adjacency, then (half as far
        // ahead) its neighbors' word records.
        if (k + kPrefetchAhead < level.size()) {
          PrefetchRead(graph.Neighbors(level[k + kPrefetchAhead].node).data());
        }
        if (k + kPrefetchAhead / 2 < level.size()) {
          for (const NodeId v :
               graph.Neighbors(level[k + kPrefetchAhead / 2].node)) {
            PrefetchRead(&sc.words[v]);
          }
        }
        const NodeId u = level[k].node;
        const std::uint64_t word = level[k].word;
        const auto neighbors = graph.Neighbors(u);
        const auto degree = static_cast<std::uint32_t>(neighbors.size());

        std::uint32_t own_pos = sc.pos_of[u];
        if (own_pos >= sc.union_nodes.size() ||
            sc.union_nodes[own_pos] != u) {
          own_pos = static_cast<std::uint32_t>(sc.union_nodes.size());
          sc.pos_of[u] = own_pos;
          sc.union_nodes.push_back(u);
        }

        // Neighbors of a node differ from it in depth by at most one, so
        // for source bit i, with `orphans` the bits still lacking a
        // parent (the canonical parent is the first — minimum-id —
        // neighbor holding bit i one level up):
        //   d <= ttl-2: every neighbor forwards, recv = degree, and the
        //               scan stops once every bit has its parent;
        //   d == ttl-1: every neighbor is reached; those at depth ttl
        //               (bit i outside `below`) do not forward;
        //   d == ttl:   only the neighbors one level up forward.
        // `count` holds the exceptions (ttl-1) or the forwarders (ttl).
        std::uint64_t orphans = d == 0 ? 0 : word;
        if (d < ttl - 1) {
          for (const NodeId v : neighbors) {
            if (orphans == 0) break;
            ++neighbor_visits;
            for (std::uint64_t bits = orphans & sc.words[v].prev; bits != 0;
                 bits &= bits - 1) {
              parent[static_cast<std::size_t>(std::countr_zero(bits))] = v;
            }
            orphans &= ~sc.words[v].prev;
          }
        } else if (ttl > 0) {  // At TTL 0 nobody forwards.
          const bool last_forwarding = d == ttl - 1;
          for (const NodeId v : neighbors) {
            ++neighbor_visits;
            const NodeWords nw = sc.words[v];
            for (std::uint64_t bits = orphans & nw.prev; bits != 0;
                 bits &= bits - 1) {
              parent[static_cast<std::size_t>(std::countr_zero(bits))] = v;
            }
            orphans &= ~nw.prev;
            for (std::uint64_t bits =
                     word & (last_forwarding ? ~nw.below : nw.prev);
                 bits != 0; bits &= bits - 1) {
              ++count[static_cast<std::size_t>(std::countr_zero(bits))];
            }
          }
        }
        const bool at_ttl = d == ttl;
        for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
          const auto i = static_cast<std::size_t>(std::countr_zero(bits));
          const std::uint32_t recv = at_ttl ? count[i] : degree - count[i];
          count[i] = 0;
          sc.reach[i].push_back({u, parent[i], own_pos, recv, d16});
        }
      }
    }
    if (num_levels >= 2) {
      for (const BatchLevelEntry& e : sc.bfs.Level(num_levels - 2)) {
        sc.words[e.node].prev = 0;
      }
    }
    // Position records, in one sequential pass: filling them inside the
    // dispatch loop would add a third write stream to its random reads.
    const std::size_t m = sc.union_nodes.size();
    sc.sums.resize(m);
    for (std::size_t p = 0; p < m; ++p) {
      const NodeId u = sc.union_nodes[p];
      sc.sums[p] = {inst_.response_prob[u], inst_.expected_results[u],
                    inst_.expected_addrs[u],
                    static_cast<double>(graph.Degree(u))};
    }
    for (int d = 0; d < forwarding_levels; ++d) {
      for (const BatchLevelEntry& e : sc.bfs.Level(d)) {
        sc.words[e.node].below = 0;
      }
    }

    const auto ttl16 = static_cast<std::uint16_t>(ttl);
    std::size_t reach_entries = 0;
    std::size_t max_reach = 0;
    // Intra-cluster query traffic of each source, by position.
    std::array<RawLoad, kBfsWordBits> source_pool{};
    for (std::size_t i = 0; i < batch_size; ++i) {
      const std::size_t s = begin + i;
      const double w = query_rate_of_cluster_[s];
      std::vector<ReachEntry>& list = sc.reach[i];
      const auto r_count = static_cast<std::uint32_t>(list.size());
      res.reached += r_count;
      reach_entries += r_count;
      max_reach = std::max<std::size_t>(max_reach, r_count);
      if (sc.acc.size() < r_count) sc.acc.resize(r_count);

      // Parent node ids -> list indices. A parent is one level closer to
      // the source, so its index is already recorded.
      sc.idx_of[list[0].node] = 0;
      for (std::uint32_t idx = 1; idx < r_count; ++idx) {
        if (idx + kPrefetchAhead < r_count) {
          PrefetchWrite(&sc.idx_of[list[idx + kPrefetchAhead].node]);
          PrefetchRead(&sc.idx_of[list[idx + kPrefetchAhead].parent]);
        }
        ReachEntry& e = list[idx];
        sc.idx_of[e.node] = idx;
        e.parent = sc.idx_of[e.parent];
      }

      // Reverse canonical order: every child (larger index) is finished
      // before its parent, so both a node's reception count and its
      // response bundle are final when it is reached. Each position gets
      // one term per source, in ascending source order.
      std::uint64_t recv_total = 0;
      double source_msgs = 0.0, source_results = 0.0, source_addrs = 0.0;
      double epl_num = 0.0, epl_den = 0.0;
      for (std::uint32_t idx = r_count; idx-- > 0;) {
        if (idx >= kPrefetchAhead) {  // A record spans up to 3 lines.
          const auto* ahead = reinterpret_cast<const char*>(
              &sc.sums[list[idx - kPrefetchAhead].own_pos]);
          PrefetchWrite(ahead);
          PrefetchWrite(ahead + 64);
          PrefetchWrite(ahead + sizeof(PositionSums) - 1);
        }
        const ReachEntry& e = list[idx];
        PositionSums& p = sc.sums[e.own_pos];
        const bool forwards = e.depth < ttl16;
        // Flooding costs: weighted transmission/reception/reach sums.
        const double t =
            forwards ? p.degree - (idx != 0 ? 1.0 : 0.0) : 0.0;
        p.wt += w * t;
        p.wr += w * static_cast<double>(e.recv);
        p.wreach += w;
        recv_total += e.recv;

        const Bundle sub = sc.acc[idx];
        sc.acc[idx] = Bundle{};
        const double msgs = sub.msgs + p.response_prob;
        const double results = sub.results + p.expected_results;
        const double addrs = sub.addrs + p.expected_addrs;
        // Receive the subtree part (own response originates locally).
        p.sub_m += w * sub.msgs;
        p.sub_r += w * sub.results;
        p.sub_a += w * sub.addrs;
        if (idx == 0) {  // u == s: nothing sent onward.
          source_msgs = msgs;
          source_results = results;
          source_addrs = addrs;
          continue;
        }
        // A forwarding node does not send back on its arrival edge.
        if (forwards) --list[e.parent].recv;
        // Send own response plus everything forwarded from the subtree.
        p.snd_m += w * msgs;
        p.snd_r += w * results;
        p.snd_a += w * addrs;
        // Pass the bundle to the canonical parent.
        Bundle& up = sc.acc[e.parent];
        up.msgs += msgs;
        up.results += results;
        up.addrs += addrs;
        // EPL bookkeeping: response messages from u travel depth hops.
        epl_num += p.response_prob * static_cast<double>(e.depth);
        epl_den += p.response_prob;
      }

      ApplyIntraClusterQueryTraffic(s, source_msgs, source_results,
                                    source_addrs,
                                    source_pool[list[0].own_pos]);

      out_.results_per_query[s] = source_results;
      out_.epl_per_source[s] = epl_den > 0.0 ? epl_num / epl_den : 0.0;
      out_.reach_per_source[s] = static_cast<double>(r_count);
      res.weighted_results += w * source_results;
      res.weighted_epl += w * out_.epl_per_source[s];
      res.weighted_reach += w * static_cast<double>(r_count);
      res.total_weight += w;
      res.duplicates +=
          w * static_cast<double>(recv_total -
                                  static_cast<std::uint64_t>(r_count - 1));
    }

    // Expand the weighted sums into per-node loads, once per reached
    // node per batch: the load algebra is linear in the per-source
    // bundles, so summing bundles first is exact up to FP reassociation
    // — and the reassociation is fixed here, shared by both engines.
    res.pool_delta.reserve(m);
    for (std::size_t p = 0; p < m; ++p) {
      const NodeId u = sc.union_nodes[p];
      const PositionSums& q = sc.sums[p];
      RawLoad pool = p < batch_size ? source_pool[p] : RawLoad{};
      const double mux = costs_.MultiplexUnits(conn_[u]);
      pool.out_bytes += q.wt * qbytes_;
      pool.units += q.wt * (sendq_ + mux);
      pool.in_bytes += q.wr * qbytes_;
      pool.units += q.wr * (recvq_ + mux);
      // Every reached cluster processes the query over its index once.
      pool.units += q.wreach * costs_.ProcessQueryUnits(q.expected_results);
      pool.out_bytes += ResponseBytes(q.snd_m, q.snd_r, q.snd_a);
      pool.units += SendResponseUnits(q.snd_m, q.snd_r, q.snd_a, conn_[u]);
      pool.in_bytes += ResponseBytes(q.sub_m, q.sub_r, q.sub_a);
      pool.units += RecvResponseUnits(q.sub_m, q.sub_r, q.sub_a, conn_[u]);
      res.pool_delta.emplace_back(u, pool);
    }

    res.levels = static_cast<std::uint64_t>(num_levels);
    res.frontier_entries = frontier_entries;
    res.neighbor_visits = neighbor_visits;
    // Size-based footprint accounting (capacities depend on worker
    // history, sizes do not — the gauge must be parallelism-invariant):
    // the kernel's two per-node words and its next-level bitmap, the
    // per-node word record and the pos_of/idx_of maps, one union slot,
    // position record and pool delta per reached node, the level lists,
    // the reach lists and one bundle accumulator per entry of the longest
    // reach list.
    res.scratch_bytes =
        n_ * (2 * sizeof(std::uint64_t) + sizeof(NodeWords) +
              2 * sizeof(std::uint32_t)) +
        WordsForBits(n_) * sizeof(std::uint64_t) +
        m * (sizeof(NodeId) + sizeof(PositionSums) +
             sizeof(std::pair<NodeId, RawLoad>)) +
        static_cast<std::size_t>(frontier_entries) * sizeof(BatchLevelEntry) +
        reach_entries * sizeof(ReachEntry) + max_reach * sizeof(Bundle);
    res.accumulate_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t1)
                                 .count();
    return res;
  }

  void EvaluateQueriesBatched(const EvalOptions& options) {
    SPPNET_CHECK(config_.ttl >= 0);
    SPPNET_CHECK(config_.ttl <= std::numeric_limits<std::uint16_t>::max());
    const std::size_t num_batches = WordsForBits(n_);
    const BatchedBfs::Kernel kernel = options.engine == EvalEngine::kBatched
                                          ? BatchedBfs::Kernel::kBitParallel
                                          : BatchedBfs::Kernel::kScalarReference;

    double weighted_results = 0.0;
    double weighted_epl = 0.0;
    double weighted_reach = 0.0;
    double total_weight = 0.0;
    std::uint64_t levels_total = 0;
    std::uint64_t frontier_total = 0;
    std::uint64_t reached_total = 0;
    std::uint64_t edge_visits_total = 0;
    std::uint64_t neighbor_visits_total = 0;
    std::size_t scratch_bytes_max = 0;
    double expand_seconds = 0.0;
    double accumulate_seconds = 0.0;
    const auto fold = [&](BatchResult&& r) {
      for (const auto& [u, delta] : r.pool_delta) {
        RawLoad& pool = cluster_pool_[u];
        pool.in_bytes += delta.in_bytes;
        pool.out_bytes += delta.out_bytes;
        pool.units += delta.units;
      }
      weighted_results += r.weighted_results;
      weighted_epl += r.weighted_epl;
      weighted_reach += r.weighted_reach;
      total_weight += r.total_weight;
      out_.duplicate_msgs_per_sec += r.duplicates;
      levels_total += r.levels;
      frontier_total += r.frontier_entries;
      reached_total += r.reached;
      edge_visits_total += r.edge_visits;
      neighbor_visits_total += r.neighbor_visits;
      scratch_bytes_max = std::max(scratch_bytes_max, r.scratch_bytes);
      expand_seconds += r.expand_seconds;
      accumulate_seconds += r.accumulate_seconds;
    };

    const std::size_t workers =
        std::max<std::size_t>(1, std::min(options.parallelism, num_batches));
    if (workers <= 1) {
      BatchScratch scratch(n_);
      for (std::size_t b = 0; b < num_batches; ++b) {
        fold(ComputeBatch(b, kernel, scratch));
      }
    } else {
      // Workers claim batches in order off an atomic counter; the
      // calling thread folds results strictly in batch order. The
      // in-flight window bounds buffered results (and so memory) while
      // still letting fast workers run ahead.
      std::mutex mu;
      std::condition_variable space_available;
      std::condition_variable result_ready;
      std::map<std::size_t, BatchResult> ready;
      std::size_t fold_cursor = 0;
      std::atomic<std::size_t> next_batch{0};
      const std::size_t window = 2 * workers;

      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t t = 0; t < workers; ++t) {
        pool.emplace_back([&] {
          BatchScratch scratch(n_);
          while (true) {
            const std::size_t b = next_batch.fetch_add(1);
            if (b >= num_batches) break;
            {
              std::unique_lock<std::mutex> lock(mu);
              space_available.wait(
                  lock, [&] { return b < fold_cursor + window; });
            }
            BatchResult r = ComputeBatch(b, kernel, scratch);
            {
              std::lock_guard<std::mutex> lock(mu);
              ready.emplace(b, std::move(r));
            }
            result_ready.notify_all();
          }
        });
      }
      for (std::size_t b = 0; b < num_batches; ++b) {
        BatchResult r;
        {
          std::unique_lock<std::mutex> lock(mu);
          result_ready.wait(lock, [&] { return ready.count(b) != 0; });
          r = std::move(ready.at(b));
          ready.erase(b);
          ++fold_cursor;
        }
        space_available.notify_all();
        fold(std::move(r));
      }
      for (std::thread& thread : pool) thread.join();
    }

    FinishSourceAverages(weighted_results, weighted_epl, weighted_reach,
                         total_weight);
    if (options.metrics != nullptr) {
      options.metrics->GetCounter("eval.sources").Increment(n_);
      options.metrics->GetCounter("eval.bfs.batches").Increment(num_batches);
      options.metrics->GetCounter("eval.bfs.levels").Increment(levels_total);
      options.metrics->GetCounter("eval.bfs.frontier_entries")
          .Increment(frontier_total);
      options.metrics->GetCounter("eval.bfs.edge_visits")
          .Increment(edge_visits_total);
      options.metrics->GetCounter("eval.reached").Increment(reached_total);
      options.metrics->GetCounter("eval.accumulate.neighbor_visits")
          .Increment(neighbor_visits_total);
      options.metrics->GetGauge("eval.scratch.bytes")
          .SetMax(static_cast<double>(scratch_bytes_max));
      options.metrics->GetTimer("eval.bfs.expand").Record(expand_seconds);
      options.metrics->GetTimer("eval.accumulate").Record(accumulate_seconds);
    }
  }

  // --- Complete ("strongly connected") query evaluation -------------------
  // Every non-source cluster sits at depth 1, so all per-source floods
  // collapse into totals over clusters: O(n) overall.
  void EvaluateQueriesComplete() {
    double sum_rate = 0.0;  // total queries/sec
    double sum_p = 0.0, sum_n = 0.0, sum_k = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      sum_rate += query_rate_of_cluster_[i];
      sum_p += inst_.response_prob[i];
      sum_n += inst_.expected_results[i];
      sum_k += inst_.expected_addrs[i];
    }
    const auto nd = static_cast<double>(n_);
    const bool forwards_duplicates = config_.ttl >= 2 && n_ >= 3;

    double weighted_results = 0.0;
    double weighted_epl = 0.0;
    double weighted_reach = 0.0;

    for (std::size_t v = 0; v < n_; ++v) {
      RawLoad& pool = cluster_pool_[v];
      const double w_own = query_rate_of_cluster_[v];
      const double w_other = sum_rate - w_own;
      const double mux = costs_.MultiplexUnits(conn_[v]);

      // As source: flood to all n-1 neighbors and process own query.
      pool.out_bytes += w_own * (nd - 1.0) * qbytes_;
      pool.units += w_own * (nd - 1.0) * (sendq_ + mux);
      pool.units += w_own * costs_.ProcessQueryUnits(inst_.expected_results[v]);
      // As source: responses arrive directly from every other cluster.
      {
        const double msgs = sum_p - inst_.response_prob[v];
        const double res = sum_n - inst_.expected_results[v];
        const double addr = sum_k - inst_.expected_addrs[v];
        pool.in_bytes += w_own * ResponseBytes(msgs, res, addr);
        pool.units += w_own * RecvResponseUnits(msgs, res, addr, conn_[v]);
      }
      // As responder for every foreign query: one fresh reception,
      // processing, and a direct response back to the source.
      pool.in_bytes += w_other * qbytes_;
      pool.units += w_other * (recvq_ + mux);
      pool.units +=
          w_other * costs_.ProcessQueryUnits(inst_.expected_results[v]);
      pool.out_bytes += w_other * ResponseBytes(inst_.response_prob[v],
                                                inst_.expected_results[v],
                                                inst_.expected_addrs[v]);
      pool.units += w_other * SendResponseUnits(inst_.response_prob[v],
                                                inst_.expected_results[v],
                                                inst_.expected_addrs[v],
                                                conn_[v]);
      // TTL >= 2: depth-1 clusters forward to everyone but the source,
      // producing n-2 redundant transmissions and receptions each.
      if (forwards_duplicates) {
        const double dup = nd - 2.0;
        pool.out_bytes += w_other * dup * qbytes_;
        pool.units += w_other * dup * (sendq_ + mux);
        pool.in_bytes += w_other * dup * qbytes_;
        pool.units += w_other * dup * (recvq_ + mux);
      }

      ApplyIntraClusterQueryTraffic(v, sum_p, sum_n, sum_k, pool);

      out_.results_per_query[v] = sum_n;
      out_.epl_per_source[v] = n_ > 1 ? 1.0 : 0.0;
      out_.reach_per_source[v] = nd;
      weighted_results += w_own * sum_n;
      weighted_epl += w_own * out_.epl_per_source[v];
      weighted_reach += w_own * nd;
    }
    if (forwards_duplicates) {
      out_.duplicate_msgs_per_sec = sum_rate * (nd - 1.0) * (nd - 2.0);
    }
    FinishSourceAverages(weighted_results, weighted_epl, weighted_reach,
                         sum_rate);
  }

  void FinishSourceAverages(double weighted_results, double weighted_epl,
                            double weighted_reach, double total_weight) {
    if (total_weight > 0.0) {
      out_.mean_results = weighted_results / total_weight;
      out_.mean_epl = weighted_epl / total_weight;
      out_.mean_reach = weighted_reach / total_weight;
    }
  }

  // --- Joins and updates (topology-independent) ----------------------------
  void EvaluateJoinsAndUpdates() {
    const auto kd = static_cast<double>(k_);
    const double upd_rate = config_.update_rate;
    const double client_mux = costs_.MultiplexUnits(client_conn_);

    for (std::size_t i = 0; i < n_; ++i) {
      const double sp_mux = costs_.MultiplexUnits(conn_[i]);

      // Client joins and updates: a client sends its Join metadata and
      // Update messages to every partner (aggregate join cost is k times
      // greater with redundancy, Section 3.2); each partner receives and
      // indexes the full payload.
      for (std::size_t c = inst_.client_offset[i];
           c < inst_.client_offset[i + 1]; ++c) {
        const auto files = static_cast<double>(inst_.client_files[c]);
        const double join_rate = 1.0 / inst_.client_lifespan[c];
        const double join_bytes = costs_.JoinBytes(files);

        client_raw_[c].out_bytes += join_rate * kd * join_bytes;
        client_raw_[c].units +=
            join_rate * kd * (costs_.SendJoinUnits(files) + client_mux);
        client_raw_[c].out_bytes += upd_rate * kd * costs_.UpdateBytes();
        client_raw_[c].units +=
            upd_rate * kd * (costs_.send_update_units + client_mux);

        for (int p = 0; p < k_; ++p) {
          RawLoad& partner = partner_raw_[i * static_cast<std::size_t>(k_) +
                                          static_cast<std::size_t>(p)];
          partner.in_bytes += join_rate * join_bytes;
          partner.units += join_rate * (costs_.RecvJoinUnits(files) +
                                        costs_.ProcessJoinUnits(files) +
                                        sp_mux);
          partner.in_bytes += upd_rate * costs_.UpdateBytes();
          partner.units += upd_rate * (costs_.recv_update_units +
                                       costs_.process_update_units + sp_mux);
        }
      }

      // Partner churn: a (re)joining partner indexes its own collection
      // locally and, with 2-redundancy, mirrors it to the other partner.
      // (Client re-joins triggered by super-peer failure are a dynamic
      // effect; the discrete-event simulator captures them, the static
      // mean-value model follows the paper and does not.)
      for (int p = 0; p < k_; ++p) {
        const std::size_t slot =
            i * static_cast<std::size_t>(k_) + static_cast<std::size_t>(p);
        RawLoad& self = partner_raw_[slot];
        const auto files = static_cast<double>(inst_.partner_files[slot]);
        const double join_rate = 1.0 / inst_.partner_lifespan[slot];

        self.units += join_rate * costs_.ProcessJoinUnits(files);
        self.units += upd_rate * costs_.process_update_units;
        // Mirror own metadata to every co-partner (k-redundancy: each
        // partner holds the other partners' data too).
        for (int q = 0; q < k_; ++q) {
          if (q == p) continue;
          RawLoad& other = partner_raw_[i * static_cast<std::size_t>(k_) +
                                        static_cast<std::size_t>(q)];
          const double join_bytes = costs_.JoinBytes(files);
          self.out_bytes += join_rate * join_bytes;
          self.units += join_rate * (costs_.SendJoinUnits(files) + sp_mux);
          other.in_bytes += join_rate * join_bytes;
          other.units += join_rate * (costs_.RecvJoinUnits(files) +
                                      costs_.ProcessJoinUnits(files) + sp_mux);
          self.out_bytes += upd_rate * costs_.UpdateBytes();
          self.units += upd_rate * (costs_.send_update_units + sp_mux);
          other.in_bytes += upd_rate * costs_.UpdateBytes();
          other.units += upd_rate * (costs_.recv_update_units +
                                     costs_.process_update_units + sp_mux);
        }
      }
    }
  }

  // --- Final conversion ----------------------------------------------------
  LoadVector Convert(const RawLoad& raw) const {
    LoadVector lv;
    lv.in_bps = BytesPerSecToBps(raw.in_bytes);
    lv.out_bps = BytesPerSecToBps(raw.out_bytes);
    lv.proc_hz = costs_.UnitsToHz(raw.units);
    return lv;
  }

  InstanceLoads Finalize() {
    const double inv_k = 1.0 / static_cast<double>(k_);
    out_.partner_load.resize(inst_.TotalPartners());
    for (std::size_t i = 0; i < n_; ++i) {
      // Query-phase traffic is spread across partners round-robin; joins
      // and updates hit each partner in full.
      const LoadVector shared = Convert(cluster_pool_[i]) * inv_k;
      for (int p = 0; p < k_; ++p) {
        const std::size_t slot =
            i * static_cast<std::size_t>(k_) + static_cast<std::size_t>(p);
        out_.partner_load[slot] = shared + Convert(partner_raw_[slot]);
      }
    }
    out_.client_load.resize(inst_.TotalClients());
    for (std::size_t c = 0; c < client_raw_.size(); ++c) {
      out_.client_load[c] = Convert(client_raw_[c]);
    }
    out_.aggregate = LoadVector{};
    for (const auto& l : out_.partner_load) out_.aggregate += l;
    for (const auto& l : out_.client_load) out_.aggregate += l;
    return std::move(out_);
  }

  const NetworkInstance& inst_;
  const Configuration& config_;
  const CostTable& costs_;
  const std::size_t n_;
  const int k_;
  const double qlen_;
  const double qbytes_;
  const double sendq_;
  const double recvq_;

  std::vector<RawLoad> cluster_pool_;   // Query traffic, shared per cluster.
  std::vector<RawLoad> partner_raw_;    // Join/update traffic, per partner.
  std::vector<RawLoad> client_raw_;
  std::vector<double> conn_;            // Open connections per partner.
  std::vector<double> users_;
  std::vector<double> query_rate_of_cluster_;
  std::vector<double> submit_rate_;     // Client-originated queries/sec.
  double client_conn_ = 1.0;

  InstanceLoads out_;
};

}  // namespace

InstanceLoads EvaluateInstance(const NetworkInstance& instance,
                               const Configuration& config,
                               const ModelInputs& inputs) {
  return EvaluateInstance(instance, config, inputs, EvalOptions{});
}

InstanceLoads EvaluateInstance(const NetworkInstance& instance,
                               const Configuration& config,
                               const ModelInputs& inputs,
                               const EvalOptions& options) {
  SPPNET_CHECK(instance.NumClusters() >= 1);
  Evaluator evaluator(instance, config, inputs);
  return evaluator.Run(options);
}

}  // namespace sppnet
