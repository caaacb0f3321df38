#ifndef SPPNET_SIM_SHARDED_SIM_H_
#define SPPNET_SIM_SHARDED_SIM_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sppnet {

/// In-trial sharding plan for the discrete-event simulator (DESIGN.md
/// §12). A sharded run partitions the network by cluster across
/// `num_shards` conservatively synchronized event loops and executes
/// them on `num_threads` worker threads, advancing in lockstep
/// time-windows of one lookahead (the hop latency — the minimum
/// cross-shard message delay). Results are bit-identical across every
/// (num_shards, num_threads) choice, including (1, 1): the discipline
/// derives every event key and every random draw from message content
/// and per-domain streams, never from global execution order.
///
/// The default (num_shards == 0) selects the legacy single-loop
/// engine, whose semantics and goldens are untouched; a sharded run is
/// a deliberately distinct discipline with its own pinned goldens
/// (tests/sim/sharded_equivalence_test.cc).
struct ShardPlan {
  /// 0 = legacy single-loop engine. >= 1 enables the sharded
  /// discipline with this many shards (1 is the sequential reference
  /// every other configuration is held bit-identical to).
  std::size_t num_shards = 0;
  /// Worker threads draining shards (shard s runs on thread s %
  /// num_threads). Clamped to num_shards; 1 runs inline.
  std::size_t num_threads = 1;

  /// Per-domain stream salts (Rng::Salted(seed, salt | domain)) and
  /// the control-stream salt, in the (tag << 32) space no other layer
  /// uses (audited in sim/plan.cc).
  static constexpr std::uint64_t kProtoStreamSalt = std::uint64_t{1} << 32;
  static constexpr std::uint64_t kFaultStreamSalt = std::uint64_t{2} << 32;
  static constexpr std::uint64_t kCtlStreamSalt = std::uint64_t{3} << 32;

  bool enabled() const { return num_shards > 0; }

  /// Aborts (SPPNET_CHECK) when enabled with num_threads == 0.
  /// Feature-compatibility constraints (no routing, consistency or
  /// capacity layer) live in the sim/plan.h conflict matrix; the
  /// positive-lookahead requirement stays in SimOptions::Validate,
  /// which sees the whole option set.
  void Validate() const;
};

/// Content-derived event keys for the sharded discipline. The (time,
/// key) pair totally orders every event of a run; the key packs
///
///   bit 63        class: 0 = control (barrier-executed), 1 = data
///   bits 62..38   emitting domain (cluster), or kShardCtlDomain
///   bits 37..0    per-domain emission counter
///
/// so control events sort before data events at equal times (they
/// execute at window barriers, data at exactly a grid time executes in
/// the following window) and two events never tie: the (class, domain,
/// counter) triple is unique and each domain's counter advances in a
/// fixed order regardless of shard or thread count.
inline constexpr std::uint32_t kShardCtlDomain = (1u << 25) - 1;

inline constexpr std::uint64_t MakeShardEventKey(bool data,
                                                 std::uint32_t domain,
                                                 std::uint64_t counter) {
  return (static_cast<std::uint64_t>(data) << 63) |
         (static_cast<std::uint64_t>(domain) << 38) |
         (counter & ((std::uint64_t{1} << 38) - 1));
}

/// Smallest multiple of `width` that is >= `time`, computed by
/// multiplication (never by accumulating additions) so every engine
/// configuration lands on bit-identical grid points. `width` > 0.
inline double GridCeil(double time, double width) {
  auto m = static_cast<std::uint64_t>(time / width);
  while (static_cast<double>(m) * width < time) ++m;
  return static_cast<double>(m) * width;
}

/// Persistent worker pool executing one callback per shard with a full
/// barrier per invocation — the parallel section of the sharded main
/// loop. Thread w owns shards w, w + T, w + 2T, ...: the assignment is
/// static, so any per-shard state a callback touches is only ever
/// touched from one thread. With num_threads == 1 (or num_shards == 1)
/// no threads are spawned and RunOnShards executes inline, making the
/// sequential reference configuration exactly "the same code, no
/// pool". Determinism never depends on the pool: callbacks share no
/// mutable state across shards by construction (checked by TSan in
/// CI), so the pool only provides wall-clock overlap.
class ShardPool {
 public:
  ShardPool(std::size_t num_shards, std::size_t num_threads);
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;
  ~ShardPool();

  /// Invokes fn(shard) for every shard and returns when all are done.
  void RunOnShards(const std::function<void(std::size_t)>& fn);

  std::size_t num_shards() const { return num_shards_; }
  std::size_t num_threads() const { return num_threads_; }

 private:
  void WorkerLoop(std::size_t worker);

  const std::size_t num_shards_;
  const std::size_t num_threads_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* fn_ = nullptr;  // Guarded by mu_.
  std::uint64_t generation_ = 0;                          // Guarded by mu_.
  std::size_t pending_workers_ = 0;                       // Guarded by mu_.
  bool shutdown_ = false;                                 // Guarded by mu_.
  std::vector<std::thread> workers_;
};

}  // namespace sppnet

#endif  // SPPNET_SIM_SHARDED_SIM_H_
