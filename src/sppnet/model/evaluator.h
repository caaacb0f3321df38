#ifndef SPPNET_MODEL_EVALUATOR_H_
#define SPPNET_MODEL_EVALUATOR_H_

#include <cstddef>

#include "sppnet/model/config.h"
#include "sppnet/model/instance.h"
#include "sppnet/model/load.h"

namespace sppnet {

class MetricsRegistry;

/// Which BFS kernel drives the query-flood evaluation. Both kernels
/// produce bit-identical per-level flood structures (integers and
/// source-bit words), and every floating-point accumulation downstream
/// of the kernel is shared code — so the two engines yield bit-identical
/// InstanceLoads on every input, which tests/model/eval_identity_test.cc
/// enforces. kBatched is the production engine; kScalarReference exists
/// to pin it down and to serve as the baseline in bench/scale_sweep.
enum class EvalEngine {
  kBatched,          ///< Bit-parallel 64-source batched BFS kernel.
  kScalarReference,  ///< One scalar queue BFS per source, same pipeline.
};

/// Options for EvaluateInstance. Defaults reproduce the plain
/// three-argument overload: batched engine, no in-trial parallelism.
struct EvalOptions {
  EvalEngine engine = EvalEngine::kBatched;

  /// Worker threads sharding the 64-source batches. Per-batch results
  /// are folded in batch order on the calling thread (the same
  /// bit-reproducibility contract as model/trials.cc), so every value
  /// of `parallelism` yields bit-identical loads.
  std::size_t parallelism = 1;

  /// Optional sink for eval.bfs.* and eval.accumulate.* counters,
  /// gauges and phase timers.
  /// Counters and gauges are deterministic (bit-identical across engines
  /// is NOT required of them — they describe kernel work — but they are
  /// identical across parallelism); timers are wall-clock, report-only.
  /// Not owned; may be null. Folded from one thread.
  MetricsRegistry* metrics = nullptr;
};

/// Evaluates the expected load of every node in a generated instance
/// (Steps 2-3 of the paper's analysis, Section 4.1).
///
/// Query costs: one breadth-first flood per source cluster determines
/// which clusters see the query, the per-cluster query transmissions and
/// receptions (including duplicates that are received and dropped), and
/// the predecessor tree along which Response messages travel back to the
/// source. Expected response-message counts, result counts and address
/// counts are accumulated up the predecessor tree in reverse BFS order,
/// which yields every node's exact expected forwarding load in
/// O(nodes + edges) per source. Floods run 64 sources at a time over the
/// batched BFS kernel (topology/bfs.h), each batch a consecutive slice
/// of BfsSourceOrder so that its sources are close in the graph and
/// their frontiers overlap; the predecessor tree is the
/// canonical one (parent = minimum-id neighbor one level closer to the
/// source). Complete ("strongly connected") topologies are evaluated by
/// closed form in O(nodes) total, exploiting the symmetry that every
/// non-source cluster sits at depth 1.
///
/// Join and update costs follow the client <-> super-peer interaction of
/// Section 3.2; with 2-redundancy every client message is sent to both
/// partners and partners mirror each other's metadata.
///
/// All per-message processing costs include the packet-multiplex
/// overhead of Appendix A (.01 units per open connection per message).
InstanceLoads EvaluateInstance(const NetworkInstance& instance,
                               const Configuration& config,
                               const ModelInputs& inputs);

/// As above with explicit engine/parallelism/metrics options.
InstanceLoads EvaluateInstance(const NetworkInstance& instance,
                               const Configuration& config,
                               const ModelInputs& inputs,
                               const EvalOptions& options);

}  // namespace sppnet

#endif  // SPPNET_MODEL_EVALUATOR_H_
