// Generated worlds, campaigns, live deltas and kernel probes, each timed
// around the public call it makes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "trace.hpp"

namespace perfbench {

namespace serve = intertubes::serve;
namespace sim = intertubes::sim;

struct GeneratedWorld {
  /// Snapshot of the strictly parsed map, published at epoch 1.
  std::shared_ptr<const serve::Snapshot> snapshot;
  double seconds = 0.0;        ///< generate + serialize + strict parse + snapshot
  double build_seconds = 0.0;  ///< generate + snapshot + publish: seed to published snapshot
};

/// Generate a world at `scale`, serialize it, parse it back strictly and
/// build a snapshot over the parsed map (spans worldgen.generate,
/// core.serialize_world, core.parse, serve.snapshot_build under
/// world.build).  Checks that the parse re-serializes byte-identically;
/// `error` gets the first failure.
GeneratedWorld build_world(double scale, std::uint64_t world_seed, sim::Executor& executor,
                           Tracer& tracer, std::string& error);

struct CampaignSizes {
  std::size_t cascade_trials = 0;
  std::size_t percolation_trials = 0;
  std::size_t sim_trials = 0;
  std::size_t batch_sources = 0;  ///< sources of the route_forest / distance_rows probes
};

/// Work and wall time of one slice's campaigns: the campaign rates are
/// work / time.
struct CampaignTotals {
  double cascade_s = 0.0, dissect_s = 0.0, sim_s = 0.0;
  double cascade_trials = 0.0, pairs = 0.0, sim_trials = 0.0;
};

/// Cascade campaign, percolation sweep, route_forest and distance_rows
/// probes, dissect sweep and sim campaign over `snapshot`, on `executor`.
/// Returns the number of operations attempted; `error` gets the first
/// failed check.
std::size_t run_campaigns(const serve::Snapshot& snapshot, const CampaignSizes& sizes,
                          std::uint64_t seed, sim::Executor& executor, Tracer& tracer,
                          CampaignTotals& totals, std::string& error);

/// Called after each publish with the engine that reads the live store.
using ReadFn = std::function<void(serve::Engine&, std::shared_ptr<const serve::Snapshot>)>;

/// Four live DeltaBatches over `base` — cut two corridors, repair them
/// (the map must then serialize byte-identically to the base), add a
/// conduit plus a tenant, cut one corridor — each applied through a
/// LiveMap, published to a SnapshotStore that an engine reads from, and
/// the engine's stale cache entries purged.  Appends each batch's
/// apply → publish → purge time in ms to `publish_ms`.  Returns the
/// number of batches.
std::size_t run_deltas(const std::shared_ptr<const serve::Snapshot>& base, std::uint64_t seed,
                       sim::Executor& executor, Tracer& tracer, std::vector<double>& publish_ms,
                       const ReadFn& reads, std::string& error);

/// Kernel probes on `snapshot`: serve::canonical_key over `requests`,
/// the Executor::post round trip, fast_what_if_cut, fast_hamming_neighbors
/// and PathEngine::shortest_path, kProbeIters calls each under one span.
inline constexpr std::size_t kProbeIters = 256;
void kernel_probes(const serve::Snapshot& snapshot, const std::vector<serve::Request>& requests,
                   std::uint64_t seed, sim::Executor& executor, Tracer& tracer);

}  // namespace perfbench
