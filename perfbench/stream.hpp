// Seeded serve request streams and the checks every served response must
// pass.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "paper.hpp"
#include "serve/engine.hpp"
#include "trace.hpp"

namespace perfbench {

namespace serve = intertubes::serve;

/// The eight cacheable request types, in serve::RequestType order.
inline constexpr std::size_t kTypes = 8;
extern const char* const kTypeNames[kTypes];

/// splitmix64: the benchmark's only random source, so a seed names the
/// same inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Full-precision identity of a request, written apart from
/// serve::canonical_key: equal strings mean equal requests.
std::string exact_key(const serve::Request& request);

/// Status and body of a response with every double in hex, for exact
/// comparison.  Cache flag, latency and epoch are left out.
std::string describe(const serve::Response& response);

/// Builds valid requests over one snapshot.  make() draws parameters from
/// the seed; make_unique() returns a request whose serve::canonical_key
/// the generator has not returned before, and with `widen` gives top-k,
/// Hamming and audit requests parameters beyond make()'s small ranges so
/// they never run out.  Shared-risk has one request per ISP, so it cannot
/// supply an unbounded number of distinct requests.
class RequestGen {
 public:
  RequestGen(const serve::Snapshot& snapshot, std::uint64_t seed);

  serve::Request make(std::size_t type);
  serve::Request make_unique(std::size_t type, bool widen);

 private:
  std::vector<intertubes::core::ConduitId> draw_cuts(std::size_t max_cuts);
  std::pair<std::string, std::string> draw_pair();

  Rng rng_;
  std::vector<std::string> isps_;
  std::vector<std::string> cities_;  ///< display names of map nodes
  std::size_t conduits_ = 0;
  std::size_t unique_counter_ = 0;
  std::unordered_set<std::string> seen_;
};

/// Client-side samples of one stream: what the end-to-end serve metrics
/// are computed from.
struct ServeSamples {
  std::vector<float> hit_us;
  std::vector<float> miss_us[kTypes];  ///< by request type
  std::uint64_t requests = 0;
  double seconds = 0.0;
};

/// Closed-loop client: submits each request after the previous response
/// arrived, timing submit → response.  Each request is recorded as a
/// serve.request.{hit,miss}.<type> span with its own request id.
void serve_batch(serve::Engine& engine, const std::vector<serve::Request>& batch,
                 std::vector<serve::Response>& responses, ServeSamples& samples,
                 Tracer& tracer);

/// Checks responses against a reference engine that has no cache (its
/// cache is cleared before every request), plus two checks computed here:
/// CityPath km against a Dijkstra over the map's conduits, and
/// WhatIfCut.links_severed against a count of the links riding the cut.
class Checker {
 public:
  explicit Checker(std::shared_ptr<const serve::Snapshot> snapshot);
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// The fresh answer to `request`, rendered by describe().  Answers to
  /// requests marked `keep` are remembered for the whole run.
  const std::string& fresh(const serve::Request& request, bool keep);

  /// Returns an empty string when `response` equals the fresh answer and
  /// passes the independent checks, else what is wrong.
  std::string check(const serve::Request& request, const serve::Response& response, bool keep);

  /// For audits whose fresh answer would cost a second all-pairs sweep:
  /// checks the properties every audit must have (pair count of the map's
  /// nodes, counts within bounds, stretch >= 1, ranking order) instead.
  std::string check_audit(const serve::CLatencyAuditQuery& query,
                          const serve::Response& response) const;

  /// Near-twin requests that serve::canonical_key renders alike while
  /// their fresh answers differ: {audit A, audit B, cascade A, cascade B}.
  /// Found from the snapshot alone, so they do not depend on the seed.
  /// Served A then B, B is answered from A's cache entry.
  std::vector<serve::Request> near_twins();

 private:
  std::shared_ptr<const serve::Snapshot> snapshot_;
  serve::SnapshotStore store_;
  intertubes::sim::Executor inline_;  ///< no workers: requests run in the caller
  std::unique_ptr<serve::Engine> engine_;
  std::unordered_map<std::string, std::string> kept_;
  std::string scratch_;
  ConduitGraph graph_;
};

}  // namespace perfbench
