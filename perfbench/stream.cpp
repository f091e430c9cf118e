#include "stream.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

#include "paper.hpp"

namespace perfbench {

namespace it = intertubes;

const char* const kTypeNames[kTypes] = {"shared_risk", "top_conduits", "what_if_cut", "city_path",
                                        "hamming",     "dissection",   "audit",       "cascade"};

namespace {

void hex(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a;", v);
  out += buf;
}

void num(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += ';';
}

void cuts_key(std::string& out, std::vector<it::core::ConduitId> cuts) {
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (const auto c : cuts) num(out, c);
}

void pair_dissection(std::string& out, const it::dissect::PairDissection& p) {
  num(out, p.a);
  num(out, p.b);
  for (double v : {p.clat_ms, p.los_ms, p.row_ms, p.fiber_ms, p.refraction_ms,
                   p.row_inflation_ms, p.detour_ms, p.stretch, p.achievable_ms}) {
    hex(out, v);
  }
  num(out, p.fiber_reachable);
  num(out, p.row_reachable);
}

}  // namespace

std::string exact_key(const serve::Request& request) {
  std::string out = std::to_string(request.index()) + ":";
  std::visit(
      [&out](const auto& q) {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, serve::SharedRiskQuery>) {
          out += q.isp;
        } else if constexpr (std::is_same_v<T, serve::TopConduitsQuery>) {
          num(out, q.k);
        } else if constexpr (std::is_same_v<T, serve::WhatIfCutQuery>) {
          cuts_key(out, q.cuts);
        } else if constexpr (std::is_same_v<T, serve::CityPathQuery> ||
                             std::is_same_v<T, serve::LatencyDissectionQuery>) {
          out += q.from + "|" + q.to;
        } else if constexpr (std::is_same_v<T, serve::HammingNeighborsQuery>) {
          out += q.isp + "|";
          num(out, q.k);
        } else if constexpr (std::is_same_v<T, serve::CLatencyAuditQuery>) {
          num(out, q.top_k);
          hex(out, q.target_factor);
        } else if constexpr (std::is_same_v<T, serve::WhatIfCascadeQuery>) {
          cuts_key(out, q.cuts);
          hex(out, q.capacity_margin);
          num(out, q.max_rounds);
        } else {
          hex(out, q.ms);
        }
      },
      request);
  return out;
}

std::string describe(const serve::Response& response) {
  std::string out = serve::status_name(response.status);
  out += "|" + response.error + "|";
  std::visit(
      [&out](const auto& b) {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, serve::SharedRiskResult>) {
          out += b.isp + ";";
          num(out, b.conduits_used);
          for (double v : {b.mean_sharing, b.standard_error, b.p25, b.p75}) hex(out, v);
        } else if constexpr (std::is_same_v<T, serve::TopConduitsResult>) {
          for (const auto& r : b.rows) {
            num(out, r.conduit);
            out += r.a + ";" + r.b + ";";
            num(out, r.tenants);
            num(out, r.validated);
          }
        } else if constexpr (std::is_same_v<T, serve::WhatIfCutResult>) {
          num(out, b.conduits_cut);
          num(out, b.links_severed);
          num(out, b.isps_hit);
          hex(out, b.connected_fraction_before);
          hex(out, b.connected_fraction_after);
          num(out, b.components_after);
        } else if constexpr (std::is_same_v<T, serve::CityPathResult>) {
          num(out, b.reachable);
          for (const auto& h : b.hops) {
            out += h.a + ";" + h.b + ";";
            hex(out, h.km);
          }
          hex(out, b.km);
          hex(out, b.delay_ms);
        } else if constexpr (std::is_same_v<T, serve::HammingNeighborsResult>) {
          out += b.isp + ";";
          for (const auto& n : b.neighbors) {
            out += n.isp + ";";
            num(out, n.distance);
          }
        } else if constexpr (std::is_same_v<T, serve::LatencyDissectionResult>) {
          out += b.from + ";" + b.to + ";";
          pair_dissection(out, b.dissection);
        } else if constexpr (std::is_same_v<T, serve::CLatencyAuditResult>) {
          num(out, b.cities);
          num(out, b.pairs);
          num(out, b.fiber_unreachable);
          hex(out, b.median_stretch);
          hex(out, b.p95_stretch);
          num(out, b.within_target);
          hex(out, b.total_achievable_ms);
          for (const auto& r : b.top) {
            out += r.a + ";" + r.b + ";";
            for (double v : {r.clat_ms, r.achievable_ms, r.stretch}) hex(out, v);
          }
        } else if constexpr (std::is_same_v<T, serve::WhatIfCascadeResult>) {
          num(out, b.conduits_cut);
          num(out, b.rounds);
          num(out, b.converged);
          for (const auto c : b.overload_failures) num(out, c);
          out += "|";
          num(out, b.conduits_dead);
          for (double v : {b.giant_component, b.l3_edges_dead, b.l3_reachability,
                           b.demand_delivered, b.mean_stretch}) {
            hex(out, v);
          }
          num(out, b.links_undeliverable);
          num(out, b.isps_hit);
        }
      },
      response.body);
  return out;
}

// --- RequestGen -------------------------------------------------------

RequestGen::RequestGen(const serve::Snapshot& snapshot, std::uint64_t seed)
    : rng_(seed), conduits_(snapshot.map().conduits().size()) {
  for (const auto& p : snapshot.truth().profiles()) isps_.push_back(p.name);
  for (const auto c : snapshot.map().nodes()) {
    cities_.push_back(snapshot.cities().city(c).display_name());
  }
}

std::vector<it::core::ConduitId> RequestGen::draw_cuts(std::size_t max_cuts) {
  std::vector<it::core::ConduitId> cuts(1 + rng_.below(max_cuts));
  for (auto& c : cuts) c = static_cast<it::core::ConduitId>(rng_.below(conduits_));
  return cuts;
}

std::pair<std::string, std::string> RequestGen::draw_pair() {
  const std::size_t a = rng_.below(cities_.size());
  std::size_t b = rng_.below(cities_.size() - 1);
  if (b >= a) ++b;
  return {cities_[a], cities_[b]};
}

serve::Request RequestGen::make(std::size_t type) {
  switch (type) {
    case 0: return serve::SharedRiskQuery{isps_[rng_.below(isps_.size())]};
    case 1: return serve::TopConduitsQuery{1 + rng_.below(20)};
    case 2: return serve::WhatIfCutQuery{draw_cuts(3)};
    case 3: {
      auto [a, b] = draw_pair();
      return serve::CityPathQuery{a, b};
    }
    case 4: return serve::HammingNeighborsQuery{isps_[rng_.below(isps_.size())], 1 + rng_.below(8)};
    case 5: {
      auto [a, b] = draw_pair();
      return serve::LatencyDissectionQuery{a, b};
    }
    case 6: return serve::CLatencyAuditQuery{1 + rng_.below(20), 1.5 + 0.25 * static_cast<double>(rng_.below(8))};
    default: return serve::WhatIfCascadeQuery{draw_cuts(2), 0.25, 8};
  }
}

serve::Request RequestGen::make_unique(std::size_t type, bool widen) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    serve::Request r = make(type);
    if (widen) {
      // A counter-derived parameter for the types whose drawn parameters
      // repeat soon; every value of it renders to its own canonical key.
      const std::size_t n = ++unique_counter_;
      if (auto* top = std::get_if<serve::TopConduitsQuery>(&r)) {
        top->k = 20 + n;
      } else if (auto* ham = std::get_if<serve::HammingNeighborsQuery>(&r)) {
        ham->k = 8 + n;
      } else if (auto* audit = std::get_if<serve::CLatencyAuditQuery>(&r)) {
        audit->target_factor = 3.5 + 0.001 * static_cast<double>(n);
      }
    }
    if (seen_.insert(serve::canonical_key(r)).second) return r;
  }
  throw std::runtime_error(std::string("no unused ") + kTypeNames[type] + " request left");
}

// --- client loop --------------------------------------------------------

void serve_batch(serve::Engine& engine, const std::vector<serve::Request>& batch,
                 std::vector<serve::Response>& responses, ServeSamples& samples,
                 Tracer& tracer) {
  static std::uint32_t next_request_id = 1;
  std::uint32_t names[2][kTypes] = {};
  if (tracer.on()) {
    for (std::size_t t = 0; t < kTypes; ++t) {
      names[0][t] = tracer.intern(std::string("serve.request.miss.") + kTypeNames[t]);
      names[1][t] = tracer.intern(std::string("serve.request.hit.") + kTypeNames[t]);
    }
  }
  responses.clear();
  responses.reserve(batch.size());
  double total_ns = 0.0;
  for (const auto& request : batch) {
    serve::Request copy = request;
    const std::int64_t start = now_ns();
    responses.push_back(engine.submit(std::move(copy)).get());
    const std::int64_t stop = now_ns();
    const auto& r = responses.back();
    const double us = static_cast<double>(stop - start) * 1e-3;
    total_ns += static_cast<double>(stop - start);
    (r.cache_hit ? samples.hit_us : samples.miss_us[request.index()])
        .push_back(static_cast<float>(us));
    tracer.record(names[r.cache_hit ? 1 : 0][request.index()], next_request_id++, start, stop);
  }
  samples.requests += batch.size();
  samples.seconds += total_ns * 1e-9;
}

// --- Checker ----------------------------------------------------------

Checker::Checker(std::shared_ptr<const serve::Snapshot> snapshot)
    : snapshot_(std::move(snapshot)), inline_(1) {
  store_.install(snapshot_);
  engine_ = std::make_unique<serve::Engine>(store_, inline_);
  graph_ = conduit_graph(snapshot_->map(), snapshot_->cities().size());
}

const std::string& Checker::fresh(const serve::Request& request, bool keep) {
  const std::string key = keep ? exact_key(request) : std::string();
  if (keep) {
    const auto found = kept_.find(key);
    if (found != kept_.end()) return found->second;
  }
  engine_->clear_cache();
  const serve::Response r = engine_->serve(request);
  std::string d = describe(r);
  // The independent checks run once per fresh answer; a served response
  // must then equal it byte for byte.
  if (const auto* path = std::get_if<serve::CityPathQuery>(&request)) {
    const auto& body = std::get<serve::CityPathResult>(r.body);
    const auto& cities = snapshot_->cities();
    const double want = dijkstra_km(graph_, *cities.find(path->from))[*cities.find(path->to)];
    const bool ok = std::isinf(want) ? !body.reachable
                                     : body.reachable &&
                                           std::abs(body.km - want) <= 1e-9 * std::max(1.0, want);
    if (!ok) d = "city path km " + std::to_string(body.km) + " != dijkstra " + std::to_string(want);
  } else if (const auto* cut = std::get_if<serve::WhatIfCutQuery>(&request)) {
    const auto& body = std::get<serve::WhatIfCutResult>(r.body);
    const std::size_t want = links_riding(snapshot_->map(), cut->cuts);
    if (body.links_severed != want) {
      d = "links_severed " + std::to_string(body.links_severed) + " != counted " +
          std::to_string(want);
    }
  }
  if (keep) return kept_.emplace(key, std::move(d)).first->second;
  scratch_ = std::move(d);
  return scratch_;
}

std::string Checker::check(const serve::Request& request, const serve::Response& response,
                           bool keep) {
  if (response.status != serve::Status::Ok) {
    return std::string("status ") + serve::status_name(response.status) + ": " + response.error;
  }
  const std::string& want = fresh(request, keep);
  if (describe(response) == want) return {};
  return "response to " + exact_key(request) + " differs from a fresh engine's: " + want;
}

std::string Checker::check_audit(const serve::CLatencyAuditQuery& query,
                                 const serve::Response& response) const {
  if (response.status != serve::Status::Ok) {
    return std::string("status ") + serve::status_name(response.status) + ": " + response.error;
  }
  const auto& b = std::get<serve::CLatencyAuditResult>(response.body);
  const std::size_t n = snapshot_->map().nodes().size();
  bool ok = b.cities == n && b.pairs == n * (n - 1) / 2 &&
            b.within_target + b.fiber_unreachable <= b.pairs && b.top.size() <= query.top_k &&
            (b.fiber_unreachable == b.pairs || b.median_stretch >= 1.0);
  for (std::size_t i = 0; i < b.top.size(); ++i) {
    ok = ok && b.top[i].stretch >= 1.0 &&
         (i == 0 || b.top[i].achievable_ms <= b.top[i - 1].achievable_ms);
  }
  return ok ? std::string() : "audit over " + std::to_string(n) + " nodes fails its properties";
}

std::vector<serve::Request> Checker::near_twins() {
  std::vector<serve::Request> out;
  // Audit at the median pair stretch, nudged down and up by 1e-9: the
  // pair at the median is within target only for the upper one.
  const auto base = engine_->serve(serve::CLatencyAuditQuery{10, 2.0});
  const double m = std::get<serve::CLatencyAuditResult>(base.body).median_stretch;
  out.push_back(serve::CLatencyAuditQuery{10, m * (1.0 - 1e-9)});
  out.push_back(serve::CLatencyAuditQuery{10, m * (1.0 + 1e-9)});

  // Cascade: bisect the capacity margin of a one-conduit cut down to a
  // threshold where the outcome changes, then take the margins just
  // either side of it.
  const auto& order = snapshot_->soa().conduits_by_tenancy;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::vector<it::core::ConduitId> cuts{order[i]};
    auto outcome = [&](double margin) {
      engine_->clear_cache();
      return describe(engine_->serve(serve::WhatIfCascadeQuery{cuts, margin, 8}));
    };
    double lo = 0.0, hi = 1.0;
    const std::string at_lo = outcome(lo);
    if (outcome(hi) == at_lo) continue;
    for (int step = 0; step < 80 && hi - lo > 1e-12; ++step) {
      const double mid = 0.5 * (lo + hi);
      (outcome(mid) == at_lo ? lo : hi) = mid;
    }
    out.push_back(serve::WhatIfCascadeQuery{cuts, lo, 8});
    out.push_back(serve::WhatIfCascadeQuery{cuts, hi, 8});
    break;
  }
  engine_->clear_cache();
  return out;
}

}  // namespace perfbench
