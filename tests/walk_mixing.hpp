// Walk-endpoint mixing measurement for the agreement tests.
//
// The agreement protocol (agreement/majority.hpp) samples by random walks of
// Θ(log n) steps, which is only sound on graphs where such walks mix. This
// helper measures that directly: it teleports `samples` uniform walks of
// `length` steps from `start` and returns the total-variation distance of
// their endpoints from the stationary (degree-proportional) distribution.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace bzc {

inline double walkEndpointTvDistance(const Graph& g, NodeId start, std::uint32_t length,
                                     std::size_t samples, Rng& rng) {
  const NodeId n = g.numNodes();
  std::vector<double> counts(n, 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    NodeId cur = start;
    for (std::uint32_t step = 0; step < length; ++step) {
      const auto nbrs = g.neighbors(cur);
      if (nbrs.empty()) break;
      cur = nbrs[rng.uniform(nbrs.size())];
    }
    counts[cur] += 1.0;
  }
  double totalDegree = 0.0;
  for (NodeId u = 0; u < n; ++u) totalDegree += g.degree(u);
  double tv = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    const double empirical = counts[u] / static_cast<double>(samples);
    const double stationary = static_cast<double>(g.degree(u)) / totalDegree;
    tv += std::abs(empirical - stationary);
  }
  return tv / 2.0;
}

}  // namespace bzc
