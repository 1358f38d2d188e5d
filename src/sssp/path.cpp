#include "sssp/path.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace peek::sssp {

size_t PathHash::operator()(const Path& p) const {
  // FNV-1a over the vertex sequence.
  size_t h = 1469598103934665603ULL;
  for (vid_t v : p.verts) {
    h ^= static_cast<size_t>(v);
    h *= 1099511628211ULL;
  }
  return h;
}

Path path_from_parents(const SsspResult& sssp, vid_t s, vid_t t) {
  Path p;
  if (t < 0 || static_cast<size_t>(t) >= sssp.dist.size()) return p;
  if (sssp.dist[t] == kInfDist) return p;
  std::vector<vid_t> rev;
  for (vid_t v = t; v != kNoVertex; v = sssp.parent[v]) {
    rev.push_back(v);
    if (v == s) break;
    if (rev.size() > sssp.dist.size()) return {};  // defensive: cycle in parents
  }
  if (rev.back() != s) return {};
  p.verts.assign(rev.rbegin(), rev.rend());
  p.dist = sssp.dist[t];
  return p;
}

Path path_from_reverse_parents(const SsspResult& rev, vid_t v, vid_t t) {
  Path p;
  if (v < 0 || static_cast<size_t>(v) >= rev.dist.size()) return p;
  if (rev.dist[v] == kInfDist) return p;
  for (vid_t u = v; u != kNoVertex; u = rev.parent[u]) {
    p.verts.push_back(u);
    if (u == t) break;
    if (p.verts.size() > rev.dist.size()) return {};
  }
  if (p.verts.back() != t) return {};
  p.dist = rev.dist[v];
  return p;
}

Path concat(const Path& prefix, const Path& suffix) {
  Path p;
  if (prefix.empty() || suffix.empty()) return p;
  if (prefix.verts.back() != suffix.verts.front()) return p;
  p.verts = prefix.verts;
  p.verts.insert(p.verts.end(), suffix.verts.begin() + 1, suffix.verts.end());
  p.dist = prefix.dist + suffix.dist;
  return p;
}

bool is_simple(const Path& p) {
  std::unordered_set<vid_t> seen;
  seen.reserve(p.verts.size() * 2);
  for (vid_t v : p.verts) {
    if (!seen.insert(v).second) return false;
  }
  return true;
}

weight_t path_distance(const graph::CsrGraph& g, const std::vector<vid_t>& verts) {
  if (verts.empty()) return kInfDist;
  weight_t sum = 0;
  for (size_t i = 0; i + 1 < verts.size(); ++i) {
    const eid_t e = g.find_edge(verts[i], verts[i + 1]);
    if (e == kNoEdge) return kInfDist;
    sum += g.edge_weight(e);
  }
  return sum;
}

std::string to_string(const Path& p) {
  std::ostringstream os;
  for (size_t i = 0; i < p.verts.size(); ++i) {
    if (i) os << " -> ";
    os << p.verts[i];
  }
  os << " (" << p.dist << ")";
  return os.str();
}

}  // namespace peek::sssp
