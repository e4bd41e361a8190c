// The workload table and input generation. Every input is a pure function
// of (workload, --seed); the pipeline itself runs with its default seed.
#include <algorithm>
#include <cmath>

#include "data/generators.h"
#include "graph/edge_list.h"
#include "perfbench.h"
#include "util/random.h"
#include "util/timer.h"
#include "util/trace.h"

namespace perfbench {

using lightne::CompressedGraph;
using lightne::CsrGraph;
using lightne::EdgeList;
using lightne::HashCombine64;
using lightne::LightNeOptions;

namespace {

// Share of SBM edges drawn inside a community, as in the dataset
// registry's OAG-sim stand-in.
constexpr double kIntraFraction = 0.7;

std::vector<WorkloadSpec> MakeTable() {
  std::vector<WorkloadSpec> table;
  {
    // LightNE-Large (M = 20 T m) on the OAG stand-in: the sparsifier and
    // its hash table dominate; served with 16-vertex batches.
    WorkloadSpec w;
    w.name = "oag-large";
    w.kind = GraphKind::kSbm;
    w.sbm_vertices = 5000;
    w.communities = 16;
    w.sampled_edges = 50000;
    w.options.dim = 64;
    w.options.window = 10;
    w.options.samples_ratio = 20.0;
    w.batch = 16;
    w.quality_floor = 0.75;
    table.push_back(w);
  }
  {
    // LightNE-Small (M = 0.1 T m, d = 128): rSVD and propagation dominate;
    // served with single-vertex lookups.
    WorkloadSpec w;
    w.name = "oag-small";
    w.kind = GraphKind::kSbm;
    w.sbm_vertices = 25000;
    w.communities = 16;
    w.sampled_edges = 250000;
    w.options.dim = 128;
    w.options.window = 10;
    w.options.samples_ratio = 0.1;
    w.batch = 1;
    w.quality_floor = 0.5;
    table.push_back(w);
  }
  {
    // The paper's very-large recipe (§5.3): compressed graph, T = 2,
    // d = 32, no propagation, no power iteration, M = 10 T m, on a
    // power-law RMAT graph with 0.1% of its edges held out.
    WorkloadSpec w;
    w.name = "rmat-compressed";
    w.kind = GraphKind::kRmat;
    w.rmat_scale = 17;
    w.sampled_edges = 1400000;
    w.holdout_fraction = 0.001;
    w.compressed = true;
    w.options.dim = 32;
    w.options.window = 2;
    w.options.samples_ratio = 10.0;
    w.options.spectral_propagation = false;
    w.options.svd_power_iters = 0;
    w.batch = 1;
    w.quality_floor = 0.8;
    table.push_back(w);
  }
  return table;
}

const std::vector<WorkloadSpec>& Table() {
  static const std::vector<WorkloadSpec> table = MakeTable();
  return table;
}

// Uniform double in [0, 1) from a hash.
double HashUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Table()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Table()) names.push_back(w.name);
  return names;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, bool traced) {
  Inputs in;
  // The traced run records one span per setup step.
  std::optional<lightne::TraceSpan> span;
  const auto step = [&](const char* name) {
    span.reset();
    if (traced) span.emplace(name);
  };
  const uint64_t graph_seed = HashCombine64(seed, 0x6772617068ull);
  step("layer/data_generate");
  lightne::Timer timer;
  EdgeList list;
  if (spec.kind == GraphKind::kSbm) {
    list = lightne::GenerateSbm(spec.sbm_vertices, spec.communities,
                                spec.sampled_edges, kIntraFraction, graph_seed,
                                &in.community);
  } else {
    list = lightne::GenerateRmat(spec.rmat_scale, spec.sampled_edges,
                                 graph_seed);
  }
  in.generate_s = timer.Seconds();

  step("layer/graph_build");
  timer.Restart();
  lightne::SymmetrizeAndClean(&list);
  if (spec.holdout_fraction > 0) {
    // Hold out each undirected edge independently with the given
    // probability, keyed by a hash of (seed, edge), and drop both of its
    // directions from the embedded graph. The list stays sorted and clean.
    const uint64_t split_seed = HashCombine64(seed, 0x686f6c64ull);
    auto held = [&](NodeId u, NodeId v) {
      const NodeId a = std::min(u, v), b = std::max(u, v);
      return HashUnit(HashCombine64(split_seed, lightne::PackEdge(a, b))) <
             spec.holdout_fraction;
    };
    for (const auto& [u, v] : list.edges) {
      if (u < v && held(u, v)) in.held_out.emplace_back(u, v);
    }
    std::erase_if(list.edges,
                  [&](const std::pair<NodeId, NodeId>& e) {
                    return held(e.first, e.second);
                  });
  }
  in.csr = CsrGraph::FromCleanEdgeList(list);
  in.build_s = timer.Seconds();

  if (spec.compressed) {
    step("layer/graph_compress");
    timer.Restart();
    in.compressed = CompressedGraph::FromCsr(in.csr);
    in.compress_s = timer.Seconds();
  }
  span.reset();
  return in;
}

uint64_t NumSamples(const CsrGraph& g, const LightNeOptions& opt) {
  // Same expression, in the same order, as RunLightNe's stage 1.
  const double m = static_cast<double>(g.NumDirectedEdges()) / 2.0;
  return opt.num_samples > 0
             ? opt.num_samples
             : static_cast<uint64_t>(opt.samples_ratio * opt.window * m);
}

RequestStream::RequestStream(uint64_t seed, NodeId num_vertices,
                             uint64_t batch)
    : state_(HashCombine64(seed, 0x7175657279ull)),
      num_vertices_(num_vertices),
      batch_(batch) {}

std::vector<NodeId> RequestStream::Next() {
  std::vector<NodeId> ids(batch_);
  for (NodeId& id : ids) {
    id = static_cast<NodeId>(lightne::SplitMix64(state_) % num_vertices_);
  }
  return ids;
}

}  // namespace perfbench
