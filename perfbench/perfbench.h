// The embed-and-serve benchmark: shared declarations.
//
// One run generates a workload's graph from a seed, embeds it with the
// LightNE pipeline, publishes the embedding as an int8 EmbeddingStore and
// serves top-10 queries from it in a closed loop from one client thread.
// A timed run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) calls each layer's public function in RunLightNe's order and
// reports per-layer metrics. Both check every output (checks.cc). See
// README.md for the workloads and the layer -> metric map.
#ifndef LIGHTNE_PERFBENCH_PERFBENCH_H_
#define LIGHTNE_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/embedding_store.h"
#include "core/lightne.h"
#include "core/query_engine.h"
#include "graph/compressed.h"
#include "graph/csr.h"
#include "la/matrix.h"

namespace perfbench {

using lightne::NodeId;

// ---- workloads (workloads.cc) ---------------------------------------------

enum class GraphKind { kSbm, kRmat };

struct WorkloadSpec {
  std::string name;
  GraphKind kind = GraphKind::kSbm;
  // SBM: vertices and planted communities.
  NodeId sbm_vertices = 0;
  NodeId communities = 0;
  // RMAT: log2 vertex count.
  int rmat_scale = 0;
  // Raw pairs drawn by the generator, before symmetrizing and dedup.
  uint64_t sampled_edges = 0;
  // Share of undirected edges held out of the embedded graph (0 = none).
  double holdout_fraction = 0.0;
  // Embed the parallel-byte compressed graph instead of the CSR one.
  bool compressed = false;
  lightne::LightNeOptions options;
  // Vertices per top-k request (1 = single-vertex lookups).
  uint64_t batch = 1;
  // Quality floor: share of served neighbours in the query's community on
  // SBM workloads, held-out-edge AUC on RMAT ones.
  double quality_floor = 0.0;
};

/// The workload table; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The generated inputs of one workload. Only the graph (CSR or compressed)
/// is handed to the pipeline; the rest feeds the quality checks.
struct Inputs {
  lightne::CsrGraph csr;
  std::optional<lightne::CompressedGraph> compressed;
  std::vector<NodeId> community;                    // SBM only
  std::vector<std::pair<NodeId, NodeId>> held_out;  // canonical u < v
  double generate_s = 0;  // generator
  double build_s = 0;     // hold-out split + CSR build
  double compress_s = 0;  // CSR -> compressed (0 when not compressed)
  uint64_t GraphBytes() const {
    return compressed ? compressed->SizeBytes() : csr.SizeBytes();
  }
};

/// Generates the inputs; `traced` records a span around each setup step.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, bool traced);

/// The M that RunLightNe derives from the options (samples_ratio * T * m).
uint64_t NumSamples(const lightne::CsrGraph& g,
                    const lightne::LightNeOptions& opt);

/// Deterministic stream of query vertices for a seed.
class RequestStream {
 public:
  RequestStream(uint64_t seed, NodeId num_vertices, uint64_t batch);
  std::vector<NodeId> Next();

 private:
  uint64_t state_;
  NodeId num_vertices_;
  uint64_t batch_;
};

// ---- correctness checks (checks.cc) ---------------------------------------

/// Outcome of one check over one output. Each check also has a self-test:
/// the same check on a deliberately corrupted copy must reject it.
class CheckLog {
 public:
  /// Records a check on the real output; returns `ok`.
  bool Check(const std::string& name, bool ok, const std::string& detail);
  /// Records a check run on a corrupted output; it must have rejected it.
  void Rejects(const std::string& name, bool rejected);
  bool all_passed() const { return failures_ == 0; }
  int checks() const { return checks_; }
  int selftests() const { return selftests_; }

 private:
  int checks_ = 0;
  int selftests_ = 0;
  int failures_ = 0;
};

/// A served request kept for re-scoring.
struct ServedSample {
  std::vector<NodeId> ids;
  std::vector<std::vector<lightne::ScoredNeighbor>> results;
};

/// Every check that runs inside each workload, plus its self-tests.
/// `s` is the sampler's result for M = `num_samples` on graph `g`.
void CheckSampler(const lightne::CsrGraph& g, uint64_t num_samples,
                  const lightne::SparsifierResult& s, CheckLog* log);
void CheckEmbedding(const lightne::Matrix& x, uint64_t n, uint64_t d,
                    CheckLog* log);
void CheckQuantization(const lightne::Matrix& x,
                       const lightne::EmbeddingStore& store, CheckLog* log);
void CheckServed(const lightne::EmbeddingStore& store,
                 const std::vector<ServedSample>& samples, uint64_t k,
                 CheckLog* log);
/// Community share of served neighbours (SBM) or held-out AUC (RMAT)
/// against the workload's floor.
void CheckQuality(const WorkloadSpec& spec, const Inputs& in,
                  const lightne::Matrix& x,
                  const std::vector<ServedSample>& served, uint64_t seed,
                  CheckLog* log);
/// Traced run only: the raw CSR sparsifier is symmetric and its entry sum
/// equals mass_fp20 / 2^20 within fixed-point and float rounding.
void CheckSparsifierMatrix(const lightne::SparsifierResult& s,
                           CheckLog* log);

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

struct RunArgs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  std::string out_dir;  // stores, traces and layer tables
  double start_s = 0;   // TraceClock reading at process start
};

RunResult TimedRun(const RunArgs& args);
RunResult TracedRun(const RunArgs& args);

}  // namespace perfbench

#endif  // LIGHTNE_PERFBENCH_PERFBENCH_H_
