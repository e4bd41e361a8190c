// Correctness checks run inside every workload. Each is computed here, from
// the graph, the store's codes and codebook, and the documented contracts —
// never from a recorded output — and each is shown to reject a
// deliberately corrupted copy of the output it checks (the "selftest"
// lines on stderr). A check that accepts a corrupted output fails the run
// just as a check that rejects a real one does.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <numeric>
#include <unordered_set>

#include "perfbench.h"
#include "util/random.h"

namespace perfbench {

using lightne::CsrGraph;
using lightne::EmbeddingStore;
using lightne::Matrix;
using lightne::ScoredNeighbor;

namespace {

constexpr double kUnitRoundoff = 0x1.0p-24;  // float
constexpr double kFp20 = 1048576.0;          // mass_fp20 scale
constexpr double kSigmas = 6.0;

__attribute__((format(printf, 1, 2))) std::string Fmt(const char* fmt,
                                                       ...) {
  char buf[256];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// ---- sampler ----------------------------------------------------------------

// Each directed edge draws floor(x) + Bernoulli(frac(x)) attempts, x = M/2m,
// so drawn - M is a sum of 2m independent centred Bernoullis.
bool SampleCountOk(const CsrGraph& g, uint64_t m_target, uint64_t drawn,
                   std::string* detail) {
  const double directed = static_cast<double>(g.NumDirectedEdges());
  const double x = static_cast<double>(m_target) / directed;
  const double f = x - std::floor(x);
  const double sigma = std::sqrt(directed * f * (1.0 - f));
  const double bound =
      kSigmas * sigma + 2.0 + 1e-9 * static_cast<double>(m_target);
  const double diff =
      std::fabs(static_cast<double>(drawn) - static_cast<double>(m_target));
  *detail = Fmt("|drawn - M| = %.0f, bound %.1f", diff, bound);
  return diff <= bound;
}

// An accepted draw on edge e adds 2/p_e to the mass and happens with
// probability p_e, so E[mass | draws] = 2 drawn and the variance is
// sum_e n_e * 4 (1 - p_e) / p_e, with p_e = min(1, log(n) (1/d_u + 1/d_v)).
bool MassOk(const CsrGraph& g, uint64_t m_target, uint64_t drawn,
            uint64_t accepted, double mass, std::string* detail) {
  const double c = std::log(static_cast<double>(g.NumVertices()));
  const double x = static_cast<double>(m_target) /
                   static_cast<double>(g.NumDirectedEdges());
  double var = 0;
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    const double du = static_cast<double>(g.Degree(u));
    for (const NodeId v : g.Neighbors(u)) {
      const double p = std::min(
          1.0, c * (1.0 / du + 1.0 / static_cast<double>(g.Degree(v))));
      var += x * 4.0 * (1.0 - p) / p;
    }
  }
  const double expected = 2.0 * static_cast<double>(drawn);
  const double rounding = static_cast<double>(accepted) * 0.5 / kFp20;
  const double bound =
      kSigmas * std::sqrt(var) + rounding + 1e-9 * expected + 1.0;
  const double diff = std::fabs(mass - expected);
  *detail = Fmt("|mass - 2 drawn| = %.1f, bound %.1f", diff, bound);
  return diff <= bound;
}

bool CountsOk(uint64_t drawn, uint64_t accepted, uint64_t distinct) {
  return accepted <= drawn && distinct <= accepted;
}

// ---- embedding and store ---------------------------------------------------

bool EmbeddingOk(const Matrix& x, uint64_t n, uint64_t d) {
  if (x.rows() != n || x.cols() != d) return false;
  for (uint64_t k = 0; k < n * d; ++k) {
    if (!std::isfinite(x.data()[k])) return false;
  }
  return true;
}

// The store's round-trip contract (core/embedding_store.h): for int8,
// |offset_j + scale_j * code - x| <= scale_j / 2 up to one float rounding
// of the column's magnitude. The codebook itself is rounded to float, so
// the slack allows a few roundings of |offset| + 256 scale.
bool QuantizationOk(const Matrix& x, const uint8_t* codes,
                    const std::vector<float>& scales,
                    const std::vector<float>& offsets, std::string* detail) {
  const uint64_t n = x.rows(), d = x.cols();
  double worst = 0;  // largest error as a share of its bound
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = 0; j < d; ++j) {
      const double scale = scales[j], offset = offsets[j];
      const double value = offset + scale * codes[i * d + j];
      const double bound =
          0.5 * scale +
          4.0 * kUnitRoundoff * (std::fabs(offset) + 256.0 * scale);
      const double err = std::fabs(value - static_cast<double>(x.At(i, j)));
      if (!(err <= bound)) {
        *detail = Fmt("error %.3g over bound %.3g", err, bound);
        return false;
      }
      if (bound > 0) worst = std::max(worst, err / bound);
    }
  }
  *detail = Fmt("worst error %.3f of its bound", worst);
  return true;
}

// Every row re-scored in double from codes and codebook, with the error
// bound of the engine's float computation (folded weights, j-ascending
// float dot and bias, one final add): (2d + 8) u (|bias terms| + |dot
// terms|).
struct Rescored {
  std::vector<double> score;
  std::vector<double> bound;
};

Rescored Rescore(const EmbeddingStore& store, const uint8_t* codes,
                 NodeId query) {
  const uint64_t n = store.rows(), d = store.dims();
  const std::vector<float>& scales = store.scales();
  const std::vector<float>& offsets = store.offsets();
  std::vector<double> q(d);
  double bias = 0, bias_abs = 0;
  for (uint64_t j = 0; j < d; ++j) {
    // The query is the stored row, dequantized in double and rounded once.
    q[j] = static_cast<float>(static_cast<double>(offsets[j]) +
                              static_cast<double>(scales[j]) *
                                  codes[query * d + j]);
    bias += q[j] * offsets[j];
    bias_abs += std::fabs(q[j] * offsets[j]);
  }
  const double gamma = (2.0 * static_cast<double>(d) + 8.0) * kUnitRoundoff;
  Rescored r;
  r.score.resize(n);
  r.bound.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint8_t* row = codes + i * d;
    double dot = 0, dot_abs = 0;
    for (uint64_t j = 0; j < d; ++j) {
      const double w = q[j] * scales[j];
      dot += w * row[j];
      dot_abs += std::fabs(w) * row[j];
    }
    r.score[i] = bias + dot;
    r.bound[i] = gamma * (bias_abs + dot_abs) + 1e-30;
  }
  return r;
}

// A returned top-k list is right if it has k distinct in-range ids in
// (score desc, id asc) order, every score matches its re-scored value
// within the bound, and no omitted row beats the k-th result by more than
// the bound.
bool TopKOk(const std::vector<ScoredNeighbor>& got, const Rescored& r,
            uint64_t k, std::string* detail) {
  const uint64_t n = r.score.size();
  if (got.size() != k) {
    *detail = "wrong result count";
    return false;
  }
  std::unordered_set<NodeId> seen;
  for (uint64_t i = 0; i < k; ++i) {
    const ScoredNeighbor& e = got[i];
    if (e.id >= n || !seen.insert(e.id).second) {
      *detail = "id out of range or repeated";
      return false;
    }
    if (i > 0 && (got[i - 1].score < e.score ||
                  (got[i - 1].score == e.score && got[i - 1].id > e.id))) {
      *detail = "results not sorted";
      return false;
    }
    if (!(std::fabs(e.score - r.score[e.id]) <= r.bound[e.id])) {
      *detail = Fmt("returned score off its re-scored value by %.3g (bound "
                    "%.3g)",
                    std::fabs(e.score - r.score[e.id]), r.bound[e.id]);
      return false;
    }
  }
  const double kth = got[k - 1].score;
  for (uint64_t i = 0; i < n; ++i) {
    if (seen.count(static_cast<NodeId>(i)) == 0 &&
        r.score[i] > kth + r.bound[i]) {
      *detail = Fmt("omitted row beats the k-th result by %.3g (bound %.3g)",
                    r.score[i] - kth, r.bound[i]);
      return false;
    }
  }
  return true;
}

// ---- quality --------------------------------------------------------------

// Share of served neighbours (the query vertex itself excluded) that lie in
// the query's planted community.
double CommunityShare(const std::vector<ServedSample>& served,
                      const std::vector<NodeId>& community) {
  uint64_t hits = 0, total = 0;
  for (const ServedSample& s : served) {
    for (size_t q = 0; q < s.ids.size(); ++q) {
      for (const ScoredNeighbor& e : s.results[q]) {
        if (e.id == s.ids[q]) continue;
        ++total;
        if (community[e.id] == community[s.ids[q]]) ++hits;
      }
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

bool IsEdge(const CsrGraph& g, NodeId u, NodeId v) {
  const auto nb = g.Neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

double Dot(const Matrix& x, NodeId a, NodeId b) {
  double s = 0;
  for (uint64_t j = 0; j < x.cols(); ++j) {
    s += static_cast<double>(x.At(a, j)) * x.At(b, j);
  }
  return s;
}

// AUC of held-out edges against uniform non-edges, scored by the inner
// product of rows row_of[u] and row_of[v] (row_of = identity for the real
// check). Ties count one half.
double HeldOutAuc(const Matrix& x, const std::vector<NodeId>& row_of,
                  const std::vector<std::pair<NodeId, NodeId>>& pos,
                  const std::vector<std::pair<NodeId, NodeId>>& neg) {
  std::vector<std::pair<double, int>> scored;  // (score, is_positive)
  for (const auto& [u, v] : pos) {
    scored.emplace_back(Dot(x, row_of[u], row_of[v]), 1);
  }
  for (const auto& [u, v] : neg) {
    scored.emplace_back(Dot(x, row_of[u], row_of[v]), 0);
  }
  std::sort(scored.begin(), scored.end());
  // Mann-Whitney U with mid-ranks for ties.
  double rank_sum = 0;
  for (size_t i = 0; i < scored.size();) {
    size_t j = i;
    while (j < scored.size() && scored[j].first == scored[i].first) ++j;
    const double mid_rank = 0.5 * static_cast<double>(i + j + 1);
    for (size_t t = i; t < j; ++t) {
      if (scored[t].second == 1) rank_sum += mid_rank;
    }
    i = j;
  }
  const double np = static_cast<double>(pos.size());
  const double nn = static_cast<double>(neg.size());
  return (rank_sum - np * (np + 1) / 2) / (np * nn);
}

void Shuffle(std::vector<NodeId>* v, uint64_t seed) {
  lightne::Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.UniformInt(i)]);
  }
}

std::vector<uint8_t> CopyCodes(const EmbeddingStore& store) {
  const uint64_t bytes = store.rows() * store.dims();
  const auto* first = static_cast<const uint8_t*>(store.RowData(0));
  return std::vector<uint8_t>(first, first + bytes);
}

}  // namespace

bool CheckLog::Check(const std::string& name, bool ok,
                     const std::string& detail) {
  ++checks_;
  if (!ok) ++failures_;
  std::fprintf(stderr, "check    %-24s %s  %s\n", name.c_str(),
               ok ? "ok" : "FAILED", detail.c_str());
  return ok;
}

void CheckLog::Rejects(const std::string& name, bool rejected) {
  ++selftests_;
  if (!rejected) ++failures_;
  std::fprintf(stderr, "selftest %-24s %s\n", name.c_str(),
               rejected ? "rejects the corrupted output"
                        : "FAILED: accepted a corrupted output");
}

void CheckSampler(const CsrGraph& g, uint64_t num_samples,
                  const lightne::SparsifierResult& s, CheckLog* log) {
  const uint64_t drawn = s.samples_drawn, accepted = s.samples_accepted;
  std::string detail, ignored;
  log->Check("sampler.sample_count",
             SampleCountOk(g, num_samples, drawn, &detail), detail);
  const double mass = static_cast<double>(s.mass_fp20) / kFp20;
  log->Check("sampler.mass",
             MassOk(g, num_samples, drawn, accepted, mass, &detail), detail);
  const uint64_t distinct = s.distinct_entries;
  log->Check("sampler.counts", CountsOk(drawn, accepted, distinct),
             Fmt("accepted/drawn %.4f, distinct/accepted %.4f",
                 static_cast<double>(accepted) / static_cast<double>(drawn),
                 static_cast<double>(distinct) /
                     static_cast<double>(std::max<uint64_t>(1, accepted))));

  const auto drawn_scaled =
      static_cast<uint64_t>(static_cast<double>(drawn) * 1.05);
  log->Rejects("sampler.sample_count",
               !SampleCountOk(g, num_samples, drawn_scaled, &ignored));
  log->Rejects("sampler.mass", !MassOk(g, num_samples, drawn, accepted,
                                       mass * 1.05, &ignored));
  log->Rejects("sampler.counts/accepted",
               !CountsOk(drawn, drawn + 1, distinct));
  log->Rejects("sampler.counts/distinct",
               !CountsOk(drawn, accepted, accepted + 1));
}

void CheckEmbedding(const Matrix& x, uint64_t n, uint64_t d, CheckLog* log) {
  log->Check("embedding.shape_finite", EmbeddingOk(x, n, d),
             Fmt("%llu x %llu", static_cast<unsigned long long>(x.rows()),
                 static_cast<unsigned long long>(x.cols())));
  Matrix nan = x;
  nan.At(n / 2, d / 2) = std::nanf("");
  log->Rejects("embedding.nan", !EmbeddingOk(nan, n, d));
  log->Rejects("embedding.shape", !EmbeddingOk(x.FirstColumns(d - 1), n, d));
}

void CheckQuantization(const Matrix& x, const EmbeddingStore& store,
                       CheckLog* log) {
  std::string detail, ignored;
  const bool int8 = store.kind() == lightne::QuantKind::kInt8 &&
                    store.rows() == x.rows() && store.dims() == x.cols();
  if (!log->Check("store.layout", int8, "int8, embedding shape")) return;
  std::vector<uint8_t> codes = CopyCodes(store);
  log->Check("store.quantization",
             QuantizationOk(x, codes.data(), store.scales(), store.offsets(),
                            &detail),
             detail);
  // Perturb one code of a non-constant column by 3 steps.
  uint64_t j = 0;
  while (j + 1 < store.dims() && store.scales()[j] == 0) ++j;
  uint8_t& code = codes[(store.rows() / 2) * store.dims() + j];
  code = code >= 128 ? code - 3 : code + 3;
  log->Rejects("store.quantization", !QuantizationOk(x, codes.data(),
                                                     store.scales(),
                                                     store.offsets(),
                                                     &ignored));
}

void CheckServed(const EmbeddingStore& store,
                 const std::vector<ServedSample>& samples, uint64_t k,
                 CheckLog* log) {
  const std::vector<uint8_t> codes = CopyCodes(store);
  bool all_ok = true;
  uint64_t queries = 0;
  std::string detail = "all results match", d;
  bool swapped_id = false, unsorted = false, omitted = false;
  for (const ServedSample& s : samples) {
    for (size_t q = 0; q < s.ids.size(); ++q) {
      const Rescored r = Rescore(store, codes.data(), s.ids[q]);
      const std::vector<ScoredNeighbor>& got = s.results[q];
      ++queries;
      if (!TopKOk(got, r, k, &d)) {
        all_ok = false;
        detail = d;
        continue;
      }
      // Self-tests on the first query where each corruption changes the
      // answer by more than the error bound.
      if (!swapped_id) {
        // A top-k id swapped for the lowest-scoring row's id.
        const auto worst = static_cast<NodeId>(
            std::min_element(r.score.begin(), r.score.end()) -
            r.score.begin());
        std::vector<ScoredNeighbor> bad = got;
        if (std::fabs(r.score[worst] - got[0].score) >
            2 * r.bound[worst] + 2 * r.bound[got[0].id]) {
          bad[0].id = worst;
          log->Rejects("served.swapped_id", !TopKOk(bad, r, k, &d));
          swapped_id = true;
        }
      }
      if (!unsorted && got[0].score > got[k - 1].score) {
        std::vector<ScoredNeighbor> bad = got;
        std::swap(bad[0], bad[k - 1]);
        log->Rejects("served.unsorted", !TopKOk(bad, r, k, &d));
        unsorted = true;
      }
      if (!omitted) {
        // Drop the best result and append the best omitted row: sorted,
        // exactly scored, but an omitted row now beats the k-th.
        std::unordered_set<NodeId> in;
        for (const ScoredNeighbor& e : got) in.insert(e.id);
        NodeId next = 0;
        double next_score = -HUGE_VAL;
        for (uint64_t i = 0; i < r.score.size(); ++i) {
          if (in.count(static_cast<NodeId>(i)) == 0 &&
              r.score[i] > next_score) {
            next_score = r.score[i];
            next = static_cast<NodeId>(i);
          }
        }
        if (r.score[got[0].id] - next_score >
            4 * (r.bound[got[0].id] + r.bound[next])) {
          std::vector<ScoredNeighbor> bad(got.begin() + 1, got.end());
          bad.push_back({next, static_cast<float>(next_score)});
          log->Rejects("served.omitted_best", !TopKOk(bad, r, k, &d));
          omitted = true;
        }
      }
    }
  }
  log->Check("served.topk", all_ok,
             Fmt("%llu queries re-scored over all rows: %s",
                 static_cast<unsigned long long>(queries), detail.c_str()));
  // A corruption that could not be made counts as a failed self-test.
  if (!swapped_id) log->Rejects("served.swapped_id", false);
  if (!unsorted) log->Rejects("served.unsorted", false);
  if (!omitted) log->Rejects("served.omitted_best", false);
}

void CheckQuality(const WorkloadSpec& spec, const Inputs& in, const Matrix& x,
                  const std::vector<ServedSample>& served, uint64_t seed,
                  CheckLog* log) {
  if (spec.kind == GraphKind::kSbm) {
    const double share = CommunityShare(served, in.community);
    std::vector<uint64_t> sizes(spec.communities, 0);
    for (const NodeId c : in.community) ++sizes[c];
    double chance = 0;
    for (const uint64_t s : sizes) {
      const double p =
          static_cast<double>(s) / static_cast<double>(in.community.size());
      chance += p * p;
    }
    log->Check("quality.community_share", share >= spec.quality_floor,
               Fmt("share %.4f (chance %.4f), floor %.2f", share, chance,
                   spec.quality_floor));
    std::vector<NodeId> shuffled = in.community;
    Shuffle(&shuffled, lightne::HashCombine64(seed, 0x73687566ull));
    log->Rejects("quality.community_share",
                 CommunityShare(served, shuffled) < spec.quality_floor);
    return;
  }
  // Held-out edges against as many uniform non-edges (of the full graph).
  lightne::Rng rng(lightne::HashCombine64(seed, 0x6e6567ull));
  const NodeId n = in.csr.NumVertices();
  std::unordered_set<uint64_t> held;
  for (const auto& [u, v] : in.held_out) held.insert(lightne::PackEdge(u, v));
  std::vector<std::pair<NodeId, NodeId>> neg;
  while (neg.size() < 4 * in.held_out.size()) {
    const auto u = static_cast<NodeId>(rng.UniformInt(n));
    const auto v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v || IsEdge(in.csr, u, v) ||
        held.count(lightne::PackEdge(std::min(u, v), std::max(u, v))) > 0) {
      continue;
    }
    neg.emplace_back(u, v);
  }
  std::vector<NodeId> identity(n);
  std::iota(identity.begin(), identity.end(), 0);
  const double auc = HeldOutAuc(x, identity, in.held_out, neg);
  log->Check("quality.heldout_auc",
             !in.held_out.empty() && auc >= spec.quality_floor,
             Fmt("AUC %.4f over %zu held-out edges, floor %.2f", auc,
                 in.held_out.size(), spec.quality_floor));
  std::vector<NodeId> shuffled = identity;
  Shuffle(&shuffled, lightne::HashCombine64(seed, 0x73687566ull));
  log->Rejects("quality.heldout_auc",
               HeldOutAuc(x, shuffled, in.held_out, neg) <
                   spec.quality_floor);
}

void CheckSparsifierMatrix(const lightne::SparsifierResult& result,
                           CheckLog* log) {
  const lightne::SparseMatrix& s = result.matrix;
  const std::vector<uint64_t>& offsets = s.row_offsets();
  const std::vector<uint32_t>& cols = s.col_indices();
  const auto symmetric = [&](const std::vector<float>& values) {
    for (uint64_t i = 0; i < s.rows(); ++i) {
      for (uint64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        if (k > offsets[i] && cols[k - 1] >= cols[k]) return false;
        const uint32_t j = cols[k];
        const auto first = cols.begin() + static_cast<int64_t>(offsets[j]);
        const auto last = cols.begin() + static_cast<int64_t>(offsets[j + 1]);
        const auto it = std::lower_bound(first, last, i);
        if (it == last || *it != i) return false;
        if (values[static_cast<uint64_t>(it - cols.begin())] != values[k]) {
          return false;
        }
      }
    }
    return true;
  };
  double sum = 0, sum_abs = 0;
  for (const float v : s.values()) {
    sum += v;
    sum_abs += std::fabs(v);
  }
  // Entries are float roundings of double sums of per-sample weights; the
  // mass rounds each sample to 2^-20.
  const double tol = static_cast<double>(result.samples_accepted) * 0.5 /
                         kFp20 +
                     2.0 * kUnitRoundoff * sum_abs;
  const auto sums_match = [&](double mass) {
    return std::fabs(sum - mass) <= tol;
  };
  const double mass = static_cast<double>(result.mass_fp20) / kFp20;
  log->Check("sparsifier.symmetric", symmetric(s.values()),
             Fmt("%llu entries", static_cast<unsigned long long>(s.nnz())));
  log->Check("sparsifier.entry_sum", sums_match(mass),
             Fmt("|sum - mass| = %.4g, tolerance %.4g", std::fabs(sum - mass),
                 tol));
  std::vector<float> bad = s.values();
  for (uint64_t k = 0; k < bad.size(); ++k) {
    if (cols[k] != std::upper_bound(offsets.begin(), offsets.end(), k) -
                       offsets.begin() - 1) {
      bad[k] *= 2.0f;  // first off-diagonal entry
      break;
    }
  }
  log->Rejects("sparsifier.symmetric", !symmetric(bad));
  log->Rejects("sparsifier.entry_sum", !sums_match(mass * 1.05));
}

}  // namespace perfbench
