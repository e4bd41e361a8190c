// The timed run (end-to-end metrics) and the traced run (per-layer
// metrics) of one workload.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

#include "parallel/parallel_for.h"
#include "perfbench.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace perfbench {

using lightne::EmbeddingStore;
using lightne::LightNeOptions;
using lightne::Matrix;
using lightne::MetricsRegistry;
using lightne::MetricsSnapshot;
using lightne::QueryEngine;
using lightne::Timer;
using lightne::TraceEvent;
using lightne::TraceRecorder;

namespace {

constexpr uint64_t kTopK = 10;
// Timed run: rounds per run (each one embed and one publish call, whose
// medians are reported), and the request count of a p99 window, which
// leaves ten samples beyond its p99; every run times at least one window.
constexpr size_t kRounds = 7;
constexpr size_t kWindow = 1000;
// Traced run: requests served for the query-layer metrics.
constexpr size_t kTracedRequests = 200;
// Queries re-scored over every row by the served-results check.
constexpr uint64_t kRescoredQueries = 16;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Nearest-rank percentile of an ascending vector.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// p99 of each window of kWindow consecutive latencies (the last window
// also takes the remainder), in request order.
std::vector<double> WindowP99s(const std::vector<double>& latency) {
  std::vector<double> p99s;
  for (size_t begin = 0; begin < latency.size();) {
    const size_t end = latency.size() - begin < 2 * kWindow
                           ? latency.size()
                           : begin + kWindow;
    std::vector<double> window(latency.begin() + begin,
                               latency.begin() + end);
    std::sort(window.begin(), window.end());
    p99s.push_back(Percentile(window, 0.99));
    begin = end;
  }
  return p99s;
}

template <typename Fn>
auto WithGraph(const Inputs& in, Fn&& fn) {
  return in.compressed ? fn(*in.compressed) : fn(in.csr);
}

bool SameMatrix(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.SizeBytes()) == 0;
}

std::string StorePath(const RunArgs& a) {
  return a.out_dir + "/store-" + std::to_string(::getpid()) + ".est";
}

void Fail(RunResult* out, const char* what, const lightne::Status& s) {
  ++out->failed;
  std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
}

// Requests served so far, kept for the metrics and the checks.
struct Serving {
  std::vector<ServedSample> served;  // every timed request
  std::vector<double> latency_s;
  uint64_t queries = 0;
  double wall_s = 0;
};

// Closed loop from this thread: the next request is sent when the previous
// one returns, until `seconds` have passed and `s` holds `min_requests`.
void Serve(const EmbeddingStore& store, RequestStream* stream, double seconds,
           size_t min_requests, bool span_per_call, RunResult* out,
           Serving* s) {
  QueryEngine engine(&store);
  Timer loop;
  while (s->latency_s.size() < min_requests || loop.Seconds() < seconds) {
    ServedSample sample;
    sample.ids = stream->Next();
    ++out->attempted;
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<lightne::TraceSpan> span;
    if (span_per_call) span.emplace("layer/query");
    auto res = engine.TopKByVertex(sample.ids, kTopK);
    span.reset();
    const double lat = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    if (!res.ok()) {
      Fail(out, "TopKByVertex", res.status());
      continue;
    }
    s->latency_s.push_back(lat);
    s->queries += sample.ids.size();
    sample.results = std::move(*res);
    s->served.push_back(std::move(sample));
  }
  s->wall_s += loop.Seconds();
}

std::vector<ServedSample> RescoredSample(const Serving& s) {
  std::vector<ServedSample> out;
  uint64_t queries = 0;
  for (const ServedSample& r : s.served) {
    if (queries >= kRescoredQueries) break;
    out.push_back(r);
    queries += r.ids.size();
  }
  return out;
}

void CheckServing(const WorkloadSpec& spec, const Inputs& in,
                  const Matrix& embedding, const EmbeddingStore& store,
                  const Serving& serving, uint64_t seed, CheckLog* log) {
  CheckEmbedding(embedding, in.csr.NumVertices(), spec.options.dim, log);
  CheckQuantization(embedding, store, log);
  CheckServed(store, RescoredSample(serving), kTopK, log);
  CheckQuality(spec, in, embedding, serving.served, seed, log);
}

// CPU time of all threads of this process.
double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// VmHWM: the process's peak resident set so far.
double PeakRssMiB() {
  return static_cast<double>(lightne::PeakRssBytes()) / (1024.0 * 1024.0);
}

// ---- traced-run helpers ---------------------------------------------------

// Measurements around one layer call: one span from this file, a metrics
// snapshot delta, process CPU time, and VmHWM after the call.
struct StageMeasure {
  double wall_s = 0;
  double cpu_s = 0;
  double hwm_mib = 0;
  MetricsSnapshot before, after;
  std::vector<TraceEvent> events;  // spans recorded during the call
  uint64_t Delta(const std::string& counter) const {
    return after.CounterValue(counter) - before.CounterValue(counter);
  }
  double CpuUtil() const {
    return wall_s > 0 ? cpu_s / (wall_s * lightne::NumWorkers()) : 0;
  }
  double Span(const std::string& name) const {
    return TraceRecorder::SecondsFor(events, name);
  }
};

class Stage {
 public:
  explicit Stage(const std::string& name)
      : before_(MetricsRegistry::Global().Snapshot()),
        mark_(TraceRecorder::Global().Mark()),
        cpu0_(ProcessCpuSeconds()),
        span_(name) {}

  StageMeasure Finish() {
    StageMeasure m;
    m.wall_s = timer_.Seconds();
    span_.End();
    m.cpu_s = ProcessCpuSeconds() - cpu0_;
    m.hwm_mib = PeakRssMiB();
    m.before = std::move(before_);
    m.after = MetricsRegistry::Global().Snapshot();
    m.events = TraceRecorder::Global().EventsSince(mark_);
    return m;
  }

 private:
  MetricsSnapshot before_;
  uint64_t mark_;
  double cpu0_;
  lightne::TraceSpan span_;
  Timer timer_;
};

// Per-layer self times from a span forest: a span's self time is its
// duration minus that of its direct children on the same thread. Spans
// inside [embed_start_us, embed_end_us] also show their share of embed_s,
// the summed wall time of the staged embed calls.
std::string SelfTimeTable(std::vector<TraceEvent> events,
                          uint64_t embed_start_us, uint64_t embed_end_us,
                          double embed_s) {
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.dur_us > b.dur_us;
            });
  std::vector<uint64_t> child_us(events.size(), 0);
  std::vector<size_t> open;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    while (!open.empty()) {
      const TraceEvent& top = events[open.back()];
      if (top.tid == e.tid && e.start_us + e.dur_us <= top.start_us +
                                                        top.dur_us) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += e.dur_us;
    open.push_back(i);
  }
  struct Row {
    size_t first = 0;
    uint64_t calls = 0, total_us = 0, self_us = 0;
    uint32_t depth = 0;
    bool in_embed = false;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < events.size(); ++i) {
    Row& r = rows[events[i].name];
    if (r.calls == 0) {
      r.first = i;
      r.depth = events[i].depth;
      r.in_embed = events[i].start_us >= embed_start_us &&
                   events[i].start_us + events[i].dur_us <= embed_end_us;
    }
    ++r.calls;
    r.total_us += events[i].dur_us;
    r.self_us += events[i].dur_us - std::min(events[i].dur_us, child_us[i]);
  }
  std::vector<std::pair<std::string, Row>> ordered(rows.begin(), rows.end());
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return a.second.first < b.second.first;
  });
  std::string table;
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %8s %10s %10s %11s\n", "span",
                "calls", "total_s", "self_s", "self/embed");
  table += line;
  for (const auto& [name, r] : ordered) {
    const std::string label = std::string(2 * r.depth, ' ') + name;
    const double self_s = static_cast<double>(r.self_us) * 1e-6;
    char share[32] = "-";
    if (r.in_embed) {
      std::snprintf(share, sizeof(share), "%.1f%%", 100.0 * self_s / embed_s);
    }
    std::snprintf(line, sizeof(line), "%-34s %8llu %10.4f %10.4f %11s\n",
                  label.c_str(), static_cast<unsigned long long>(r.calls),
                  static_cast<double>(r.total_us) * 1e-6, self_s, share);
    table += line;
  }
  return table;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

// Flops of Algorithm 3 as RandomizedSvd runs it, from shapes and nnz:
// SpMM 2 nnz q, Householder QR + explicit Q 4 n q^2, dense n x q x q
// products 2 n q^2, one-sided Jacobi on q x q counted as 40 q^3.
double RsvdGflop(uint64_t n, uint64_t nnz, const LightNeOptions& opt) {
  const double q = static_cast<double>(std::min(opt.dim + opt.svd_oversample,
                                                n));
  const double nd = static_cast<double>(n), z = static_cast<double>(nnz);
  const double spmm = 2 * z * q, qr = 4 * nd * q * q, gemm = 2 * nd * q * q;
  const double sketch = spmm + qr;
  const double power = static_cast<double>(opt.svd_power_iters) *
                       2 * (spmm + qr);
  const double project = spmm + gemm + qr + gemm;
  const double small = 40 * q * q * q;
  const double recover = 2 * gemm;
  return (sketch + power + project + small + recover) * 1e-9;
}

// Flops of SpectralPropagate: each Mop / (A + I) application is
// 2 (2m + n) d plus 3 n d for the combine; the recurrence adds 6 n d per
// term; the smoothing Gram, its eigenproblem and the projection count
// 4 n d^2 + 10 d^3.
double PropagationGflop(uint64_t n, uint64_t directed, uint64_t d,
                        uint32_t order) {
  const double nd = static_cast<double>(n) * static_cast<double>(d);
  const double apply =
      2.0 * static_cast<double>(directed + n) * static_cast<double>(d) +
      3 * nd;
  const double applies = order <= 1 ? 0 : 2.0 + 2.0 * (order - 2) + 1.0;
  const double dd = static_cast<double>(d);
  const double smoothing = 4 * nd * dd + 10 * dd * dd * dd;
  return (applies * apply + 6 * nd * order + smoothing) * 1e-9;
}

}  // namespace

RunResult TimedRun(const RunArgs& a) {
  const WorkloadSpec& spec = *a.spec;
  RunResult out;
  const Inputs in = MakeInputs(spec, a.seed, /*traced=*/false);
  const double setup_s = lightne::TraceClock::NowSeconds() - a.start_s;
  CheckLog log;

  // kRounds rounds of: one RunLightNe call, one publish (int8 Write + Open)
  // of the first embedding, one untimed warm-up request, then serving for
  // an equal share of --seconds; the last round serves on until the run
  // has timed one p99 window. Interleaving spreads every metric's samples
  // over the whole run, so a slow spell on a shared machine moves all of
  // them a little instead of one phase a lot. query_p99_ms is the median
  // of the windows' p99s: a slow spell fills the top 1% of the requests
  // of the windows it hits, which sets a whole-run p99 but not the median
  // window's. VmHWM is read after the first embed call, before any store
  // exists.
  const std::string path = StorePath(a);
  RequestStream stream(a.seed, in.csr.NumVertices(), spec.batch);
  std::vector<double> embed_times, publish_times;
  double peak_mib = 0;
  std::optional<lightne::LightNeResult> first;
  std::optional<EmbeddingStore> store;
  Serving serving;
  bool repeats_identical = true;
  for (size_t round = 0; round < kRounds; ++round) {
    ++out.attempted;
    Timer embed_timer;
    auto r = WithGraph(in, [&](const auto& g) {
      return lightne::RunLightNe(g, spec.options);
    });
    const double embed_s = embed_timer.Seconds();
    if (!r.ok()) {
      Fail(&out, "RunLightNe", r.status());
      if (!first) break;
      continue;
    }
    embed_times.push_back(embed_s);
    if (!first) {
      peak_mib = PeakRssMiB();
      first = std::move(*r);
    } else if (!SameMatrix(first->embedding, r->embedding)) {
      repeats_identical = false;
    }

    ++out.attempted;
    store.reset();
    Timer publish_timer;
    const lightne::Status written = EmbeddingStore::Write(
        first->embedding, path, lightne::QuantKind::kInt8);
    if (!written.ok()) {
      Fail(&out, "EmbeddingStore::Write", written);
      break;
    }
    auto opened = EmbeddingStore::Open(path);
    const double publish_s = publish_timer.Seconds();
    if (!opened.ok()) {
      Fail(&out, "EmbeddingStore::Open", opened.status());
      break;
    }
    publish_times.push_back(publish_s);
    store = std::move(*opened);

    ++out.attempted;
    auto warm = QueryEngine(&*store).TopKByVertex(stream.Next(), kTopK);
    if (!warm.ok()) Fail(&out, "TopKByVertex", warm.status());
    const bool last = round + 1 == kRounds;
    Serve(*store, &stream, a.seconds / kRounds, last ? kWindow : 0,
          /*span_per_call=*/false, &out, &serving);
  }
  if (first && store) {
    const Matrix& embedding = first->embedding;
    log.Check("embedding.repeat_identical", repeats_identical,
              std::to_string(embed_times.size()) + " RunLightNe calls");
    Matrix bad = embedding;
    bad.data()[0] = std::nextafter(bad.data()[0], 1e30f);
    log.Rejects("embedding.repeat_identical", !SameMatrix(embedding, bad));
    CheckSampler(in.csr, NumSamples(in.csr, spec.options),
                 first->sparsifier_stats, &log);
    CheckServing(spec, in, embedding, *store, serving, a.seed, &log);

    std::vector<double> lat = serving.latency_s;
    std::sort(lat.begin(), lat.end());
    const std::vector<double> window_p99_s = WindowP99s(serving.latency_s);
    std::string times, p99s;
    for (const double t : embed_times) times += " " + std::to_string(t);
    for (const double t : window_p99_s) p99s += " " + std::to_string(1e3 * t);
    std::fprintf(stderr,
                 "embed_s:%s\nwindow p99 ms:%s (whole run %.4f)\n%zu "
                 "publishes, %zu requests (%llu queries) in %.2f s of "
                 "serving\n",
                 times.c_str(), p99s.c_str(), 1e3 * Percentile(lat, 0.99),
                 publish_times.size(), lat.size(),
                 static_cast<unsigned long long>(serving.queries),
                 serving.wall_s);
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"embed_s", Median(embed_times), "s"},
        {"embed_peak_rss_mib", peak_mib, "MiB"},
        {"publish_s", Median(publish_times), "s"},
        {"query_qps", static_cast<double>(serving.queries) / serving.wall_s,
         "queries/s"},
        {"query_p50_ms", 1e3 * Percentile(lat, 0.50), "ms"},
        {"query_p99_ms", 1e3 * Median(window_p99_s), "ms"},
    };
  }
  store.reset();
  std::remove(path.c_str());
  out.correct = log.all_passed() && !out.metrics.empty();
  std::fprintf(stderr, "%d checks, %d self-tests: %s\n", log.checks(),
               log.selftests(), log.all_passed() ? "all passed" : "FAILED");
  return out;
}

RunResult TracedRun(const RunArgs& a) {
  const WorkloadSpec& spec = *a.spec;
  const LightNeOptions& opt = spec.options;
  RunResult out;
  CheckLog log;
  TraceRecorder& recorder = TraceRecorder::Global();
  const uint64_t trace_mark = recorder.Mark();

  const Inputs in = MakeInputs(spec, a.seed, /*traced=*/true);
  const NodeId n = in.csr.NumVertices();
  std::vector<Metric>& m = out.metrics;
  m.push_back({"data.generate_s", in.generate_s, "s"});
  m.push_back({"graph.build_s", in.build_s, "s"});
  m.push_back({"graph.compress_s", in.compress_s, "s"});
  m.push_back({"graph.bytes", static_cast<double>(in.GraphBytes()), "bytes"});

  // ---- the pipeline, one layer call at a time, in RunLightNe's order and
  // with the options it derives (core/lightne.h).
  lightne::SparsifierOptions sopt;
  sopt.num_samples = NumSamples(in.csr, opt);
  sopt.window = opt.window;
  sopt.downsample = opt.downsample;
  sopt.downsample_constant = opt.downsample_constant;
  sopt.seed = opt.seed;
  sopt.combiner = opt.sampler_combiner;
  sopt.walk_pin_budget_bytes = opt.walk_pin_budget_bytes;

  const uint64_t embed_start_us = lightne::TraceClock::NowMicros();
  Stage sparsifier_stage("layer/sparsifier");
  auto sparsifier = WithGraph(
      in, [&](const auto& g) { return lightne::BuildSparsifier(g, sopt); });
  const StageMeasure sp = sparsifier_stage.Finish();
  ++out.attempted;
  if (!sparsifier.ok()) {
    Fail(&out, "BuildSparsifier", sparsifier.status());
    return out;
  }
  CheckSampler(in.csr, sopt.num_samples, *sparsifier, &log);
  CheckSparsifierMatrix(*sparsifier, &log);
  lightne::SparseMatrix matrix = std::move(sparsifier->matrix);
  const uint64_t nnz_raw = matrix.nnz();

  Stage netmf_stage("layer/netmf");
  WithGraph(in, [&](const auto& g) {
    lightne::ApplyNetmfTransform(g, sopt.num_samples, opt.negative_samples,
                                 &matrix);
  });
  const StageMeasure nm = netmf_stage.Finish();
  ++out.attempted;

  lightne::RandomizedSvdOptions ropt;
  ropt.rank = opt.dim;
  ropt.oversample = opt.svd_oversample;
  ropt.power_iters = opt.svd_power_iters;
  ropt.symmetric = true;
  ropt.seed = opt.seed + 7;
  Stage rsvd_stage("layer/rsvd");
  auto svd = lightne::RandomizedSvd(matrix, ropt);
  const StageMeasure rs = rsvd_stage.Finish();
  ++out.attempted;
  if (!svd.ok()) {
    Fail(&out, "RandomizedSvd", svd.status());
    return out;
  }
  Stage from_svd_stage("layer/embedding_from_svd");
  Matrix embedding = lightne::EmbeddingFromSvd(*svd);
  const StageMeasure fs = from_svd_stage.Finish();
  ++out.attempted;
  StageMeasure pr;
  if (opt.spectral_propagation) {
    Stage prop_stage("layer/propagation");
    auto propagated = WithGraph(in, [&](const auto& g) {
      return lightne::SpectralPropagate(g, embedding, opt.propagation);
    });
    pr = prop_stage.Finish();
    ++out.attempted;
    if (!propagated.ok()) {
      Fail(&out, "SpectralPropagate", propagated.status());
      return out;
    }
    embedding = std::move(*propagated);
  }
  const uint64_t embed_end_us = lightne::TraceClock::NowMicros();
  const double staged_s = sp.wall_s + nm.wall_s + rs.wall_s + fs.wall_s +
                          pr.wall_s;
  const uint64_t nnz_out = matrix.nnz();
  matrix = lightne::SparseMatrix();

  // The same embedding from one RunLightNe call, without benchmark spans.
  ++out.attempted;
  const uint64_t reference_start_us = lightne::TraceClock::NowMicros();
  bool staged_equal = false;
  {
    auto reference = WithGraph(
        in, [&](const auto& g) { return lightne::RunLightNe(g, opt); });
    if (!reference.ok()) Fail(&out, "RunLightNe", reference.status());
    staged_equal =
        reference.ok() && SameMatrix(reference->embedding, embedding);
  }
  const uint64_t reference_end_us = lightne::TraceClock::NowMicros();
  const double untraced_s =
      static_cast<double>(reference_end_us - reference_start_us) * 1e-6;

  // ---- publish and serve, one layer call at a time.
  const std::string path = StorePath(a);
  Stage write_stage("layer/store_write");
  const lightne::Status written =
      EmbeddingStore::Write(embedding, path, lightne::QuantKind::kInt8);
  const StageMeasure sw = write_stage.Finish();
  ++out.attempted;
  if (!written.ok()) {
    Fail(&out, "EmbeddingStore::Write", written);
    return out;
  }
  Stage open_stage("layer/store_open");
  auto store = EmbeddingStore::Open(path);
  const StageMeasure so = open_stage.Finish();
  ++out.attempted;
  if (!store.ok()) {
    Fail(&out, "EmbeddingStore::Open", store.status());
    return out;
  }
  const MetricsSnapshot serve_before = MetricsRegistry::Global().Snapshot();
  const double serve_cpu0 = ProcessCpuSeconds();
  RequestStream stream(a.seed, n, spec.batch);
  Serving serving;
  Serve(*store, &stream, /*seconds=*/0, kTracedRequests,
        /*span_per_call=*/true, &out, &serving);
  const double serve_cpu = ProcessCpuSeconds() - serve_cpu0;
  const MetricsSnapshot serve_after = MetricsRegistry::Global().Snapshot();
  CheckServing(spec, in, embedding, *store, serving, a.seed, &log);

  // ---- per-layer metrics
  const lightne::SparsifierResult& sr = *sparsifier;
  const double drawn = static_cast<double>(sr.samples_drawn);
  const double accepted = static_cast<double>(sr.samples_accepted);
  m.push_back({"sparsifier.s", sp.wall_s, "s"});
  m.push_back({"sparsifier.cpu_util", sp.CpuUtil(), "ratio"});
  m.push_back({"sparsifier.hwm_mib", sp.hwm_mib, "MiB"});
  m.push_back({"sparsifier.samples_drawn", drawn, "count"});
  m.push_back({"sparsifier.samples_accepted", accepted, "count"});
  m.push_back({"sparsifier.accept_ratio", accepted / drawn, "ratio"});
  m.push_back({"sparsifier.accepted_per_s", accepted / sp.wall_s, "1/s"});
  m.push_back({"sparsifier.table_upserts",
               static_cast<double>(sr.table_upserts), "count"});
  m.push_back({"sparsifier.combiner_hit_ratio",
               static_cast<double>(sr.combiner_hits) / accepted, "ratio"});
  m.push_back({"sparsifier.distinct_entries",
               static_cast<double>(sr.distinct_entries), "count"});
  m.push_back({"sparsifier.table_bytes", static_cast<double>(sr.table_bytes),
               "bytes"});
  m.push_back({"sparsifier.passes", static_cast<double>(sr.attempts),
               "count"});
  m.push_back({"sparsifier.nnz", static_cast<double>(nnz_raw), "count"});

  const double pin = static_cast<double>(sp.Delta("walk/pin_hits"));
  const double cold = static_cast<double>(sp.Delta("walk/cold_hits"));
  const double miss = static_cast<double>(sp.Delta("walk/decode_misses"));
  m.push_back({"walk.pin_hits", pin, "count"});
  m.push_back({"walk.cold_hits", cold, "count"});
  m.push_back({"walk.decode_misses", miss, "count"});
  m.push_back({"walk.pin_hit_ratio",
               pin + cold + miss > 0 ? pin / (pin + cold + miss) : 0,
               "ratio"});
  m.push_back({"walk.pinned_bytes",
               in.compressed ? static_cast<double>(
                                   sp.after.GaugeValue("walk/pinned_bytes"))
                             : 0,
               "bytes"});

  m.push_back({"netmf.s", nm.wall_s, "s"});
  m.push_back({"netmf.nnz_out", static_cast<double>(nnz_out), "count"});

  const double rsvd_gflop = RsvdGflop(n, nnz_out, opt);
  m.push_back({"rsvd.s", rs.wall_s, "s"});
  m.push_back({"rsvd.sketch_s", rs.Span("rsvd/sketch"), "s"});
  m.push_back({"rsvd.power_iter_s", rs.Span("rsvd/power_iter"), "s"});
  m.push_back({"rsvd.project_s", rs.Span("rsvd/project"), "s"});
  m.push_back({"rsvd.small_svd_s", rs.Span("rsvd/small_svd"), "s"});
  m.push_back({"rsvd.recover_s", rs.Span("rsvd/recover"), "s"});
  m.push_back({"rsvd.gflop", rsvd_gflop, "Gflop"});
  m.push_back({"rsvd.gflops", rsvd_gflop / rs.wall_s, "Gflop/s"});
  m.push_back({"rsvd.cpu_util", rs.CpuUtil(), "ratio"});
  m.push_back({"rsvd.hwm_mib", rs.hwm_mib, "MiB"});

  const double prop_gflop =
      opt.spectral_propagation
          ? PropagationGflop(n, in.csr.NumDirectedEdges(), opt.dim,
                             opt.propagation.order)
          : 0;
  m.push_back({"propagation.s", pr.wall_s, "s"});
  m.push_back({"propagation.chebyshev_s", pr.Span("propagation/chebyshev"),
               "s"});
  m.push_back({"propagation.smoothing_s", pr.Span("propagation/smoothing"),
               "s"});
  m.push_back({"propagation.gflop", prop_gflop, "Gflop"});
  m.push_back({"propagation.cpu_util", pr.CpuUtil(), "ratio"});

  m.push_back({"store.write_s", sw.wall_s, "s"});
  m.push_back({"store.open_s", so.wall_s, "s"});
  m.push_back({"store.bytes", static_cast<double>(store->store_bytes()),
               "bytes"});

  const double rows_scored =
      static_cast<double>(serve_after.CounterValue("serve/rows_scored") -
                          serve_before.CounterValue("serve/rows_scored"));
  const double serve_s = serving.wall_s;
  m.push_back({"query.rows_scored_per_s", rows_scored / serve_s, "1/s"});
  m.push_back({"query.code_gbps",
               rows_scored * static_cast<double>(store->dims()) /
                   serve_s * 1e-9,
               "GB/s"});
  m.push_back({"query.cpu_util",
               serve_cpu / (serve_s * lightne::NumWorkers()), "ratio"});

  m.push_back({"trace.stage_total_s", staged_s, "s"});
  m.push_back({"trace.untraced_embed_s", untraced_s, "s"});
  m.push_back({"trace.gap_pct", 100.0 * (staged_s - untraced_s) / untraced_s,
               "%"});
  m.push_back({"trace.staged_equals_pipeline", staged_equal ? 1.0 : 0.0,
               "bool"});

  // ---- trace artifacts: Chrome trace of the whole run, self-time table.
  const std::vector<TraceEvent> events = recorder.EventsSince(trace_mark);
  const std::string trace_path = a.out_dir + "/trace.json";
  const lightne::Status traced =
      TraceRecorder::WriteChromeTrace(events, trace_path);
  if (!traced.ok()) {
    std::fprintf(stderr, "trace not written: %s\n",
                 traced.ToString().c_str());
  }
  // The table leaves out the spans of the untraced reference call.
  std::vector<TraceEvent> staged_events;
  for (const TraceEvent& e : events) {
    if (e.start_us < reference_start_us ||
        e.start_us + e.dur_us > reference_end_us) {
      staged_events.push_back(e);
    }
  }
  const std::string table = SelfTimeTable(staged_events, embed_start_us,
                                          embed_end_us, staged_s);
  if (!WriteText(a.out_dir + "/layers.txt", table)) {
    std::fprintf(stderr, "layer table not written\n");
  }
  std::fprintf(stderr, "%s", table.c_str());
  std::fprintf(stderr,
               "staged total %.3f s, untraced RunLightNe %.3f s, staged "
               "embedding %s the pipeline's\n",
               staged_s, untraced_s, staged_equal ? "equals" : "DIFFERS from");
  std::remove(path.c_str());
  out.correct = log.all_passed();
  std::fprintf(stderr, "%d checks, %d self-tests: %s\n", log.checks(),
               log.selftests(), log.all_passed() ? "all passed" : "FAILED");
  return out;
}

}  // namespace perfbench
