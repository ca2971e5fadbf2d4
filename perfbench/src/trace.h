#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checker.h"
#include "core/kamel_snapshot.h"
#include "geo/trajectory.h"
#include "nn/transformer.h"
#include "util.h"

namespace perfbench {

/// One traced interval, recorded from the benchmark's side of a call into
/// a layer. Spans of one request share `trace`; `parent` is the span that
/// caused this one (0 for a request's root).
struct Span {
  uint64_t trace = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  double start = 0.0;  // NowSeconds()
  double end = 0.0;
};

/// Per-thread span buffer: spans stay in memory until WriteSpans.
class SpanBuffer {
 public:
  /// Span ids are unique across buffers with distinct `thread_tag`s.
  explicit SpanBuffer(uint64_t thread_tag)
      : first_id_((thread_tag << 40) + 1), next_id_(first_id_) {}
  uint64_t Add(uint64_t trace, uint64_t parent, const char* name,
               double start, double end);
  /// Closes a span opened with Add(..., start, start).
  void SetEnd(uint64_t id, double end);
  std::vector<Span>& spans() { return spans_; }

 private:
  uint64_t first_id_;
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Writes spans as JSON lines (one object per span, times in µs relative
/// to `epoch`). Returns false if the file could not be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                double epoch);

/// Counters of the layer pass: every layer boundary the pipeline crosses,
/// measured from outside the program.
struct LayerCounters {
  int64_t trajectories = 0;
  int64_t gaps = 0;
  double plan_s = 0.0;       // KamelSnapshot::PlanImpute
  double acquire_s = 0.0;    // ModelRepository::SelectModelLadder
  double imputer_s = 0.0;    // BeamSearchImputer::Impute, BERT included
  double detok_s = 0.0;      // Detokenizer::DetokenizeInterior + timing
  int64_t detok_gaps = 0;
  double assemble_s = 0.0;   // KamelSnapshot::AssemblePlan
  double pipeline_s = 0.0;   // whole traced imputation, per thread
  // TrajBert::PredictMasked through the timing wrapper.
  int64_t predict_calls = 0;
  double predict_s = 0.0;
  double seq_len_sum = 0.0;
  std::map<int64_t, int64_t> seq_len_hist;
  std::vector<uint64_t> context_hashes;
  // SpatialConstraints::Filter replayed on each call's candidates.
  int64_t filter_calls = 0;
  double filter_s = 0.0;
  int64_t candidates_in = 0;
  int64_t candidates_kept = 0;
  // Beam search outcomes.
  int64_t model_gaps = 0;        // gaps a model was found for
  int64_t failed_gaps = 0;       // gaps drawn as straight lines
  int64_t failed_gap_calls = 0;  // BERT calls spent in failed gaps

  void Merge(const LayerCounters& other);
};

/// Result of the traced layer pass over a request pool.
struct LayerPass {
  LayerCounters counters;
  std::vector<Span> spans;
  int64_t stats_bert_calls = 0;  // summed ImputeStats.bert_calls (ImputeGap)
  Failures failures;            // cross-check failures
  kamel::nn::BertConfig config;  // encoder of the (first) model served
  int64_t vocab_size = 0;
};

/// Imputes every input through the public pipeline — PlanImpute,
/// SelectModelLadder, a BeamSearchImputer built here from the snapshot's
/// grid, options and speed bound driving a timing CandidateSource around
/// the selected TrajBert, DetokenizeInterior, AssemblePlan — on `threads`
/// threads, recording a span at each boundary. Then, untimed, checks
/// each gap against KamelSnapshot::ImputeGap (same points, failed flag
/// and BERT calls) and that wrapper calls equal the summed
/// ImputeStats.bert_calls.
LayerPass RunLayerPass(const kamel::KamelSnapshot& snapshot,
                       const std::vector<kamel::Trajectory>& inputs,
                       int threads);

/// nn::Backend op replays of one TrajBert forward at the recorded
/// sequence lengths (weighted by how often each length was served).
struct OpReplay {
  std::vector<std::pair<std::string, double>> op_us;  // per forward
  double total_us = 0.0;
  double mflop = 0.0;   // per forward, from tensor shapes
  double kbytes = 0.0;  // per forward, from tensor shapes
};
OpReplay ReplayForward(const kamel::nn::BertConfig& config, int64_t vocab_size,
                       int top_k,
                       const std::map<int64_t, int64_t>& seq_len_hist);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
