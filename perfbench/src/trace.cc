#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/imputer.h"
#include "core/spatial_constraints.h"
#include "nn/backend/backend.h"

namespace perfbench {

namespace {

using kamel::CellId;
using kamel::ImputedGap;
using kamel::KamelSnapshot;
using kamel::SegmentContext;
using kamel::TrajPoint;
using kamel::Vec2;

uint64_t HashContext(const std::vector<CellId>& left,
                     const std::vector<CellId>& right) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (CellId c : left) mix(c);
  mix(~0ULL - 1);  // separator: the mask position
  for (CellId c : right) mix(c);
  return h;
}

/// The timing CandidateSource: forwards to the selected TrajBert, times
/// the call, records the statement length and context, and replays the
/// constraint filter on the returned candidates (the imputer's own
/// Filter call is internal, so it is measured by an identical replay).
class TimingSource final : public kamel::CandidateSource {
 public:
  TimingSource(const kamel::TrajBert* model,
               const kamel::SpatialConstraints* constraints,
               const SegmentContext* context, LayerCounters* counters,
               SpanBuffer* spans, uint64_t trace, uint64_t parent)
      : model_(model),
        constraints_(constraints),
        context_(context),
        counters_(counters),
        spans_(spans),
        trace_(trace),
        parent_(parent) {}

  std::vector<kamel::Candidate> PredictMasked(
      const std::vector<CellId>& left, const std::vector<CellId>& right,
      int top_k) const override {
    const double t0 = NowSeconds();
    std::vector<kamel::Candidate> out =
        model_->PredictMasked(left, right, top_k);
    const double t1 = NowSeconds();
    const std::vector<kamel::Candidate> kept =
        constraints_->Filter(*context_, out);
    const double t2 = NowSeconds();
    spans_->Add(trace_, parent_, "bert.predict", t0, t1);
    spans_->Add(trace_, parent_, "spatial_constraints.filter", t1, t2);
    ++calls;
    counters_->predict_calls += 1;
    counters_->predict_s += t1 - t0;
    const int64_t seq_len =
        std::min<int64_t>(static_cast<int64_t>(left.size() + right.size()) + 3,
                          model_->config().max_seq_len);
    counters_->seq_len_sum += static_cast<double>(seq_len);
    counters_->seq_len_hist[seq_len] += 1;
    counters_->context_hashes.push_back(HashContext(left, right));
    counters_->filter_calls += 1;
    counters_->filter_s += t2 - t1;
    counters_->candidates_in += static_cast<int64_t>(out.size());
    counters_->candidates_kept += static_cast<int64_t>(kept.size());
    return out;
  }

  mutable int64_t calls = 0;  // this gap's calls

 private:
  const kamel::TrajBert* model_;
  const kamel::SpatialConstraints* constraints_;
  const SegmentContext* context_;
  LayerCounters* counters_;
  SpanBuffer* spans_;
  uint64_t trace_;
  uint64_t parent_;
};

/// What ImputeSegment does after the imputer returns: detokenize the
/// interior cells and time them linearly in arc length.
void AppendDetokenized(const KamelSnapshot& snapshot,
                       const std::vector<CellId>& cells,
                       const SegmentContext& context,
                       std::vector<TrajPoint>* out) {
  const std::vector<Vec2> interior = snapshot.detokenizer().DetokenizeInterior(
      cells, context.s.position, context.d.position);
  if (interior.empty()) return;
  std::vector<Vec2> path = {context.s.position};
  path.insert(path.end(), interior.begin(), interior.end());
  path.push_back(context.d.position);
  double total = 0.0;
  for (size_t i = 1; i < path.size(); ++i) {
    total += kamel::Distance(path[i - 1], path[i]);
  }
  double walked = 0.0;
  for (size_t i = 1; i + 1 < path.size(); ++i) {
    walked += kamel::Distance(path[i - 1], path[i]);
    const double f = total > 0.0 ? walked / total : 0.0;
    out->push_back({snapshot.projection().Unproject(path[i]),
                    context.s.time + f * (context.d.time - context.s.time)});
  }
}

void AppendStraightLine(const KamelSnapshot& snapshot,
                        const SegmentContext& context,
                        std::vector<TrajPoint>* out) {
  const Vec2 s = context.s.position;
  const Vec2 d = context.d.position;
  const int steps = static_cast<int>(
      std::floor(kamel::Distance(s, d) / snapshot.options().max_gap_m));
  for (int i = 1; i <= steps; ++i) {
    const double t = static_cast<double>(i) / (steps + 1);
    out->push_back({snapshot.projection().Unproject(s + (d - s) * t),
                    context.s.time + t * (context.d.time - context.s.time)});
  }
}

bool SameGap(const ImputedGap& a, const ImputedGap& b) {
  if (a.interior.size() != b.interior.size()) return false;
  for (size_t i = 0; i < a.interior.size(); ++i) {
    if (std::fabs(a.interior[i].pos.lat - b.interior[i].pos.lat) > 1e-9 ||
        std::fabs(a.interior[i].pos.lng - b.interior[i].pos.lng) > 1e-9 ||
        std::fabs(a.interior[i].time - b.interior[i].time) > 1e-9) {
      return false;
    }
  }
  const kamel::ImputeStats& x = a.stats;
  const kamel::ImputeStats& y = b.stats;
  return x.segments == y.segments && x.failed_segments == y.failed_segments &&
         x.no_model_segments == y.no_model_segments &&
         x.full_model_segments == y.full_model_segments &&
         x.ancestor_segments == y.ancestor_segments &&
         x.bert_calls == y.bert_calls;
}

struct TrajWork {
  kamel::ImputePlan plan;
  std::vector<ImputedGap> gaps;
  bool planned = false;
};

}  // namespace

uint64_t SpanBuffer::Add(uint64_t trace, uint64_t parent, const char* name,
                         double start, double end) {
  const uint64_t id = next_id_++;
  spans_.push_back({trace, id, parent, name, start, end});
  return id;
}

void SpanBuffer::SetEnd(uint64_t id, double end) {
  spans_[static_cast<size_t>(id - first_id_)].end = end;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                double epoch) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"trace\":%llu,\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 static_cast<unsigned long long>(s.trace),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 (s.start - epoch) * 1e6, (s.end - epoch) * 1e6);
  }
  return std::fclose(f) == 0;
}

void LayerCounters::Merge(const LayerCounters& o) {
  trajectories += o.trajectories;
  gaps += o.gaps;
  plan_s += o.plan_s;
  acquire_s += o.acquire_s;
  imputer_s += o.imputer_s;
  detok_s += o.detok_s;
  detok_gaps += o.detok_gaps;
  assemble_s += o.assemble_s;
  pipeline_s += o.pipeline_s;
  predict_calls += o.predict_calls;
  predict_s += o.predict_s;
  seq_len_sum += o.seq_len_sum;
  for (const auto& [len, n] : o.seq_len_hist) seq_len_hist[len] += n;
  context_hashes.insert(context_hashes.end(), o.context_hashes.begin(),
                        o.context_hashes.end());
  filter_calls += o.filter_calls;
  filter_s += o.filter_s;
  candidates_in += o.candidates_in;
  candidates_kept += o.candidates_kept;
  model_gaps += o.model_gaps;
  failed_gaps += o.failed_gaps;
  failed_gap_calls += o.failed_gap_calls;
}

LayerPass RunLayerPass(const KamelSnapshot& snapshot,
                       const std::vector<kamel::Trajectory>& inputs,
                       int threads) {
  LayerPass pass;
  kamel::SpatialConstraints constraints(&snapshot.grid(), snapshot.options());
  constraints.set_max_speed_mps(snapshot.max_speed_mps());
  const kamel::BeamSearchImputer imputer(&snapshot.grid(), &constraints,
                                         snapshot.options());

  std::vector<TrajWork> work(inputs.size());
  std::vector<LayerCounters> counters(static_cast<size_t>(threads));
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  for (int t = 0; t < threads; ++t) {
    buffers.push_back(std::make_unique<SpanBuffer>(t + 1));
  }
  auto run = [&](int t, size_t i) {
    LayerCounters& c = counters[static_cast<size_t>(t)];
    SpanBuffer& spans = *buffers[static_cast<size_t>(t)];
    {
      const uint64_t trace = i + 1;
      const double t_begin = NowSeconds();
      auto plan = snapshot.PlanImpute(inputs[i]);
      const double t_planned = NowSeconds();
      c.plan_s += t_planned - t_begin;
      ++c.trajectories;
      if (!plan.ok()) return;  // reported by the cross-check below
      TrajWork& w = work[i];
      w.planned = true;
      w.plan = std::move(plan).value();
      // Root span ids are known only at the end; children point at the
      // request via `trace` and at their gap span via `parent`.
      for (const kamel::GapPlanEntry& entry : w.plan.gaps) {
        const SegmentContext& context = entry.context;
        ++c.gaps;
        const double g0 = NowSeconds();
        const kamel::ModelRepository::ModelSelection selection =
            snapshot.repository().SelectModelLadder(kamel::GapMbr(context));
        const double g1 = NowSeconds();
        c.acquire_s += g1 - g0;
        const uint64_t gap_span = spans.Add(trace, 0, "gap", g0, g0);
        spans.Add(trace, gap_span, "model_repository.select", g0, g1);

        ImputedGap gap;
        gap.stats.segments = 1;
        bool failed = true;
        if (selection.model != nullptr) {
          ++c.model_gaps;
          if (selection.degraded()) {
            ++gap.stats.ancestor_segments;
          } else {
            ++gap.stats.full_model_segments;
          }
          TimingSource source(selection.model.get(), &constraints, &context,
                              &c, &spans, trace, gap_span);
          const double i0 = NowSeconds();
          const kamel::ImputedSegment segment =
              imputer.Impute(&source, context);
          const double i1 = NowSeconds();
          c.imputer_s += i1 - i0;
          spans.Add(trace, gap_span, "imputer.impute", i0, i1);
          gap.stats.bert_calls = segment.bert_calls;
          failed = segment.failed;
          if (failed) {
            c.failed_gap_calls += source.calls;
          } else {
            const double d0 = NowSeconds();
            AppendDetokenized(snapshot, segment.cells, context,
                              &gap.interior);
            const double d1 = NowSeconds();
            c.detok_s += d1 - d0;
            ++c.detok_gaps;
            spans.Add(trace, gap_span, "detokenizer.detokenize", d0, d1);
          }
          if (pass.vocab_size == 0) {
            pass.config = selection.model->config();
            pass.vocab_size = selection.model->vocab().size();
          }
        } else {
          ++gap.stats.no_model_segments;
        }
        if (failed) {
          ++c.failed_gaps;
          ++gap.stats.failed_segments;
          AppendStraightLine(snapshot, context, &gap.interior);
        }
        gap.stats.outcomes.push_back(
            {context.s.time, context.d.time, failed});
        spans.SetEnd(gap_span, NowSeconds());
        w.gaps.push_back(std::move(gap));
      }
      const double a0 = NowSeconds();
      const kamel::ImputedTrajectory assembled =
          snapshot.AssemblePlan(inputs[i], w.plan, w.gaps);
      const double a1 = NowSeconds();
      (void)assembled;
      c.assemble_s += a1 - a0;
      c.pipeline_s += a1 - t_begin;
      spans.Add(trace, 0, "tokenizer.plan", t_begin, t_planned);
      spans.Add(trace, 0, "snapshot.assemble", a0, a1);
      spans.Add(trace, 0, "request", t_begin, a1);
    }
  };

  ParallelFor(inputs.size(), threads, run);

  for (int t = 0; t < threads; ++t) {
    pass.counters.Merge(counters[static_cast<size_t>(t)]);
    std::vector<Span>& s = buffers[static_cast<size_t>(t)]->spans();
    pass.spans.insert(pass.spans.end(), s.begin(), s.end());
  }

  // Cross-check, untimed: the shadow pipeline must reproduce ImputeGap.
  std::vector<int64_t> real_calls(inputs.size(), 0);
  std::vector<int64_t> mismatches(inputs.size(), 0);
  ParallelFor(inputs.size(), threads, [&](int, size_t i) {
    const TrajWork& w = work[i];
    for (size_t g = 0; g < w.plan.gaps.size(); ++g) {
      const ImputedGap real = snapshot.ImputeGap(w.plan.gaps[g].context,
                                                 kamel::ImputeMode::kFull);
      real_calls[i] += real.stats.bert_calls;
      if (!SameGap(w.gaps[g], real)) ++mismatches[i];
    }
  });
  int64_t mismatched = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!work[i].planned) {
      pass.failures.push_back("PlanImpute failed on trajectory " +
                              std::to_string(inputs[i].id));
    }
    pass.stats_bert_calls += real_calls[i];
    mismatched += mismatches[i];
  }
  if (mismatched > 0) {
    pass.failures.push_back("shadow imputer differs from ImputeGap on " +
                            std::to_string(mismatched) + " gaps");
  }
  if (pass.counters.predict_calls != pass.stats_bert_calls) {
    pass.failures.push_back(
        "wrapper counted " + std::to_string(pass.counters.predict_calls) +
        " BERT calls, ImputeStats " + std::to_string(pass.stats_bert_calls));
  }
  return pass;
}

// ---------------------------------------------------------------------------
// nn op replays
// ---------------------------------------------------------------------------

namespace {

/// Times `fn` over enough repetitions to fill ~2 ms; µs per call.
template <typename Fn>
double TimeUs(Fn&& fn) {
  fn();  // warm
  int reps = 0;
  const double start = NowSeconds();
  double elapsed = 0.0;
  do {
    fn();
    ++reps;
    elapsed = NowSeconds() - start;
  } while (elapsed < 2e-3 || reps < 20);
  return elapsed * 1e6 / reps;
}

std::vector<float> Filled(size_t n, uint64_t seed) {
  std::vector<float> v(n);
  SplitMix rng(seed);
  for (float& x : v) x = static_cast<float>(rng.NextUnit() - 0.5) * 0.2f;
  return v;
}

}  // namespace

OpReplay ReplayForward(const kamel::nn::BertConfig& config,
                       int64_t vocab_size, int top_k,
                       const std::map<int64_t, int64_t>& seq_len_hist) {
  namespace nn = kamel::nn;
  const nn::Backend& be = *nn::ActiveBackend();
  const int64_t d = config.d_model;
  const int64_t f = config.ffn_dim;
  const int64_t v = vocab_size;
  const int64_t heads = config.num_heads;
  const int64_t layers = config.num_layers;
  const int64_t max_l = config.max_seq_len;

  const std::vector<float> table = Filled(size_t(v * d), 1);
  const std::vector<float> pos = Filled(size_t(max_l * d), 2);
  const std::vector<float> w_qkv = Filled(size_t(d * 3 * d), 3);
  const std::vector<float> b_qkv = Filled(size_t(3 * d), 4);
  const std::vector<float> w_out = Filled(size_t(d * d), 5);
  const std::vector<float> b_d = Filled(size_t(d), 6);
  const std::vector<float> w_up = Filled(size_t(d * f), 7);
  const std::vector<float> b_f = Filled(size_t(f), 8);
  const std::vector<float> w_down = Filled(size_t(f * d), 9);
  const std::vector<float> w_head = Filled(size_t(d * v), 10);
  const std::vector<float> b_v = Filled(size_t(v), 11);
  const std::vector<float> gamma(static_cast<size_t>(d), 1.0f);
  const std::vector<float> beta(static_cast<size_t>(d), 0.0f);
  std::vector<float> x = Filled(size_t(max_l * d), 12);
  std::vector<float> y(static_cast<size_t>(max_l * std::max({3 * d, f, v})));
  std::vector<float> qkv = Filled(size_t(max_l * 3 * d), 13);
  std::vector<float> hidden = Filled(size_t(max_l * f), 14);
  std::vector<float> probs(static_cast<size_t>(v));
  std::vector<int32_t> order(static_cast<size_t>(v));
  const std::vector<float> key_mask(static_cast<size_t>(max_l), 1.0f);
  const std::vector<int32_t> ids = [&] {
    std::vector<int32_t> out(static_cast<size_t>(max_l));
    SplitMix rng(15);
    for (int32_t& id : out) id = static_cast<int32_t>(rng.Next() % v);
    return out;
  }();

  const char* kOps[] = {"embedding",   "qkv",         "attention",
                        "attn_out",    "ffn_up_gelu", "ffn_down",
                        "layernorm",   "mlm_head",    "softmax_topk"};
  constexpr int kNumOps = 9;
  double op_us[kNumOps] = {};
  double total_weight = 0.0;
  OpReplay replay;
  for (const auto& [len, count] : seq_len_hist) {
    const int64_t l = std::clamp<int64_t>(len, 1, max_l);
    const double w = static_cast<double>(count);
    total_weight += w;
    double t[kNumOps];
    t[0] = TimeUs([&] {
      for (int64_t i = 0; i < l; ++i) {
        std::memcpy(x.data() + i * d, table.data() + ids[size_t(i)] * d,
                    size_t(d) * sizeof(float));
        be.Axpy(d, 1.0f, pos.data() + i * d, x.data() + i * d);
      }
    });
    t[1] = layers * TimeUs([&] {
             be.LinearForward(l, d, 3 * d, x.data(),
                              nn::WeightView::Dense(w_qkv.data()),
                              b_qkv.data(), nn::Activation::kNone, qkv.data());
           });
    t[2] = layers * TimeUs([&] {
             be.AttentionContext(qkv.data(), key_mask.data(), 1, l, d, heads,
                                 nullptr, y.data());
           });
    t[3] = layers * TimeUs([&] {
             be.LinearForward(l, d, d, x.data(),
                              nn::WeightView::Dense(w_out.data()), b_d.data(),
                              nn::Activation::kNone, y.data());
           });
    t[4] = layers * TimeUs([&] {
             be.LinearForward(l, d, f, x.data(),
                              nn::WeightView::Dense(w_up.data()), b_f.data(),
                              nn::Activation::kGelu, hidden.data());
           });
    t[5] = layers * TimeUs([&] {
             be.LinearForward(l, f, d, hidden.data(),
                              nn::WeightView::Dense(w_down.data()),
                              b_d.data(), nn::Activation::kNone, y.data());
           });
    t[6] = (2 * layers + 1) * TimeUs([&] {
             be.LayerNormRows(l, d, x.data(), gamma.data(), beta.data(), 1e-5f,
                              y.data());
           });
    t[7] = TimeUs([&] {
      be.LinearForward(l, d, v, x.data(), nn::WeightView::Dense(w_head.data()),
                       b_v.data(), nn::Activation::kNone, y.data());
    });
    t[8] = TimeUs([&] {
      be.SoftmaxRows(1, v, y.data(), probs.data());
      double mass = 0.0;
      for (int64_t k = 0; k < v; ++k) {
        mass += probs[size_t(k)];
        order[size_t(k)] = static_cast<int32_t>(k);
      }
      const int64_t keep = std::min<int64_t>(top_k, v);
      std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                        [&](int32_t a, int32_t b) {
                          return probs[size_t(a)] > probs[size_t(b)];
                        });
      if (mass < 0.0) std::abort();  // keeps the loop observable
    });
    for (int k = 0; k < kNumOps; ++k) op_us[k] += w * t[k];

    // Shapes -> flops and bytes (4-byte floats) of one forward at l.
    const double L = double(l), D = double(d), F = double(f), V = double(v);
    const double flop =
        layers * (2 * L * D * 3 * D + 4 * L * L * D + 2 * L * D * D +
                  4 * L * D * F) +
        2 * L * D * V;
    const double floats =
        3 * L * D +                                       // embedding
        layers * ((L * D + 3 * D * D + 3 * D + 3 * L * D) +  // qkv
                  (3 * L * D + L * D + heads * L * L) +   // attention
                  (L * D + D * D + D + L * D) +           // attn_out
                  (L * D + D * F + F + L * F) +           // ffn_up_gelu
                  (L * F + F * D + D + L * D)) +          // ffn_down
        (2 * layers + 1) * (2 * L * D + 2 * D) +          // layernorm
        (L * D + D * V + V + L * V) +                     // mlm_head
        2 * V;                                            // softmax_topk
    replay.mflop += w * flop / 1e6;
    replay.kbytes += w * floats * 4.0 / 1e3;
  }
  if (total_weight > 0.0) {
    for (int k = 0; k < kNumOps; ++k) {
      replay.op_us.emplace_back(kOps[k], op_us[k] / total_weight);
      replay.total_us += op_us[k] / total_weight;
    }
    replay.mflop /= total_weight;
    replay.kbytes /= total_weight;
  } else {
    for (int k = 0; k < kNumOps; ++k) replay.op_us.emplace_back(kOps[k], 0.0);
  }
  return replay;
}

}  // namespace perfbench
