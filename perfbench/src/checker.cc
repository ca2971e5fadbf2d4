#include "checker.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

using kamel::ImputedTrajectory;
using kamel::Trajectory;
using kamel::TrajPoint;
using kamel::Vec2;

// A kept observation comes back through project/unproject; anything
// beyond a centimetre is a different point.
constexpr double kSamePointM = 0.01;
// Straight-line fallback points must sit on the S-D line at the linear
// fractions; a detokenized centroid never lands this close by accident.
constexpr double kOnLineM = 0.01;
constexpr double kTimeEps = 1e-6;

std::string Fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

// Output indices of the kept observations, in order (empty on a
// structural failure, which is appended to `failures`).
std::vector<size_t> Anchors(const CheckGeometry& geometry,
                            const Trajectory& sparse,
                            const ImputedTrajectory& out,
                            Failures* failures) {
  const std::vector<TrajPoint>& pts = out.trajectory.points;
  std::vector<size_t> anchors;
  size_t cursor = 0;
  bool have_kept = false;
  kamel::CellId kept_cell = kamel::kInvalidCellId;
  for (size_t j = 0; j < sparse.points.size(); ++j) {
    const TrajPoint& obs = sparse.points[j];
    const Vec2 p = geometry.projection->Project(obs.pos);
    size_t found = pts.size();
    for (size_t k = cursor; k < pts.size(); ++k) {
      if (pts[k].time == obs.time &&
          kamel::Distance(geometry.projection->Project(pts[k].pos), p) <=
              kSamePointM) {
        found = k;
        break;
      }
    }
    const kamel::CellId cell = geometry.grid->CellOf(p);
    if (found < pts.size()) {
      anchors.push_back(found);
      cursor = found + 1;
      have_kept = true;
      kept_cell = cell;
      continue;
    }
    const bool last = j + 1 == sparse.points.size();
    if (j == 0 || last || !have_kept || cell != kept_cell) {
      failures->push_back(
          Fmt("observation at t=%.3f missing or out of order", obs.time));
      return {};
    }
  }
  return anchors;
}

bool IsStraightFallback(const CheckGeometry& geometry, const TrajPoint& s,
                        const TrajPoint& d,
                        const std::vector<TrajPoint>& interior) {
  const Vec2 sp = geometry.projection->Project(s.pos);
  const Vec2 dp = geometry.projection->Project(d.pos);
  const int steps = static_cast<int>(
      std::floor(kamel::Distance(sp, dp) / geometry.max_gap_m));
  if (static_cast<int>(interior.size()) != steps) return false;
  for (int i = 1; i <= steps; ++i) {
    const double f = static_cast<double>(i) / (steps + 1);
    const Vec2 want = sp + (dp - sp) * f;
    const TrajPoint& got = interior[static_cast<size_t>(i - 1)];
    if (kamel::Distance(geometry.projection->Project(got.pos), want) >
        kOnLineM) {
      return false;
    }
    if (std::fabs(got.time - (s.time + f * (d.time - s.time))) > kTimeEps) {
      return false;
    }
  }
  return true;
}

bool IsGap(const CheckGeometry& geometry, const TrajPoint& a,
           const TrajPoint& b) {
  const kamel::CellId ca =
      geometry.grid->CellOf(geometry.projection->Project(a.pos));
  const kamel::CellId cb =
      geometry.grid->CellOf(geometry.projection->Project(b.pos));
  return geometry.grid->GridDistance(ca, cb) > geometry.MaxGapCells();
}

std::vector<TrajPoint> Slice(const std::vector<TrajPoint>& pts, size_t a,
                             size_t b) {
  return {pts.begin() + static_cast<std::ptrdiff_t>(a + 1),
          pts.begin() + static_cast<std::ptrdiff_t>(b)};
}

// ---- own Section 8 metric --------------------------------------------

double SegmentDistance(const Vec2& p, const Vec2& a, const Vec2& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double len2 = dx * dx + dy * dy;
  double t = 0.0;
  if (len2 > 0.0) {
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / len2;
    t = std::min(1.0, std::max(0.0, t));
  }
  const double ex = a.x + t * dx - p.x;
  const double ey = a.y + t * dy - p.y;
  return std::sqrt(ex * ex + ey * ey);
}

double PolylineDistance(const Vec2& p, const std::vector<Vec2>& line) {
  if (line.empty()) return std::numeric_limits<double>::infinity();
  if (line.size() == 1) return kamel::Distance(p, line[0]);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 1; i < line.size(); ++i) {
    best = std::min(best, SegmentDistance(p, line[i - 1], line[i]));
  }
  return best;
}

// Points every `spacing` metres of arc length from the start, plus the
// end point when arc length is left over.
std::vector<Vec2> Discretize(const std::vector<Vec2>& line, double spacing) {
  if (line.size() <= 1) return line;
  std::vector<Vec2> out = {line.front()};
  double next_at = spacing;  // arc length of the next sample
  double walked = 0.0;       // arc length at line[i - 1]
  for (size_t i = 1; i < line.size(); ++i) {
    const double len = kamel::Distance(line[i - 1], line[i]);
    while (len > 0.0 && walked + len >= next_at) {
      const double f = (next_at - walked) / len;
      out.push_back(line[i - 1] + (line[i] - line[i - 1]) * f);
      next_at += spacing;
    }
    walked += len;
  }
  if (walked - (next_at - spacing) > 1e-9 || out.size() == 1) {
    out.push_back(line.back());
  }
  return out;
}

struct Projected {
  std::vector<Vec2> points;
  std::vector<double> times;
};

Projected ProjectAll(const CheckGeometry& geometry,
                     const std::vector<TrajPoint>& pts) {
  Projected out;
  out.points.reserve(pts.size());
  out.times.reserve(pts.size());
  for (const TrajPoint& p : pts) {
    out.points.push_back(geometry.projection->Project(p.pos));
    out.times.push_back(p.time);
  }
  return out;
}

std::vector<Vec2> Between(const Projected& line, double t0, double t1) {
  std::vector<Vec2> out;
  for (size_t i = 0; i < line.points.size(); ++i) {
    if (line.times[i] >= t0 - 1e-9 && line.times[i] <= t1 + 1e-9) {
      out.push_back(line.points[i]);
    }
  }
  return out;
}

int64_t HitsWithin(const std::vector<Vec2>& samples,
                   const std::vector<Vec2>& reference, double delta_m) {
  int64_t hits = 0;
  for (const Vec2& s : samples) {
    if (PolylineDistance(s, reference) <= delta_m) ++hits;
  }
  return hits;
}

}  // namespace

CheckGeometry CheckGeometry::Of(const kamel::KamelSnapshot& snapshot) {
  return {&snapshot.grid(), &snapshot.projection(),
          snapshot.options().max_gap_m};
}

int CheckGeometry::MaxGapCells() const {
  return std::max(1, static_cast<int>(std::floor(
                         max_gap_m / grid->NeighborSpacingMeters())));
}

double CheckGeometry::MaxStepMeters() const {
  return (MaxGapCells() + 2) * grid->NeighborSpacingMeters();
}

Failures CheckStructure(const CheckGeometry& geometry,
                        const Trajectory& sparse,
                        const ImputedTrajectory& out) {
  Failures failures;
  const std::vector<TrajPoint>& pts = out.trajectory.points;
  if (sparse.points.empty() || pts.empty()) {
    failures.push_back("empty input or output");
    return failures;
  }
  for (size_t i = 1; i < pts.size(); ++i) {
    if (pts[i].time < pts[i - 1].time) {
      failures.push_back(Fmt("time decreases at point %.0f", double(i)));
      return failures;
    }
  }
  if (pts.front().time != sparse.points.front().time ||
      pts.back().time != sparse.points.back().time) {
    failures.push_back(Fmt("output spans [%.3f, %.3f], input ends at %.3f",
                           pts.front().time, pts.back().time,
                           sparse.points.back().time));
  }
  const std::vector<size_t> anchors =
      Anchors(geometry, sparse, out, &failures);
  if (anchors.empty()) return failures;
  if (anchors.front() != 0 || anchors.back() + 1 != pts.size()) {
    failures.push_back("points outside the first/last observation");
  }
  for (size_t g = 0; g + 1 < anchors.size(); ++g) {
    const TrajPoint& s = pts[anchors[g]];
    const TrajPoint& d = pts[anchors[g + 1]];
    const std::vector<TrajPoint> interior =
        Slice(pts, anchors[g], anchors[g + 1]);
    for (const TrajPoint& p : interior) {
      if (p.time < s.time || p.time > d.time) {
        failures.push_back(Fmt("inserted point t=%.3f outside gap [%.3f, %.3f]",
                               p.time, s.time, d.time));
        return failures;
      }
    }
    if (!IsGap(geometry, s, d)) {
      if (!interior.empty()) {
        failures.push_back(Fmt("points inserted where no gap is (t=%.3f)",
                               s.time));
      }
      continue;
    }
    const kamel::SegmentOutcome* outcome = nullptr;
    for (const kamel::SegmentOutcome& o : out.stats.outcomes) {
      if (o.s_time == s.time) {
        outcome = &o;
        break;
      }
    }
    if (outcome == nullptr) {
      failures.push_back(Fmt("gap at t=%.3f has no outcome", s.time));
      continue;
    }
    if (outcome->failed) {
      if (!IsStraightFallback(geometry, s, d, interior)) {
        failures.push_back(
            Fmt("failed gap at t=%.3f is not a straight line", s.time));
      }
      continue;
    }
    std::vector<Vec2> walk = {geometry.projection->Project(s.pos)};
    for (const TrajPoint& p : interior) {
      walk.push_back(geometry.projection->Project(p.pos));
    }
    walk.push_back(geometry.projection->Project(d.pos));
    for (size_t i = 1; i < walk.size(); ++i) {
      const double step = kamel::Distance(walk[i - 1], walk[i]);
      if (step > geometry.MaxStepMeters()) {
        failures.push_back(Fmt("imputed gap at t=%.3f steps %.1f m > %.1f m",
                               s.time, step, geometry.MaxStepMeters()));
        break;
      }
    }
  }
  return failures;
}

GapCounts CountGapsFromOutput(const CheckGeometry& geometry,
                              const Trajectory& sparse,
                              const ImputedTrajectory& out) {
  GapCounts counts;
  Failures ignored;
  const std::vector<TrajPoint>& pts = out.trajectory.points;
  const std::vector<size_t> anchors = Anchors(geometry, sparse, out, &ignored);
  for (size_t g = 0; g + 1 < anchors.size(); ++g) {
    const TrajPoint& s = pts[anchors[g]];
    const TrajPoint& d = pts[anchors[g + 1]];
    if (!IsGap(geometry, s, d)) continue;
    ++counts.segments;
    if (IsStraightFallback(geometry, s, d,
                           Slice(pts, anchors[g], anchors[g + 1]))) {
      ++counts.failed;
    }
  }
  return counts;
}

Failures CheckStatsMatchOutputs(const CheckGeometry& geometry,
                                const std::vector<Request>& requests) {
  GapCounts from_outputs;
  int64_t stats_segments = 0;
  int64_t stats_failed = 0;
  for (const Request& r : requests) {
    const GapCounts c = CountGapsFromOutput(geometry, *r.sparse, *r.out);
    from_outputs.segments += c.segments;
    from_outputs.failed += c.failed;
    stats_segments += r.out->stats.segments;
    stats_failed += r.out->stats.failed_segments;
  }
  Failures failures;
  if (from_outputs.segments != stats_segments ||
      from_outputs.failed != stats_failed) {
    failures.push_back(
        Fmt("outputs show %.0f gaps / %.0f failed, ImputeStats says %.0f",
            double(from_outputs.segments), double(from_outputs.failed),
            double(stats_segments)) +
        " / " + std::to_string(stats_failed));
  }
  return failures;
}

double Quality::recall() const {
  return recall_total == 0 ? 0.0
                           : static_cast<double>(recall_hits) / recall_total;
}

double Quality::precision() const {
  return precision_total == 0
             ? 0.0
             : static_cast<double>(precision_hits) / precision_total;
}

Quality ScoreOwn(const CheckGeometry& geometry,
                 const std::vector<Request>& requests, double delta_m) {
  Quality q;
  for (const Request& r : requests) {
    const Projected truth = ProjectAll(geometry, r.dense->points);
    const Projected output = ProjectAll(geometry, r.out->trajectory.points);
    const std::vector<TrajPoint>& kept = r.sparse->points;
    for (size_t s = 0; s + 1 < kept.size(); ++s) {
      const double t0 = kept[s].time;
      const double t1 = kept[s + 1].time;
      const std::vector<Vec2> truth_slice = Between(truth, t0, t1);
      if (truth_slice.size() < 2) continue;
      const std::vector<Vec2> truth_samples =
          Discretize(truth_slice, geometry.max_gap_m);
      q.recall_total += static_cast<int64_t>(truth_samples.size());
      q.recall_hits += HitsWithin(truth_samples, output.points, delta_m);
      const std::vector<Vec2> output_slice = Between(output, t0, t1);
      if (output_slice.size() < 2) continue;
      const std::vector<Vec2> output_samples =
          Discretize(output_slice, geometry.max_gap_m);
      q.precision_total += static_cast<int64_t>(output_samples.size());
      q.precision_hits += HitsWithin(output_samples, truth.points, delta_m);
    }
  }
  return q;
}

kamel::EvalResult ScoreWithEvaluator(const CheckGeometry& geometry,
                                     const std::vector<Request>& requests,
                                     double delta_m) {
  kamel::RunOutput run;
  for (const Request& r : requests) {
    kamel::TrajRun traj;
    for (const TrajPoint& p : r.dense->points) {
      traj.dense.push_back(geometry.projection->Project(p.pos));
      traj.dense_times.push_back(p.time);
    }
    for (const TrajPoint& p : r.out->trajectory.points) {
      traj.imputed.push_back(geometry.projection->Project(p.pos));
      traj.imputed_times.push_back(p.time);
    }
    for (const TrajPoint& p : r.sparse->points) {
      traj.sparse_times.push_back(p.time);
    }
    traj.outcomes = r.out->stats.outcomes;
    run.runs.push_back(std::move(traj));
  }
  kamel::ScoreConfig config;
  config.delta_m = delta_m;
  config.max_gap_m = geometry.max_gap_m;
  const kamel::Evaluator evaluator(geometry.projection);
  return evaluator.Score(run, config);
}

Failures CheckQualityAgrees(const Quality& own,
                            const kamel::EvalResult& evaluator) {
  Failures failures;
  if (own.recall() != evaluator.recall ||
      own.precision() != evaluator.precision) {
    failures.push_back(Fmt(
        "own metric recall %.6f precision %.6f != Evaluator::Score recall %.6f",
        own.recall(), own.precision(), evaluator.recall) +
                       Fmt(" precision %.6f", evaluator.precision));
  }
  return failures;
}

ImputedTrajectory LinearInterpolation(const CheckGeometry& geometry,
                                      const Trajectory& sparse) {
  ImputedTrajectory out;
  out.trajectory.id = sparse.id;
  for (size_t i = 0; i < sparse.points.size(); ++i) {
    const TrajPoint& s = sparse.points[i];
    out.trajectory.points.push_back(s);
    if (i + 1 == sparse.points.size()) break;
    const TrajPoint& d = sparse.points[i + 1];
    const Vec2 sp = geometry.projection->Project(s.pos);
    const Vec2 dp = geometry.projection->Project(d.pos);
    const int steps = static_cast<int>(
        std::floor(kamel::Distance(sp, dp) / geometry.max_gap_m));
    for (int k = 1; k <= steps; ++k) {
      const double f = static_cast<double>(k) / (steps + 1);
      out.trajectory.points.push_back(
          {geometry.projection->Unproject(sp + (dp - sp) * f),
           s.time + f * (d.time - s.time)});
    }
  }
  return out;
}

Failures CheckBeatsLinear(const Quality& kamel, const Quality& linear) {
  Failures failures;
  if (!(kamel.recall() > linear.recall())) {
    failures.push_back(Fmt("KAMEL recall %.6f is not above linear %.6f",
                           kamel.recall(), linear.recall()));
  }
  return failures;
}

Failures CheckSameOutput(const ImputedTrajectory& got,
                         const ImputedTrajectory& want,
                         const std::string& what) {
  Failures failures;
  const auto& a = got.trajectory.points;
  const auto& b = want.trajectory.points;
  bool same = got.trajectory.id == want.trajectory.id && a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].pos.lat == b[i].pos.lat && a[i].pos.lng == b[i].pos.lng &&
           a[i].time == b[i].time;
  }
  const kamel::ImputeStats& x = got.stats;
  const kamel::ImputeStats& y = want.stats;
  same = same && x.segments == y.segments &&
         x.failed_segments == y.failed_segments &&
         x.no_model_segments == y.no_model_segments &&
         x.deadline_segments == y.deadline_segments &&
         x.overload_segments == y.overload_segments &&
         x.full_model_segments == y.full_model_segments &&
         x.ancestor_segments == y.ancestor_segments &&
         x.bert_calls == y.bert_calls &&
         x.outcomes.size() == y.outcomes.size();
  for (size_t i = 0; same && i < x.outcomes.size(); ++i) {
    same = x.outcomes[i].s_time == y.outcomes[i].s_time &&
           x.outcomes[i].d_time == y.outcomes[i].d_time &&
           x.outcomes[i].failed == y.outcomes[i].failed;
  }
  if (!same) {
    failures.push_back(what + ": trajectory " +
                       std::to_string(want.trajectory.id) +
                       " differs from the reference output");
  }
  return failures;
}

RunCheck CheckRun(const CheckGeometry& geometry,
                  const std::vector<Request>& requests, double delta_m) {
  RunCheck check;
  std::vector<ImputedTrajectory> linear_outputs;
  linear_outputs.reserve(requests.size());
  for (const Request& r : requests) {
    for (std::string& f : CheckStructure(geometry, *r.sparse, *r.out)) {
      check.failures.push_back("trajectory " + std::to_string(r.sparse->id) +
                               ": " + f);
    }
    check.segments += r.out->stats.segments;
    check.failed_segments += r.out->stats.failed_segments;
    check.bert_calls += r.out->stats.bert_calls;
    linear_outputs.push_back(LinearInterpolation(geometry, *r.sparse));
  }
  for (std::string& f : CheckStatsMatchOutputs(geometry, requests)) {
    check.failures.push_back(std::move(f));
  }
  check.kamel = ScoreOwn(geometry, requests, delta_m);
  check.evaluator = ScoreWithEvaluator(geometry, requests, delta_m);
  for (std::string& f : CheckQualityAgrees(check.kamel, check.evaluator)) {
    check.failures.push_back(std::move(f));
  }
  std::vector<Request> linear_requests = requests;
  for (size_t i = 0; i < requests.size(); ++i) {
    linear_requests[i].out = &linear_outputs[i];
  }
  check.linear = ScoreOwn(geometry, linear_requests, delta_m);
  for (std::string& f : CheckBeatsLinear(check.kamel, check.linear)) {
    check.failures.push_back(std::move(f));
  }
  return check;
}

}  // namespace perfbench
