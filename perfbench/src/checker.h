#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/kamel_snapshot.h"
#include "eval/evaluator.h"
#include "geo/projection.h"
#include "geo/trajectory.h"
#include "grid/grid_system.h"

namespace perfbench {

/// Every check returns its failures as messages; empty means it passed.
using Failures = std::vector<std::string>;

/// The geometry the checks need: the snapshot's grid and projection and
/// the imputation's max_gap_m.
struct CheckGeometry {
  const kamel::GridSystem* grid = nullptr;
  const kamel::LocalProjection* projection = nullptr;
  double max_gap_m = 100.0;

  static CheckGeometry Of(const kamel::KamelSnapshot& snapshot);

  /// Gap threshold in grid steps (max_gap_m over the cell spacing, at
  /// least one cell).
  int MaxGapCells() const;
  /// Farthest two consecutive points of an imputed (not failed) gap may
  /// be apart: threshold cells of centroid spacing plus one spacing of
  /// slack at each end for where a point sits inside its cell.
  double MaxStepMeters() const;
};

/// One served request: ground truth, the sparse input, the output.
struct Request {
  const kamel::Trajectory* dense = nullptr;
  const kamel::Trajectory* sparse = nullptr;
  const kamel::ImputedTrajectory* out = nullptr;
};

/// Structural checks of one output against its input:
///  - every kept observation appears, in order, at its original time
///    (an observation may be absent only when tokenization collapsed it
///    into the previous kept observation's cell);
///  - timestamps never decrease; the output spans the input's first to
///    last time;
///  - inserted points lie inside their gap's time window;
///  - a gap counted as failed is the straight line between its endpoints;
///  - in a gap not counted as failed, consecutive points are at most
///    MaxStepMeters() apart.
Failures CheckStructure(const CheckGeometry& geometry,
                        const kamel::Trajectory& sparse,
                        const kamel::ImputedTrajectory& out);

/// Gap and failure counts read off the output geometry alone (a gap is a
/// pair of consecutive kept observations more than MaxGapCells() apart; a
/// failed gap is exactly the straight-line fallback).
struct GapCounts {
  int64_t segments = 0;
  int64_t failed = 0;
};
GapCounts CountGapsFromOutput(const CheckGeometry& geometry,
                              const kamel::Trajectory& sparse,
                              const kamel::ImputedTrajectory& out);

/// Counts from the outputs must equal the summed ImputeStats.
Failures CheckStatsMatchOutputs(const CheckGeometry& geometry,
                                const std::vector<Request>& requests);

/// Section 8 recall/precision as hit/total counts.
struct Quality {
  int64_t recall_hits = 0;
  int64_t recall_total = 0;
  int64_t precision_hits = 0;
  int64_t precision_total = 0;
  double recall() const;
  double precision() const;
};

/// The benchmark's own implementation of the paper's metric: per sparse
/// segment, the ground truth between its endpoint times is resampled every
/// max_gap_m and a sample is a recall hit within delta of the output; the
/// output between the same times, resampled likewise, gives precision
/// hits within delta of the ground truth.
Quality ScoreOwn(const CheckGeometry& geometry,
                 const std::vector<Request>& requests, double delta_m);

/// Evaluator::Score over the same requests.
kamel::EvalResult ScoreWithEvaluator(const CheckGeometry& geometry,
                                     const std::vector<Request>& requests,
                                     double delta_m);

/// Own and Evaluator recall/precision must be equal.
Failures CheckQualityAgrees(const Quality& own,
                            const kamel::EvalResult& evaluator);

/// Straight-line interpolation of a sparse input (a point every
/// max_gap_m between consecutive observations), computed here.
kamel::ImputedTrajectory LinearInterpolation(const CheckGeometry& geometry,
                                             const kamel::Trajectory& sparse);

/// KAMEL's recall must be strictly above the straight line's.
Failures CheckBeatsLinear(const Quality& kamel, const Quality& linear);

/// Two outputs for the same input must be byte-identical (points and
/// every ImputeStats counter and outcome; timing excluded).
Failures CheckSameOutput(const kamel::ImputedTrajectory& got,
                         const kamel::ImputedTrajectory& want,
                         const std::string& what);

/// Every check above over a served request set: structure of each
/// output, stats vs outputs, own metric vs Evaluator, KAMEL vs linear.
struct RunCheck {
  Failures failures;
  Quality kamel;
  Quality linear;
  kamel::EvalResult evaluator;
  int64_t segments = 0;
  int64_t failed_segments = 0;
  int64_t bert_calls = 0;
};
RunCheck CheckRun(const CheckGeometry& geometry,
                  const std::vector<Request>& requests, double delta_m);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
