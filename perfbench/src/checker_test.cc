// Every output check must pass on real outputs and fail on a corrupted
// copy. The fixture trains a small snapshot on the mini scenario once.

#include <gtest/gtest.h>

#include <memory>

#include "checker.h"
#include "common/logging.h"
#include "eval/scenario.h"
#include "sim/datasets.h"
#include "sim/sparsifier.h"

namespace perfbench {
namespace {

using kamel::ImputedTrajectory;
using kamel::Trajectory;

class CheckerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kamel::SetLogLevel(kamel::LogLevel::kWarning);
    kamel::KamelOptions options = kamel::BenchKamelOptions();
    options.pyramid_height = 0;
    options.pyramid_levels = 1;
    options.model_token_threshold = 100;
    options.bert.encoder.max_seq_len = 12;
    options.bert.train.steps = 300;
    options.bert.train.peak_lr = 3e-3;
    options.bert.train.warmup_steps = 30;
    const kamel::SimScenario sim =
        kamel::BuildScenario(kamel::MiniSpec(17));
    kamel::KamelBuilder builder(options);
    ASSERT_TRUE(builder.Train(sim.train).ok());
    snapshot_ = new std::shared_ptr<const kamel::KamelSnapshot>(
        builder.Snapshot().value());
    data_ = new Data;
    for (const Trajectory& dense : sim.test.trajectories) {
      if (dense.points.size() < 2) continue;
      data_->dense.push_back(dense);
      data_->sparse.push_back(kamel::Sparsify(dense, 400.0));
      data_->out.push_back((*snapshot_)->Impute(data_->sparse.back()).value());
    }
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete data_;
  }

  struct Data {
    std::vector<Trajectory> dense;
    std::vector<Trajectory> sparse;
    std::vector<ImputedTrajectory> out;
  };

  CheckGeometry geometry() const { return CheckGeometry::Of(**snapshot_); }

  std::vector<Request> Requests(const std::vector<ImputedTrajectory>& outs) {
    std::vector<Request> requests;
    for (size_t i = 0; i < outs.size(); ++i) {
      requests.push_back({&data_->dense[i], &data_->sparse[i], &outs[i]});
    }
    return requests;
  }

  // First output with a gap whose outcome is `failed`; the gap's interior
  // is points [*begin, *end) of that output.
  size_t FindGap(bool failed, size_t* begin, size_t* end) const {
    for (size_t i = 0; i < data_->out.size(); ++i) {
      const ImputedTrajectory& out = data_->out[i];
      for (const kamel::SegmentOutcome& o : out.stats.outcomes) {
        if (o.failed != failed) continue;
        const auto& pts = out.trajectory.points;
        size_t s = 0;
        while (s < pts.size() && pts[s].time != o.s_time) ++s;
        size_t d = s + 1;
        while (d < pts.size() && pts[d].time != o.d_time) ++d;
        if (d < pts.size() && d > s + 1) {
          *begin = s + 1;
          *end = d;
          return i;
        }
      }
    }
    ADD_FAILURE() << "fixture has no " << (failed ? "failed" : "imputed")
                  << " gap with interior points";
    return 0;
  }

  static std::shared_ptr<const kamel::KamelSnapshot>* snapshot_;
  static Data* data_;
};

std::shared_ptr<const kamel::KamelSnapshot>* CheckerTest::snapshot_ = nullptr;
CheckerTest::Data* CheckerTest::data_ = nullptr;

TEST_F(CheckerTest, RealOutputsPassStructureStatsAndMetricChecks) {
  for (size_t i = 0; i < data_->out.size(); ++i) {
    EXPECT_TRUE(
        CheckStructure(geometry(), data_->sparse[i], data_->out[i]).empty());
  }
  const std::vector<Request> requests = Requests(data_->out);
  EXPECT_TRUE(CheckStatsMatchOutputs(geometry(), requests).empty());
  const Quality own = ScoreOwn(geometry(), requests, 50.0);
  EXPECT_GT(own.recall_total, 0);
  EXPECT_TRUE(
      CheckQualityAgrees(own, ScoreWithEvaluator(geometry(), requests, 50.0))
          .empty());
}

TEST_F(CheckerTest, MissingObservationFails) {
  ImputedTrajectory out = data_->out[0];
  out.trajectory.points.erase(out.trajectory.points.begin());
  EXPECT_FALSE(CheckStructure(geometry(), data_->sparse[0], out).empty());
}

TEST_F(CheckerTest, ObservationAtWrongTimeFails) {
  size_t begin = 0, end = 0;
  const size_t i = FindGap(true, &begin, &end);
  ImputedTrajectory out = data_->out[i];
  out.trajectory.points[end].time += 0.5;  // the gap's end observation
  EXPECT_FALSE(CheckStructure(geometry(), data_->sparse[i], out).empty());
}

TEST_F(CheckerTest, DecreasingTimeFails) {
  size_t begin = 0, end = 0;
  const size_t i = FindGap(false, &begin, &end);
  ImputedTrajectory out = data_->out[i];
  std::swap(out.trajectory.points[begin].time,
            out.trajectory.points[begin - 1].time);
  EXPECT_FALSE(CheckStructure(geometry(), data_->sparse[i], out).empty());
}

TEST_F(CheckerTest, OutputNotSpanningInputFails) {
  ImputedTrajectory out = data_->out[0];
  out.trajectory.points.pop_back();
  EXPECT_FALSE(CheckStructure(geometry(), data_->sparse[0], out).empty());
}

TEST_F(CheckerTest, InsertedPointOutsideGapWindowFails) {
  size_t begin = 0, end = 0;
  const size_t i = FindGap(false, &begin, &end);
  ImputedTrajectory out = data_->out[i];
  // An inserted point timed after its gap's end observation.
  out.trajectory.points[end - 1].time = out.trajectory.points[end].time + 0.25;
  EXPECT_FALSE(CheckStructure(geometry(), data_->sparse[i], out).empty());
}

TEST_F(CheckerTest, FailedGapThatIsNotStraightFails) {
  size_t begin = 0, end = 0;
  const size_t i = FindGap(true, &begin, &end);
  ImputedTrajectory out = data_->out[i];
  out.trajectory.points[begin].pos.lat += 2e-4;  // ~22 m off the line
  EXPECT_FALSE(CheckStructure(geometry(), data_->sparse[i], out).empty());
}

TEST_F(CheckerTest, ImputedGapWithTooLongStepFails) {
  size_t begin = 0, end = 0;
  const size_t i = FindGap(false, &begin, &end);
  ImputedTrajectory out = data_->out[i];
  out.trajectory.points[begin].pos.lat += 0.01;  // ~1.1 km away
  EXPECT_FALSE(CheckStructure(geometry(), data_->sparse[i], out).empty());
}

TEST_F(CheckerTest, StatsThatDisagreeWithOutputsFail) {
  std::vector<ImputedTrajectory> outs = data_->out;
  size_t begin = 0, end = 0;
  const size_t i = FindGap(true, &begin, &end);
  outs[i].stats.failed_segments -= 1;  // claims one failure fewer
  EXPECT_FALSE(CheckStatsMatchOutputs(geometry(), Requests(outs)).empty());

  outs = data_->out;
  outs[0].stats.segments += 1;
  EXPECT_FALSE(CheckStatsMatchOutputs(geometry(), Requests(outs)).empty());
}

TEST_F(CheckerTest, OwnMetricDisagreeingWithEvaluatorFails) {
  const std::vector<Request> requests = Requests(data_->out);
  const Quality own = ScoreOwn(geometry(), requests, 50.0);
  // The evaluator scores a corrupted copy: one imputed gap moved away.
  std::vector<ImputedTrajectory> corrupted = data_->out;
  size_t begin = 0, end = 0;
  const size_t i = FindGap(false, &begin, &end);
  for (size_t k = begin; k < end; ++k) {
    corrupted[i].trajectory.points[k].pos.lat += 0.01;
  }
  EXPECT_FALSE(CheckQualityAgrees(
                   own, ScoreWithEvaluator(geometry(), Requests(corrupted),
                                           50.0))
                   .empty());
}

TEST_F(CheckerTest, RecallNotAboveLinearFails) {
  // An "imputation" that is the straight line itself is not above it.
  std::vector<ImputedTrajectory> linear;
  for (const Trajectory& sparse : data_->sparse) {
    linear.push_back(LinearInterpolation(geometry(), sparse));
  }
  const Quality line = ScoreOwn(geometry(), Requests(linear), 50.0);
  EXPECT_FALSE(CheckBeatsLinear(line, line).empty());
  Quality better = line;
  better.recall_hits += 1;
  EXPECT_TRUE(CheckBeatsLinear(better, line).empty());
}

TEST_F(CheckerTest, DifferentOutputsFailTheSameOutputCheck) {
  const ImputedTrajectory& want = data_->out[0];
  EXPECT_TRUE(CheckSameOutput(want, want, "self").empty());
  ImputedTrajectory moved = want;
  moved.trajectory.points.back().pos.lng =
      std::nextafter(moved.trajectory.points.back().pos.lng, 0.0);
  EXPECT_FALSE(CheckSameOutput(moved, want, "bulk").empty());
  ImputedTrajectory recounted = want;
  recounted.stats.bert_calls += 1;
  EXPECT_FALSE(CheckSameOutput(recounted, want, "routed").empty());
}

}  // namespace
}  // namespace perfbench
