#include "phocus/system.h"

#include <algorithm>

#include "core/celf.h"
#include "core/objective.h"
#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/strings.h"

namespace phocus {

RepresentationOptions ArchiveOptions::DefaultPhocusRepresentation() {
  RepresentationOptions options;
  options.context_normalize = true;
  options.sparsify_tau = 0.5;
  return options;
}

PhocusSystem::PhocusSystem(Corpus corpus) : corpus_(std::move(corpus)) {}

ArchivePlan PlanCorpus(const Corpus& corpus, const ArchiveOptions& options) {
  CelfSolver solver;
  return PlanCorpus(corpus, options, solver);
}

ArchivePlan PlanCorpus(const Corpus& corpus, const ArchiveOptions& options,
                       Solver& solver) {
  PHOCUS_CHECK(options.budget > 0, "archive budget must be positive");
  auto& registry = telemetry::MetricsRegistry::Current();
  telemetry::TraceSpan root("system.plan_archive");
  root.SetAttribute("photos", static_cast<std::uint64_t>(corpus.photos.size()));
  root.SetAttribute("budget", static_cast<std::uint64_t>(options.budget));

  double build_seconds = 0.0;
  const ParInstance instance = [&] {
    telemetry::TraceSpan stage(
        "system.stage.representation",
        &registry.GetHistogram("system.stage.representation_ns"));
    ParInstance built =
        BuildInstance(corpus, options.budget, options.representation);
    built.Validate();
    // Eager-build before the solve stage: solvers fan probes across threads
    // and must find the index already constructed (contract in instance.h).
    built.BuildMembershipIndex();
    stage.SetAttribute("subsets", static_cast<std::uint64_t>(built.num_subsets()));
    build_seconds = stage.ElapsedSeconds();
    return built;
  }();

  SolverResult result;
  double solve_seconds = 0.0;
  {
    telemetry::TraceSpan stage("system.stage.solve",
                               &registry.GetHistogram("system.stage.solve_ns"));
    stage.SetAttribute("solver", solver.name());
    result = solver.Solve(instance);
    solve_seconds = stage.ElapsedSeconds();
  }
  ArchivePlan plan = AssemblePlan(instance, std::move(result), options);
  plan.build_seconds = build_seconds;
  plan.solve_seconds = solve_seconds;
  root.SetAttribute("score", plan.score);
  root.SetAttribute("retained", static_cast<std::uint64_t>(plan.retained.size()));
  plan.trace = root.Close();
  PHOCUS_LOG(kDebug) << "plan_archive: retained " << plan.retained.size() << "/"
                     << corpus.photos.size() << " photos, score "
                     << plan.score << ", certified "
                     << plan.online_bound.certified_ratio;
  return plan;
}

ArchivePlan AssemblePlan(const ParInstance& instance, SolverResult result,
                         const ArchiveOptions& options) {
  CheckFeasible(instance, result);
  auto& registry = telemetry::MetricsRegistry::Current();
  ArchivePlan plan;
  plan.solver_result = std::move(result);
  plan.retained = plan.solver_result.selected;
  std::sort(plan.retained.begin(), plan.retained.end());
  std::vector<bool> kept(instance.num_photos(), false);
  for (PhotoId p : plan.retained) kept[p] = true;
  for (PhotoId p = 0; p < instance.num_photos(); ++p) {
    if (kept[p]) {
      plan.retained_bytes += instance.cost(p);
    } else {
      plan.archived.push_back(p);
      plan.archived_bytes += instance.cost(p);
    }
  }
  plan.score = plan.solver_result.score;
  plan.max_score = ObjectiveEvaluator::MaxScore(instance);
  plan.score_fraction = plan.max_score > 0.0 ? plan.score / plan.max_score : 1.0;

  if (options.compute_online_bound) {
    telemetry::TraceSpan stage(
        "system.stage.online_bound",
        &registry.GetHistogram("system.stage.online_bound_ns"));
    plan.online_bound = ComputeOnlineBound(instance, plan.solver_result.selected);
    stage.SetAttribute("certified_ratio", plan.online_bound.certified_ratio);
  }

  // Per-subset coverage report, most important subsets first.
  {
    telemetry::TraceSpan coverage_stage(
        "system.stage.coverage",
        &registry.GetHistogram("system.stage.coverage_ns"));
    ObjectiveEvaluator evaluator(&instance, plan.solver_result.selected);
    std::vector<SubsetId> order(instance.num_subsets());
    for (SubsetId q = 0; q < instance.num_subsets(); ++q) order[q] = q;
    std::sort(order.begin(), order.end(), [&](SubsetId a, SubsetId b) {
      return instance.subset(a).weight > instance.subset(b).weight;
    });
    const std::size_t rows =
        options.coverage_rows == 0
            ? order.size()
            : std::min(order.size(), options.coverage_rows);
    for (std::size_t i = 0; i < rows; ++i) {
      const Subset& q = instance.subset(order[i]);
      SubsetCoverage coverage;
      coverage.name = q.name;
      coverage.weight = q.weight;
      coverage.coverage = evaluator.SubsetScore(order[i]);
      coverage.total_members = q.size();
      for (PhotoId p : q.members) {
        if (kept[p]) ++coverage.retained_members;
      }
      plan.subset_coverage.push_back(std::move(coverage));
    }
  }
  return plan;
}

std::string DescribePlan(const ArchivePlan& plan, std::size_t max_rows) {
  std::string out;
  out += StrFormat(
      "PHOcus plan: retain %zu photos (%s), archive %zu photos (%s)\n",
      plan.retained.size(), HumanBytes(plan.retained_bytes).c_str(),
      plan.archived.size(), HumanBytes(plan.archived_bytes).c_str());
  out += StrFormat("  objective G(S) = %.4f  (%.1f%% of the no-budget ceiling)\n",
                   plan.score, 100.0 * plan.score_fraction);
  if (plan.online_bound.upper_bound > 0.0) {
    out += StrFormat(
        "  certified >= %.1f%% of optimal (online bound %.4f)\n",
        100.0 * plan.online_bound.certified_ratio, plan.online_bound.upper_bound);
  }
  out += StrFormat("  representation %.2fs, solve %.2fs (%s)\n",
                   plan.build_seconds, plan.solve_seconds,
                   plan.solver_result.detail.c_str());
  const std::size_t rows = std::min(max_rows, plan.subset_coverage.size());
  if (rows > 0) {
    out += "  top subsets by importance:\n";
    for (std::size_t i = 0; i < rows; ++i) {
      const SubsetCoverage& row = plan.subset_coverage[i];
      out += StrFormat("    %-32s  coverage %.3f  kept %zu/%zu\n",
                       row.name.c_str(), row.coverage, row.retained_members,
                       row.total_members);
    }
  }
  return out;
}

}  // namespace phocus
