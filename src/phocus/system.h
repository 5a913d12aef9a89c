#ifndef PHOCUS_PHOCUS_SYSTEM_H_
#define PHOCUS_PHOCUS_SYSTEM_H_

#include <string>
#include <vector>

#include "core/instance.h"
#include "core/online_bound.h"
#include "core/solver.h"
#include "datagen/corpus.h"
#include "phocus/representation.h"
#include "telemetry/trace.h"

/// \file system.h
/// The end-to-end PHOcus system (Figure 4): corpus in, archive plan out.
/// This is the public API the examples use:
///
/// \code
///   PhocusSystem system(std::move(corpus));
///   ArchiveOptions options;
///   options.budget = ParseBytes("25MB");
///   ArchivePlan plan = system.PlanArchive(options);
///   // plan.retained  -> keep in fast storage
///   // plan.archived  -> move to cold storage
/// \endcode

namespace phocus {

struct ArchiveOptions {
  Cost budget = 0;
  /// Similarity construction; defaults give PHOcus with τ-sparsification.
  RepresentationOptions representation = DefaultPhocusRepresentation();
  /// Also compute the a-posteriori optimality certificate (§4.2).
  bool compute_online_bound = true;
  /// How many per-subset coverage rows to keep in the plan (most important
  /// subsets first); 0 keeps all.
  std::size_t coverage_rows = 0;

  static RepresentationOptions DefaultPhocusRepresentation();
};

/// One subset's outcome in the plan.
struct SubsetCoverage {
  std::string name;
  double weight = 0.0;
  double coverage = 0.0;  ///< G(q, S) ∈ [0, 1]
  std::size_t retained_members = 0;
  std::size_t total_members = 0;
};

/// The output of a PHOcus run.
struct ArchivePlan {
  SolverResult solver_result;
  std::vector<PhotoId> retained;
  std::vector<PhotoId> archived;  ///< complement of retained
  Cost retained_bytes = 0;
  Cost archived_bytes = 0;
  double score = 0.0;
  double max_score = 0.0;        ///< G(P), the no-budget ceiling
  double score_fraction = 0.0;   ///< score / max_score
  OnlineBound online_bound;      ///< valid when computed (see options)
  double build_seconds = 0.0;    ///< Data Representation Module time
  double solve_seconds = 0.0;    ///< Solver time
  std::vector<SubsetCoverage> subset_coverage;
  /// Span tree for this run ("system.plan_archive" with one child per
  /// Figure-4 stage). Empty (duration 0, no children) when telemetry is
  /// disabled; render with telemetry::RenderSpanTree.
  telemetry::SpanRecord trace;
};

/// Runs the full pipeline on `corpus`: representation → `solver` → reports.
/// Reads the corpus in place; nothing of it outlives the call.
ArchivePlan PlanCorpus(const Corpus& corpus, const ArchiveOptions& options,
                       Solver& solver);

/// PlanCorpus with Algorithm 1 (CELF) as the solver.
ArchivePlan PlanCorpus(const Corpus& corpus, const ArchiveOptions& options);

/// End-to-end facade owning the corpus.
class PhocusSystem {
 public:
  explicit PhocusSystem(Corpus corpus);

  /// Runs the full pipeline: representation → Algorithm 1 → reports.
  ArchivePlan PlanArchive(const ArchiveOptions& options) const {
    return PlanCorpus(corpus_, options);
  }

  /// Runs the pipeline with a caller-supplied solver (baselines, exact).
  ArchivePlan PlanArchiveWith(const ArchiveOptions& options,
                              Solver& solver) const {
    return PlanCorpus(corpus_, options, solver);
  }

  const Corpus& corpus() const { return corpus_; }

 private:
  Corpus corpus_;
};

/// The plan record for a solver's `result` on `instance`: the feasibility
/// check, retained/archived lists and bytes, score fraction, online bound
/// (when `options` asks) and per-subset coverage rows. Every planner —
/// PlanCorpus and the incremental replans — returns its plan from
/// here; the caller fills the timings and trace.
ArchivePlan AssemblePlan(const ParInstance& instance, SolverResult result,
                         const ArchiveOptions& options);

/// Renders a human-readable plan summary (used by examples).
std::string DescribePlan(const ArchivePlan& plan, std::size_t max_rows = 10);

}  // namespace phocus

#endif  // PHOCUS_PHOCUS_SYSTEM_H_
