#ifndef PHOCUS_CORE_LOCAL_SEARCH_H_
#define PHOCUS_CORE_LOCAL_SEARCH_H_

#include <cstddef>

#include "core/solver.h"

/// \file local_search.h
/// Swap-based post-optimization for any feasible PAR solution — the
/// standard companion to greedy in the submodular-maximization toolbox.
/// Each pass tries, for every selected non-required photo, to evict it and
/// greedily refill the freed budget (cost-benefit rule); the move is kept
/// only if it strictly improves G. The result is therefore never worse
/// than the input, terminates (G strictly increases per accepted move and
/// is bounded), and typically closes part of whatever gap greedy left.
/// A refill seeds its heap with the current selection's gains wherever the
/// eviction cannot have changed them (same picks, fewer evaluations), and
/// an accepted move adopts the winning probe's state, so its cost follows
/// the best-sims it changed.

namespace phocus {

struct LocalSearchOptions {
  /// Maximum full sweeps over the selection (each sweep is O(|S|) evict-
  /// and-refill attempts).
  int max_passes = 3;
  /// Number of evict-and-refill probes evaluated concurrently. Probes in a
  /// batch run against the same frozen selection; the first improving one
  /// (in selection order) is accepted, later probes in the batch are
  /// discarded (their base is stale), and the sweep resumes right after the
  /// accepted victim. Accepted moves, scores, and reported stats are
  /// therefore identical to the sequential first-improvement loop for every
  /// batch size — discarded probes are never counted.
  std::size_t probe_batch = 8;
};

struct LocalSearchStats {
  int passes = 0;
  int moves_tried = 0;
  int moves_accepted = 0;
  /// Marginal-gain evaluations spent by the initial scoring pass and the
  /// consumed evict-and-refill probes (discarded speculative probes are
  /// excluded); also added onto the improved solution's
  /// SolverResult::gain_evaluations.
  std::size_t gain_evaluations = 0;
  /// Over the consumed probes: refill candidates that entered the heap with
  /// `current`'s exact gain (none of their gain scans reads a best-sim the
  /// victim's removal lowered with a sim above its new value), and those
  /// seeded +inf and re-evaluated (the victim and the other candidates).
  std::size_t keys_reused = 0;
  std::size_t keys_refreshed = 0;
  /// The accept path's oracle calls, both also in `gain_evaluations`. An
  /// accepted move adopts the winning probe's evaluator; the GainOf calls
  /// that bring `current`'s gain table up to date follow (every affordable
  /// photo the first time, then only those whose gain a move can have
  /// changed), and once the pass ends, the Adds of one re-evaluation of the
  /// final selection (none when no move was accepted).
  std::size_t table_evaluations = 0;
  std::size_t readd_evaluations = 0;
  double initial_score = 0.0;
  double final_score = 0.0;
};

/// Improves `solution` in place. `solution` must be feasible for
/// `instance` (budget + S0); the output remains feasible. Returns stats.
LocalSearchStats ImproveByLocalSearch(const ParInstance& instance,
                                      SolverResult& solution,
                                      const LocalSearchOptions& options = {});

/// Solver wrapper: runs an inner solver, then local search on its output.
class LocalSearchSolver : public Solver {
 public:
  /// Does not take ownership; `inner` must outlive this solver.
  LocalSearchSolver(Solver* inner, LocalSearchOptions options = {})
      : inner_(inner), options_(options) {}

  SolverResult Solve(const ParInstance& instance) override;
  std::string name() const override { return inner_->name() + "+LS"; }

 private:
  Solver* inner_;
  LocalSearchOptions options_;
};

}  // namespace phocus

#endif  // PHOCUS_CORE_LOCAL_SEARCH_H_
