#include "phocus/explain.h"

#include <algorithm>

#include "core/objective.h"
#include "util/logging.h"
#include "util/strings.h"

namespace phocus {

RetainedExplanation ExplainRetained(const ParInstance& instance,
                                    const std::vector<PhotoId>& selection,
                                    PhotoId photo) {
  PHOCUS_CHECK(photo < instance.num_photos(), "photo id out of range");
  PHOCUS_CHECK(std::find(selection.begin(), selection.end(), photo) !=
                   selection.end(),
               "photo is not in the retained selection");
  RetainedExplanation explanation;
  explanation.photo = photo;
  explanation.required = instance.IsRequired(photo);

  const ObjectiveEvaluator evaluator(&instance, selection);
  const std::vector<bool>& retained = evaluator.selected();
  for (const Membership& membership : instance.memberships(photo)) {
    const Subset& q = instance.subset(membership.subset);
    RetainedResponsibility responsibility;
    responsibility.subset = membership.subset;
    responsibility.subset_name = q.name;
    // For every member j, find its best retained neighbour; attribute j to
    // `photo` when photo is (one of) the argmax.
    for (std::uint32_t j = 0; j < q.size(); ++j) {
      double best = 0.0;
      std::uint32_t best_local = q.size();
      for (std::uint32_t i = 0; i < q.size(); ++i) {
        if (!retained[q.members[i]]) continue;
        const double sim = q.Similarity(j, i);
        if (sim > best) {
          best = sim;
          best_local = i;
        }
      }
      if (best_local < q.size() &&
          q.members[best_local] == photo && best > 0.0) {
        ++responsibility.members_represented;
        responsibility.carried_score += q.weight * q.relevance[j] * best;
      }
    }
    if (responsibility.members_represented > 0) {
      explanation.carried_score += responsibility.carried_score;
      explanation.responsibilities.push_back(std::move(responsibility));
    }
  }
  std::sort(explanation.responsibilities.begin(),
            explanation.responsibilities.end(),
            [](const RetainedResponsibility& a,
               const RetainedResponsibility& b) {
              return a.carried_score > b.carried_score;
            });

  // Exact removal loss (members fall back to their runner-up).
  explanation.removal_loss = evaluator.RemovalLoss(photo);
  return explanation;
}

ArchivedExplanation ExplainArchived(const ParInstance& instance,
                                    const std::vector<PhotoId>& selection,
                                    PhotoId photo) {
  PHOCUS_CHECK(photo < instance.num_photos(), "photo id out of range");
  PHOCUS_CHECK(std::find(selection.begin(), selection.end(), photo) ==
                   selection.end(),
               "photo is not archived (it is in the selection)");
  ArchivedExplanation explanation;
  explanation.photo = photo;

  const ObjectiveEvaluator evaluator(&instance, selection);
  const std::vector<bool>& retained = evaluator.selected();
  for (const Membership& membership : instance.memberships(photo)) {
    const Subset& q = instance.subset(membership.subset);
    ArchivedRepresentative representative;
    representative.subset = membership.subset;
    representative.subset_name = q.name;
    representative.representative =
        static_cast<PhotoId>(instance.num_photos());
    for (std::uint32_t i = 0; i < q.size(); ++i) {
      if (!retained[q.members[i]]) continue;
      const double sim = q.Similarity(membership.local_index, i);
      if (sim > representative.similarity) {
        representative.similarity = sim;
        representative.representative = q.members[i];
        representative.has_representative = true;
      }
    }
    explanation.representatives.push_back(std::move(representative));
  }
  std::sort(explanation.representatives.begin(),
            explanation.representatives.end(),
            [](const ArchivedRepresentative& a,
               const ArchivedRepresentative& b) {
              return a.similarity > b.similarity;
            });

  // Gain if brought back.
  explanation.return_gain = evaluator.GainOf(photo);
  return explanation;
}

std::string DescribeRetained(const RetainedExplanation& explanation,
                             std::size_t max_rows) {
  std::string out = StrFormat(
      "photo %u is RETAINED%s: carries %.4f of G (exact removal loss %.4f)\n",
      explanation.photo, explanation.required ? " (policy-required)" : "",
      explanation.carried_score, explanation.removal_loss);
  const std::size_t rows =
      std::min(max_rows, explanation.responsibilities.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const RetainedResponsibility& r = explanation.responsibilities[i];
    out += StrFormat("  represents %zu member(s) of \"%s\" (score %.4f)\n",
                     r.members_represented, r.subset_name.c_str(),
                     r.carried_score);
  }
  if (explanation.responsibilities.size() > rows) {
    out += StrFormat("  ... and %zu more subsets\n",
                     explanation.responsibilities.size() - rows);
  }
  return out;
}

std::string DescribeArchived(const ArchivedExplanation& explanation,
                             std::size_t max_rows) {
  std::string out = StrFormat(
      "photo %u is ARCHIVED: bringing it back would add only %.4f to G\n",
      explanation.photo, explanation.return_gain);
  const std::size_t rows =
      std::min(max_rows, explanation.representatives.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const ArchivedRepresentative& r = explanation.representatives[i];
    if (r.has_representative) {
      out += StrFormat("  in \"%s\": photo %u stands in (similarity %.3f)\n",
                       r.subset_name.c_str(), r.representative, r.similarity);
    } else {
      out += StrFormat("  in \"%s\": no retained representative\n",
                       r.subset_name.c_str());
    }
  }
  if (explanation.representatives.size() > rows) {
    out += StrFormat("  ... and %zu more subsets\n",
                     explanation.representatives.size() - rows);
  }
  return out;
}

}  // namespace phocus
