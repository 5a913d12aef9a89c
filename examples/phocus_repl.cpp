/// \file phocus_repl.cpp
/// The User Interface of Figure 4, as an interactive terminal session: load
/// or generate a corpus, inspect the pre-defined subsets, adjust their
/// importance weights (§5.1: "the weights for subsets derived by all
/// methods may be adjusted using a dedicated UI"), pick a budget, solve,
/// and review per-page coverage — the human-in-the-loop workflow of the
/// user study.
///
/// Run it and type `help`. Scriptable: `echo "demo\nsolve\nquit" | phocus_repl`.
///
/// `connect HOST PORT` switches the console to a running phocusd: the
/// r-prefixed commands (rsession, rplan, rupdate, rstats) then plan against
/// the server's sessions instead of the in-process system.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/celf.h"
#include "datagen/corpus_io.h"
#include "datagen/ecommerce.h"
#include "datagen/openimages.h"
#include "datagen/table2.h"
#include "phocus/explain.h"
#include "phocus/instance_io.h"
#include "phocus/representation.h"
#include "phocus/system.h"
#include "service/client.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"

namespace phocus {
namespace {

class Repl {
 public:
  int Run() {
    std::printf("PHOcus interactive console. Type 'help' for commands.\n");
    std::string line;
    while (Prompt(), std::getline(std::cin, line)) {
      const std::vector<std::string> words = SplitWhitespace(line);
      if (words.empty()) continue;
      try {
        if (!Dispatch(words)) return 0;  // quit
      } catch (const CheckFailure& failure) {
        std::printf("error: %s\n", failure.what());
      }
    }
    return 0;
  }

 private:
  void Prompt() {
    std::printf("phocus> ");
    std::fflush(stdout);
  }

  /// Returns false to exit the loop.
  bool Dispatch(const std::vector<std::string>& words) {
    const std::string& command = words[0];
    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      Help();
    } else if (command == "demo") {
      OpenImagesOptions options;
      options.num_photos = 400;
      options.seed = 7;
      corpus_ = GenerateOpenImagesCorpus(options);
      budget_ = corpus_->TotalBytes() / 5;
      Info();
    } else if (command == "gen-openimages") {
      PHOCUS_CHECK(words.size() >= 2, "usage: gen-openimages N [seed]");
      OpenImagesOptions options;
      options.num_photos = static_cast<std::size_t>(std::stoul(words[1]));
      options.seed = words.size() > 2 ? std::stoull(words[2]) : 1;
      corpus_ = GenerateOpenImagesCorpus(options);
      budget_ = corpus_->TotalBytes() / 5;
      Info();
    } else if (command == "gen-ecommerce") {
      PHOCUS_CHECK(words.size() >= 2, "usage: gen-ecommerce N [seed]");
      EcommerceOptions options;
      options.num_products = static_cast<std::size_t>(std::stoul(words[1]));
      options.num_queries = 60;
      options.seed = words.size() > 2 ? std::stoull(words[2]) : 1;
      corpus_ = GenerateEcommerceCorpus(options);
      budget_ = corpus_->TotalBytes() / 5;
      Info();
    } else if (command == "load-table2") {
      PHOCUS_CHECK(words.size() >= 2, "usage: load-table2 NAME [scale]");
      const std::size_t scale =
          words.size() > 2 ? std::stoul(words[2]) : 1;
      corpus_ = CachedTable2Corpus(words[1], scale);
      budget_ = corpus_->TotalBytes() / 5;
      Info();
    } else if (command == "load-corpus") {
      PHOCUS_CHECK(words.size() == 2, "usage: load-corpus FILE");
      corpus_ = LoadCorpus(words[1]);
      budget_ = corpus_->TotalBytes() / 5;
      Info();
    } else if (command == "save-corpus") {
      PHOCUS_CHECK(words.size() == 2, "usage: save-corpus FILE");
      SaveCorpus(Need(), words[1]);
      std::printf("wrote %s\n", words[1].c_str());
    } else if (command == "info") {
      Info();
    } else if (command == "budget") {
      PHOCUS_CHECK(words.size() == 2, "usage: budget BYTES (e.g. 25MB)");
      budget_ = ParseBytes(words[1]);
      std::printf("budget = %s\n", HumanBytes(budget_).c_str());
    } else if (command == "tau") {
      PHOCUS_CHECK(words.size() == 2, "usage: tau VALUE");
      tau_ = std::stod(words[1]);
      std::printf("sparsification tau = %.2f\n", tau_);
    } else if (command == "exif-weight") {
      PHOCUS_CHECK(words.size() == 2, "usage: exif-weight VALUE");
      exif_weight_ = std::stod(words[1]);
      std::printf("EXIF weight = %.2f\n", exif_weight_);
    } else if (command == "subsets") {
      ListSubsets(words.size() > 1 ? std::stoul(words[1]) : 15);
    } else if (command == "weight") {
      PHOCUS_CHECK(words.size() == 3, "usage: weight SUBSET-INDEX VALUE");
      Corpus& corpus = Need();
      const std::size_t index = std::stoul(words[1]);
      PHOCUS_CHECK(index < corpus.subsets.size(), "subset index out of range");
      const double value = std::stod(words[2]);
      PHOCUS_CHECK(value > 0.0, "weight must be positive");
      corpus.subsets[index].weight = value;
      std::printf("W(\"%s\") = %g\n", corpus.subsets[index].name.c_str(), value);
    } else if (command == "require") {
      PHOCUS_CHECK(words.size() == 2, "usage: require PHOTO-ID");
      Corpus& corpus = Need();
      const PhotoId p = static_cast<PhotoId>(std::stoul(words[1]));
      PHOCUS_CHECK(p < corpus.photos.size(), "photo id out of range");
      corpus.required.push_back(p);
      std::printf("photo %u added to S0\n", p);
    } else if (command == "solve") {
      Solve(words.size() > 1 ? words[1] : "phocus");
    } else if (command == "coverage") {
      Coverage(words.size() > 1 ? std::stoul(words[1]) : 15);
    } else if (command == "stats" || command == "\\stats") {
      Stats();
    } else if (command == "explain") {
      PHOCUS_CHECK(words.size() == 2, "usage: explain PHOTO-ID");
      Explain(static_cast<PhotoId>(std::stoul(words[1])));
    } else if (command == "connect") {
      PHOCUS_CHECK(words.size() == 3, "usage: connect HOST PORT");
      client_.emplace(words[1], std::stoi(words[2]));
      PHOCUS_CHECK(client_->Ping(), "server did not answer the ping");
      std::printf("connected to phocusd at %s:%s; try 'rsession 400'\n",
                  words[1].c_str(), words[2].c_str());
    } else if (command == "disconnect") {
      client_.reset();
      remote_session_.clear();
      std::printf("back to in-process mode\n");
    } else if (command == "rsession") {
      Json spec = Json::Object();
      spec.Set("kind", "openimages");
      spec.Set("num_photos",
               words.size() > 1 ? std::stoi(words[1]) : 400);
      spec.Set("seed", words.size() > 2 ? std::stoi(words[2]) : 7);
      remote_session_ = Remote().CreateSession(std::move(spec));
      std::printf("remote session %s\n", remote_session_.c_str());
    } else if (command == "rplan") {
      PHOCUS_CHECK(words.size() == 2, "usage: rplan BUDGET (e.g. 25MB)");
      PrintRemotePlan(Remote().Plan(NeedRemoteSession(), words[1]));
    } else if (command == "rupdate") {
      PHOCUS_CHECK(words.size() >= 2, "usage: rupdate COUNT [seed]");
      Json params = Json::Object();
      params.Set("session", NeedRemoteSession());
      params.Set("count", std::stoi(words[1]));
      params.Set("seed", words.size() > 2 ? std::stoi(words[2]) : 1);
      PrintRemotePlan(Remote().Call("update", std::move(params)));
    } else if (command == "rstats") {
      const Json stats = Remote().Stats();
      std::printf("sessions %lld, queue %lld/%lld, plan cache %lld/%lld "
                  "(hits %lld, misses %lld)\n",
                  static_cast<long long>(stats.Get("sessions").AsInt()),
                  static_cast<long long>(stats.Get("queue_depth").AsInt()),
                  static_cast<long long>(stats.Get("queue_capacity").AsInt()),
                  static_cast<long long>(
                      stats.Get("plan_cache").Get("size").AsInt()),
                  static_cast<long long>(
                      stats.Get("plan_cache").Get("capacity").AsInt()),
                  static_cast<long long>(
                      stats.Get("plan_cache").Get("hits").AsInt()),
                  static_cast<long long>(
                      stats.Get("plan_cache").Get("misses").AsInt()));
    } else if (command == "save-instance") {
      PHOCUS_CHECK(words.size() == 2, "usage: save-instance FILE");
      RepresentationOptions repr;
      repr.sparsify_tau = tau_;
      repr.exif_weight = exif_weight_;
      SaveInstance(BuildInstance(Need(), budget_, repr), words[1]);
      std::printf("wrote %s\n", words[1].c_str());
    } else {
      std::printf("unknown command '%s'; try 'help'\n", command.c_str());
    }
    return true;
  }

  void Help() {
    std::printf(
        "  demo                          load a 400-photo demo corpus\n"
        "  gen-openimages N [seed]       generate a public-style corpus\n"
        "  gen-ecommerce N [seed]        generate a landing-page corpus\n"
        "  load-table2 NAME [scale]      build a Table 2 dataset (e.g. P-1K)\n"
        "  load-corpus FILE              load a .phocorp file\n"
        "  save-corpus FILE              save the corpus (binary)\n"
        "  info                          corpus statistics\n"
        "  subsets [K]                   top-K subsets by importance\n"
        "  weight INDEX VALUE            adjust a subset's importance\n"
        "  require PHOTO-ID              add a photo to S0\n"
        "  budget BYTES | tau V | exif-weight V\n"
        "  solve [phocus|nr|rand]        run the solver\n"
        "  coverage [K]                  per-subset coverage of the last plan\n"
        "  stats                         stage latencies of the last solve\n"
        "  explain PHOTO-ID              why a photo was retained/archived\n"
        "  save-instance FILE            export the modeled PAR instance\n"
        "  connect HOST PORT             attach to a running phocusd\n"
        "  rsession [N [seed]] | rplan BUDGET | rupdate COUNT [seed] | rstats\n"
        "  disconnect                    back to in-process mode\n"
        "  quit\n");
  }

  Corpus& Need() {
    PHOCUS_CHECK(corpus_.has_value(),
                 "no corpus loaded; try 'demo' or 'gen-openimages 500'");
    return *corpus_;
  }

  void Info() {
    const Corpus& corpus = Need();
    std::printf("corpus \"%s\": %zu photos, %s, %zu subsets, |S0|=%zu; "
                "budget %s, tau %.2f\n",
                corpus.name.c_str(), corpus.num_photos(),
                HumanBytes(corpus.TotalBytes()).c_str(), corpus.subsets.size(),
                corpus.required.size(), HumanBytes(budget_).c_str(), tau_);
  }

  void ListSubsets(std::size_t top_k) {
    const Corpus& corpus = Need();
    std::vector<std::size_t> order(corpus.subsets.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return corpus.subsets[a].weight > corpus.subsets[b].weight;
    });
    TextTable table;
    table.SetHeader({"index", "subset", "weight", "members"});
    for (std::size_t i = 0; i < std::min(top_k, order.size()); ++i) {
      const SubsetSpec& spec = corpus.subsets[order[i]];
      table.AddRow({StrFormat("%zu", order[i]), spec.name,
                    StrFormat("%g", spec.weight),
                    StrFormat("%zu", spec.members.size())});
    }
    std::printf("%s", table.Render().c_str());
  }

  void Solve(const std::string& solver_name) {
    PHOCUS_CHECK(budget_ > 0, "set a budget first");
    ArchiveOptions options;
    options.budget = budget_;
    options.representation.sparsify_tau = tau_;
    options.representation.exif_weight = exif_weight_;
    if (solver_name == "phocus") {
      plan_ = PlanCorpus(Need(), options);
    } else if (solver_name == "nr") {
      GreedyNoRedundancySolver solver;
      plan_ = PlanCorpus(Need(), options, solver);
    } else if (solver_name == "rand") {
      RandomAddSolver solver(1);
      plan_ = PlanCorpus(Need(), options, solver);
    } else {
      std::printf("unknown solver '%s' (phocus|nr|rand)\n", solver_name.c_str());
      return;
    }
    std::printf("%s", DescribePlan(*plan_, 5).c_str());
  }

  void Explain(PhotoId photo) {
    PHOCUS_CHECK(plan_.has_value(), "no plan yet; run 'solve' first");
    const Corpus& corpus = Need();
    PHOCUS_CHECK(photo < corpus.photos.size(), "photo id out of range");
    RepresentationOptions repr;
    repr.sparsify_tau = tau_;
    repr.exif_weight = exif_weight_;
    const ParInstance instance = BuildInstance(corpus, budget_, repr);
    const bool retained = std::binary_search(plan_->retained.begin(),
                                             plan_->retained.end(), photo);
    if (retained) {
      std::printf("%s", DescribeRetained(
          ExplainRetained(instance, plan_->retained, photo)).c_str());
    } else {
      std::printf("%s", DescribeArchived(
          ExplainArchived(instance, plan_->retained, photo)).c_str());
    }
  }

  /// Shows where the last solve spent its time: the Figure-4 span tree
  /// captured on the plan, plus latency percentiles per pipeline stage.
  void Stats() {
    PHOCUS_CHECK(plan_.has_value(), "no plan yet; run 'solve' first");
    if (plan_->trace.duration_ns == 0 && plan_->trace.children.empty()) {
      std::printf("no trace captured (telemetry disabled)\n");
      return;
    }
    std::printf("%s", telemetry::RenderSpanTree({plan_->trace}).c_str());
    const telemetry::MetricsSnapshot snapshot =
        telemetry::MetricsRegistry::Current().Snapshot();
    const TextTable stages = telemetry::LatencyTable(snapshot, "system.stage.");
    if (stages.num_rows() > 0) {
      std::printf("%s", stages.Render("per-stage latency").c_str());
    }
    const TextTable solver = telemetry::LatencyTable(snapshot, "solver.");
    if (solver.num_rows() > 0) {
      std::printf("%s", solver.Render("solver latency").c_str());
    }
  }

  void Coverage(std::size_t top_k) {
    PHOCUS_CHECK(plan_.has_value(), "no plan yet; run 'solve' first");
    TextTable table;
    table.SetHeader({"subset", "weight", "coverage", "kept"});
    for (std::size_t i = 0; i < std::min(top_k, plan_->subset_coverage.size());
         ++i) {
      const SubsetCoverage& row = plan_->subset_coverage[i];
      table.AddRow({row.name, StrFormat("%g", row.weight),
                    StrFormat("%.3f", row.coverage),
                    StrFormat("%zu/%zu", row.retained_members,
                              row.total_members)});
    }
    std::printf("%s", table.Render().c_str());
  }

  service::ServiceClient& Remote() {
    PHOCUS_CHECK(client_.has_value(),
                 "not connected; try 'connect 127.0.0.1 7411'");
    return *client_;
  }

  const std::string& NeedRemoteSession() {
    PHOCUS_CHECK(!remote_session_.empty(),
                 "no remote session; run 'rsession' first");
    return remote_session_;
  }

  void PrintRemotePlan(const Json& result) {
    const Json& plan = result.Get("plan");
    std::printf(
        "%s%s: retained %zu (%s), archived %zu (%s); score %.4f "
        "(certified ratio %.3f)\n",
        result.Get("session").AsString().c_str(),
        result.GetOr("cached", false).AsBool() ? " [cache]" : "",
        plan.Get("retained").size(),
        HumanBytes(static_cast<Cost>(plan.Get("retained_bytes").AsInt()))
            .c_str(),
        plan.Get("archived").size(),
        HumanBytes(static_cast<Cost>(plan.Get("archived_bytes").AsInt()))
            .c_str(),
        plan.Get("score").AsDouble(),
        plan.Get("online_bound").Get("certified_ratio").AsDouble());
  }

  std::optional<Corpus> corpus_;
  std::optional<ArchivePlan> plan_;
  Cost budget_ = 0;
  double tau_ = 0.5;
  double exif_weight_ = 0.0;
  std::optional<service::ServiceClient> client_;
  std::string remote_session_;
};

}  // namespace
}  // namespace phocus

int main() { return phocus::Repl().Run(); }
