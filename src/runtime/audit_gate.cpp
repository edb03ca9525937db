#include "runtime/audit_gate.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "graph/scenario.hpp"
#include "runtime/planner.hpp"

namespace tc::rt {

std::vector<model::MemoryRow> capture_memory_rows(
    std::span<const graph::FrameRecord> records, f64 scale) {
  std::map<std::pair<i32, bool>, model::MemoryRow> best;
  for (const graph::FrameRecord& record : records) {
    const bool rdg_selected = ((record.scenario >> app::kSwRdg) & 1u) != 0;
    for (const graph::TaskExecution& exec : record.tasks) {
      if (!exec.executed) continue;
      model::MemoryRow row =
          model::memory_row(std::string(app::node_name(exec.node)),
                            rdg_selected, exec.work, scale);
      auto key = std::make_pair(exec.node, rdg_selected);
      auto it = best.find(key);
      if (it == best.end() || row.total_kb() > it->second.total_kb()) {
        best.insert_or_assign(key, std::move(row));
      }
    }
  }
  std::vector<model::MemoryRow> rows;
  rows.reserve(best.size());
  for (auto& [key, row] : best) rows.push_back(std::move(row));
  return rows;
}

std::vector<analysis::audit::ScenarioCase> make_audit_cases(
    app::StentBoostApp& app, const model::GraphPredictor& predictor) {
  const f64 full_px = static_cast<f64>(app.config().sequence.width) *
                      static_cast<f64>(app.config().sequence.height) *
                      app.config().cost.resolution_scale;
  const std::vector<std::string> names = app.graph().switch_names();

  std::vector<analysis::audit::ScenarioCase> cases;
  const usize scenarios = graph::scenario_count(app::kSwitchCount);
  cases.reserve(scenarios);
  for (usize id = 0; id < scenarios; ++id) {
    analysis::audit::ScenarioCase sc;
    sc.id = narrow<graph::ScenarioId>(id);
    sc.label = graph::scenario_label(sc.id, names);
    // Pessimistic ROI: price ROI-granularity nodes at the full frame.
    sc.nodes = to_schedule_nodes(make_forecast(sc.id, [&](i32 node) {
      return predictor.predict_task(node, full_px);
    }));
    cases.push_back(std::move(sc));
  }
  return cases;
}

analysis::audit::AuditResult audit_app(
    app::StentBoostApp& app, const model::GraphPredictor& predictor,
    std::span<const model::MemoryRow> memory_rows,
    analysis::audit::AuditOptions options) {
  analysis::audit::AuditOptions defaults;
  if (options.cpu_count == defaults.cpu_count) {
    options.cpu_count = app.config().platform.cpu_count;
  }
  if (options.byte_scale == defaults.byte_scale) {
    options.byte_scale = app.config().cost.resolution_scale;
  }
  if (options.device_format == nullptr) {
    options.device_format = &app.config().paper_format;
  }
  const std::vector<analysis::audit::ScenarioCase> cases =
      make_audit_cases(app, predictor);
  return analysis::audit::run_audit(app.graph(), cases, app.config().platform,
                                    app.config().cost,
                                    &predictor.scenario_table(), memory_rows,
                                    options);
}

StartupReports run_startup_gates(app::StentBoostApp& app,
                                 const model::GraphPredictor* predictor,
                                 const StartupGates& gates,
                                 i32 training_frames) {
  StartupReports reports;
  if (gates.validate_at_startup) {
    // Static validation before the first frame: a malformed graph, predictor
    // configuration or platform spec fails here (under Strict) instead of
    // corrupting a run.
    reports.validation = analysis::Analyzer{}.run(
        {&app.graph(), predictor, &app.config().platform, {}});
    analysis::enforce(reports.validation, gates.validation_policy);
  }
  if (gates.audit_at_startup) {
    // Static schedulability proof over all scenarios × the plan search
    // space: a strict deployment refuses a graph whose reachable scenarios
    // cannot meet the deadline or whose bus loads exceed the Fig.-4 budgets.
    analysis::audit::AuditResult audit;
    if (predictor != nullptr) {
      audit = audit_app(app, *predictor, {}, gates.audit_options);
    } else {
      app::StentBoostApp train_app(app.config());
      model::GraphPredictor trained(app::kNodeCount, app::kSwitchCount);
      const std::vector<std::vector<graph::FrameRecord>> seqs = {
          train_app.run(std::max(1, training_frames))};
      trained.train(seqs);
      const std::vector<model::MemoryRow> rows =
          capture_memory_rows(seqs[0], app.config().cost.resolution_scale);
      audit = audit_app(train_app, trained, rows, gates.audit_options);
    }
    reports.audit = std::move(audit.report);
    analysis::enforce(reports.audit, gates.audit_policy);
  }
  return reports;
}

}  // namespace tc::rt
