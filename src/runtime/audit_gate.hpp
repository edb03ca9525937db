// Bridge between the generic audit core (analysis/audit.hpp) and the
// StentBoost application: builds the per-scenario ScheduleNode cases from a
// trained GraphPredictor with the node activity of
// app::scenario_node_activity — the rule rt::make_forecast applies to the
// online planner's forecasts — so the offline proof and the online planner
// argue about identical numbers.  RuntimeManager and exec::Executor call
// run_startup_gates from their constructors (behind their
// validate_at_startup / audit_at_startup options) to refuse malformed graphs
// and graphs whose reachable scenarios are statically infeasible.
#pragma once

#include <span>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/audit.hpp"
#include "app/stentboost.hpp"
#include "graph/record.hpp"
#include "tripleC/graph_predictor.hpp"
#include "tripleC/memory_model.hpp"

namespace tc::rt {

/// Capture one Table-1 memory row per executed (task, rdg_selected) pair
/// from a recorded run, keeping the largest-footprint report of each and
/// scaling buffer sizes by `scale` (use (paper pixels)/(rendered pixels)).
[[nodiscard]] std::vector<model::MemoryRow> capture_memory_rows(
    std::span<const graph::FrameRecord> records, f64 scale);

/// One ScenarioCase per scenario id: the rt::make_forecast of the scenario
/// (node activity from app::scenario_node_activity), serial predictions
/// from the trained predictor.  ROI-granularity nodes are priced at the
/// *full-frame* pixel count (the worst ROI the estimator can produce) — the
/// audit proves feasibility for the pessimistic ROI, the runtime then only
/// does better.
[[nodiscard]] std::vector<analysis::audit::ScenarioCase> make_audit_cases(
    app::StentBoostApp& app, const model::GraphPredictor& predictor);

/// Run the full static audit of an application + trained predictor.
/// Fields of `options` left at their defaults are derived from the app:
/// cpu_count from the platform, byte_scale from the cost model's resolution
/// scale, device_format from the paper format (pass explicit values to
/// override).  `memory_rows` may be empty (buffer/eviction checks skipped).
[[nodiscard]] analysis::audit::AuditResult audit_app(
    app::StentBoostApp& app, const model::GraphPredictor& predictor,
    std::span<const model::MemoryRow> memory_rows,
    analysis::audit::AuditOptions options = {});

/// Startup gates of rt::ManagerConfig and exec::ExecutorConfig, run at
/// construction before any frame executes (run_startup_gates).  Under a
/// Strict policy a finding throws analysis::AnalysisError from the
/// constructor; Permissive only collects it (validation_report(),
/// audit_report()).
struct StartupGates {
  /// triplec-lint static passes over the graph, predictor and platform.
  bool validate_at_startup = true;
  analysis::Policy validation_policy = analysis::Policy::Strict;
  /// triplec-audit schedulability proof (all scenarios × the plan search
  /// space, per-bus budgets, transition pricing; see analysis/audit.hpp).
  /// Vacuous with an untrained predictor (its predictions are 0 ms).
  bool audit_at_startup = false;
  analysis::Policy audit_policy = analysis::Policy::Strict;
  /// Deadline, pessimism margin, budget fractions of the audit.
  analysis::audit::AuditOptions audit_options;
};

struct StartupReports {
  analysis::Report validation;
  analysis::Report audit;
};

/// Run the startup gates over `app` and `predictor` (may be null).  Without
/// a predictor the audit trains a throwaway one on `training_frames`
/// simulated frames of a copy of `app` (capturing Table-1 memory rows), so
/// `app` keeps its pristine inter-frame state.  A Strict policy throws
/// analysis::AnalysisError.
[[nodiscard]] StartupReports run_startup_gates(
    app::StentBoostApp& app, const model::GraphPredictor* predictor,
    const StartupGates& gates, i32 training_frames = 0);

}  // namespace tc::rt
