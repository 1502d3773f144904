/**
 * @file
 * Human-readable schedule reports: the Figure 9 window/chiplet
 * allocation view and the Table VI per-window latency breakdown.
 */

#ifndef SCAR_EVAL_REPORTER_H
#define SCAR_EVAL_REPORTER_H

#include <string>

#include "arch/mcm.h"
#include "runtime/serving_report.h"
#include "sched/scar.h"
#include "workload/scenario.h"

namespace scar
{

/**
 * Renders the schedule window by window: which chiplets each model's
 * segments occupy and the cumulative window latencies (Figure 9).
 */
std::string describeSchedule(const Scenario& scenario, const Mcm& mcm,
                             const ScheduleResult& result);

/**
 * Renders the Table VI-style breakdown: per-model latency in each
 * window, the model's ideal (sum of its window latencies), layer
 * counts, and per-window totals.
 */
std::string describeWindowBreakdown(const Scenario& scenario,
                                    const ScheduleResult& result);

/**
 * Renders an online-serving run: traffic totals, latency
 * percentiles, SLO accounting, and schedule-cache effectiveness
 * (runtime/fleet.h).
 */
std::string describeServingReport(const runtime::ServingReport& report);

} // namespace scar

#endif // SCAR_EVAL_REPORTER_H
