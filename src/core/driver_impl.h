// Internal seam between core::evaluate() and the driver bodies.
//
// core::evaluate() is the only public entry point for the driver request
// kinds; the work lives in these detail:: functions, which take the
// request's ExecContext explicitly. Not installed API: only eval.cpp and
// the driver translation units include this (datasheet_impl also calls
// monte_carlo_impl directly, to reuse the design it already built).
#pragma once

#include "core/datasheet.h"
#include "core/flow.h"
#include "core/monte_carlo.h"
#include "core/optimizer.h"

namespace vcoadc::core::detail {

/// Body of EvalKind::kMonteCarlo: `opts.runs` independent mismatch draws
/// of an already-built design (seed of run i = seed0 + i).
MonteCarloResult monte_carlo_impl(const ExecContext& ctx,
                                  const AdcDesign& design,
                                  const MonteCarloOptions& opts);

/// Body of EvalKind::kCornerSweep over an already-built design. `batch_width`
/// follows the MonteCarloOptions convention: 0 = host-preferred SIMD lane
/// width, 1 = scalar per-corner stages, 2/4/8 = forced width; corners are
/// partitioned into supported-width groups that run through the
/// heterogeneous batched engine (results bit-identical at every setting).
std::vector<CornerResult> corner_sweep_impl(const ExecContext& ctx,
                                            const AdcDesign& design,
                                            std::size_t n_samples,
                                            int batch_width);

/// Body of EvalKind::kDatasheet. Never aborts: a spec the validators
/// reject yields an incomplete datasheet plus diagnostics through `ctx`.
Datasheet datasheet_impl(const ExecContext& ctx, const AdcSpec& spec,
                         const DatasheetOptions& opts);

/// Body of EvalKind::kOptimize.
OptimizeResult optimize_impl(const ExecContext& ctx,
                             const OptimizeTarget& target,
                             const OptimizeOptions& opts);

/// Body of EvalKind::kMigrate (defined in flow.cpp with the other
/// stages).
MigratedDesign migrate_impl(const ExecContext& ctx, const AdcSpec& src_spec,
                            double target_node_nm);

}  // namespace vcoadc::core::detail
