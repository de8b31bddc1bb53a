// The traced run's cost ledger: the workload's own inputs replayed through
// each layer's public entry point on its own, timed from the benchmark's
// code, one layer per function.
//
//   core.score_batch   detector score_batch on [B, C, T] contexts, B as the
//                      engine batches this workload
//   serve.engine       ScoringEngine push + step, with its phase telemetry
//   serve.runtime      AsyncScoringRuntime push / drain_scores
//   daemon             the full serving path (measured by drive())
//
// Each row minus the row above is that layer's cost per sample. Beside the
// ledger: the VARADE trunk layer by layer against its analytic FLOPs, the
// normaliser, and the wire codec on the workload's own frames.
#pragma once

#include "common.hpp"
#include "workload.hpp"

namespace perfbench {

struct LedgerEnv {
  const WorkloadSpec& spec;
  Model& model;
  const StreamSet& streams;
  Tracer& tracer;
  double budget_s;  ///< wall time each measurement loops for
};

/// The ledger's first three rows, ns per sample.
struct LedgerRows {
  double score_batch = 0.0;
  double engine = 0.0;
  double runtime = 0.0;
};

/// Times score_batch (at the engine's own batch size), a default
/// ScoringEngine (with its phase telemetry) and a default
/// AsyncScoringRuntime, in interleaved passes; reports them with the engine
/// phases, rows per score_batch call and the runtime's push p99.
LedgerRows ledger_rows(const LedgerEnv& env, Report& report);
/// nn.* rows: each VARADE trunk layer and the heads, against their FLOPs.
void ledger_nn(const LedgerEnv& env, Report& report);
/// data.normalize row: MinMaxNormalizer::transform_rows.
void ledger_normalize(const LedgerEnv& env, Report& report);
/// net.wire rows: encode and decode of the workload's own frames.
void ledger_wire(const LedgerEnv& env, Report& report);

}  // namespace perfbench
