// Environment-variable configuration knobs. The paper trains full-size CNNs
// for 50 epochs on a GPU; our CPU reproduction runs scaled variants whose
// size can be tuned without recompiling:
//
//   REMAPD_THREADS  worker threads for the deterministic parallel layer
//                   (unset → hardware concurrency; 0 or 1 → serial fast
//                   path). Results are bitwise identical at any setting —
//                   see util/parallel.hpp for the contract
//   REMAPD_EPOCHS   override training epochs for benches (default per-bench)
//   REMAPD_TRAIN    override number of training samples
//   REMAPD_TEST     override number of test samples
//   REMAPD_LOG      log level (debug|info|warn|error, case-insensitive;
//                   unrecognized values warn once and fall back to info)
//   REMAPD_TRACE    enable telemetry; write a chrome://tracing JSON to this
//                   path at process exit (see telemetry/)
//   REMAPD_METRICS  enable telemetry; write metrics to this path at exit —
//                   JSONL if it ends in ".jsonl", plain-text summary
//                   otherwise ("-" for stdout)
//   REMAPD_HEALTH   enable the reliability observatory; write the health
//                   JSONL stream to this path (and a human-readable
//                   summary to <path>.summary.txt) at exit — see src/obs/
//                   and tools/remapd_report.cpp
//
// Parsing is strict: a REMAPD_* variable that is set but malformed (empty,
// trailing garbage, out of range) throws std::runtime_error naming the
// variable and the offending value — a typo'd override must never be
// silently ignored, truncated, or fall back to the default.
#pragma once

#include <cstddef>
#include <string>

namespace remapd {

/// Integer env var with default. Throws std::runtime_error when the
/// variable is set but not a valid integer.
int env_int(const std::string& name, int def);

/// Non-negative integer env var with default. Throws std::runtime_error on
/// malformed input or a negative value.
std::size_t env_size(const std::string& name, std::size_t def);

/// Double env var with default. Throws std::runtime_error when the
/// variable is set but not a valid number.
double env_double(const std::string& name, double def);

/// Non-negative double env var with default. Throws std::runtime_error on
/// malformed input or a negative value.
double env_double_nonneg(const std::string& name, double def);

/// String env var with default.
std::string env_str(const std::string& name, const std::string& def);

// Knobs that change the faulted arithmetic. Each has exactly one accessor
// (and so one default), read both where the arithmetic uses it and by the
// checkpoint config fingerprint, so a checkpoint resumed under a different
// setting is refused. Every call re-reads the environment.

/// REMAPD_WMAX_RMS (4): conductance full scale as a multiple of the layer
/// weight RMS.
double knob_wmax_rms();
/// REMAPD_GRAD_PIN (12): magnitude of a pinned gradient component in
/// units of the layer's healthy gradient RMS.
double knob_grad_pin();
/// REMAPD_REFRESH_EVERY (1): epochs between detect-and-refresh rounds.
std::size_t knob_refresh_every();
/// REMAPD_DROP_FRACTION (0.05): drop-connect's severed weight fraction.
double knob_drop_fraction();
/// REMAPD_ANCODE_CAP (0.001): the fault density up to which the AN-code
/// policy corrects a crossbar's outputs.
double knob_ancode_cap();

}  // namespace remapd
