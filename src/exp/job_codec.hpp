// Binary codec for shipping one job's full output across a process
// boundary (the out-of-process runner's result frames and the result
// cache's entry payloads).
//
// The encoding is exact: doubles travel as raw bit patterns, so a decoded
// JobResult is results_identical() to the original and out-of-process
// sweeps stay byte-identical to in-process ones. Alongside the JobResult
// the payload carries the worker's per-job profiler capture (span ids /
// names / parents), which the supervisor splices into the caller's
// profiler in job-index order — the same reduction the in-process worker
// pool performs — so run-manifest span structure is worker-mode invariant.
//
// Fixed-width little-endian-on-x86 host encoding: frames and cache entries
// are machine-local artifacts, never interchange formats. A leading version byte rejects frames from a
// different code rev instead of misreading them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/prof.hpp"

namespace stob::exp {

/// Codec format version (the payload's leading byte). Folded into
/// exp::cell_digest so cache entries written by a different codec rev never
/// match — their cells re-run instead of mis-decoding.
inline constexpr std::uint8_t kWorkerPayloadVersion = 1;

/// Everything a worker sends back for one cell.
struct WorkerPayload {
  JobResult result;
  std::vector<obs::ProfRecord> prof_records;
};

std::string encode_worker_payload(const WorkerPayload& payload);

/// Throws std::runtime_error on a malformed or version-mismatched payload.
WorkerPayload decode_worker_payload(std::string_view bytes);

}  // namespace stob::exp
