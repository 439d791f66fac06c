// k-FP feature extraction (Hayes & Danezis, "k-fingerprinting: A Robust
// Scalable Website Fingerprinting Technique", USENIX Security 2016).
//
// The extractor reproduces the k-FP feature families on (time, direction,
// size) traces: packet counts and fractions, first/last-30 composition,
// packet ordering statistics, outgoing-packet concentration, burst
// behaviour, inter-arrival statistics, transmission-time quantiles,
// packets-per-second statistics, and byte-volume statistics. The exact
// feature list is fixed and named so that models are interpretable and
// datasets are comparable across runs.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "wf/feature_matrix.hpp"
#include "wf/trace.hpp"

namespace stob::wf {

/// Number of features produced by kfp_features().
std::size_t kfp_feature_count();

/// Human-readable names, index-aligned with kfp_features() output.
const std::vector<std::string>& kfp_feature_names();

/// Extract the k-FP feature vector from a trace. Always returns exactly
/// kfp_feature_count() finite values for every Trace, hostile ones
/// included: statistics a trace leaves undefined (an empty or single-packet
/// trace, quantiles of a list holding a NaN time, any non-finite result)
/// are 0, and a time outside (-1, 120) s, NaN included, falls in no
/// packets-per-second bucket.
std::vector<double> kfp_features(const Trace& trace);

/// Same extraction, writing into caller-owned storage of exactly
/// kfp_feature_count() entries (e.g. a FeatureMatrix row); any other size
/// throws std::invalid_argument.
void kfp_features_into(const Trace& trace, std::span<double> out);

/// Extract features for rows traces into one contiguous row-major matrix:
/// row r holds trace_at(r)'s features. Blocks of rows of about equal packet
/// count fill on `jobs` workers (0 = exp::default_jobs()); every jobs value
/// gives the same bytes.
FeatureMatrix kfp_features(std::size_t rows,
                           const std::function<const Trace&(std::size_t)>& trace_at,
                           std::size_t jobs);

/// The same for every trace of a dataset (row i <-> trace i).
FeatureMatrix kfp_features(const Dataset& dataset, std::size_t jobs = 1);

}  // namespace stob::wf
