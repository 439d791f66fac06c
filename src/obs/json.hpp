// Minimal JSON string escaping shared by every obs text artifact (run
// manifests, trace_event exports, the proc supervisor's crash lines).
//
// The escaper emits `\uXXXX` for all control and non-ASCII bytes, so
// output is provably 7-bit regardless of what bytes a config string, a span
// name or a captured stderr tail carries (pinned by a hostile-string golden
// test in test_obs).
#pragma once

#include <string>
#include <string_view>

namespace stob::obs {

/// Append `s` JSON-escaped (no surrounding quotes) to `out`.
void json_escape(std::string& out, std::string_view s);

std::string json_escape(std::string_view s);

}  // namespace stob::obs
