// The JSONL request protocol: one JSON object per line,
//
//   {"user": 17, "k": 10, "budget_us": 5000, "exact": false,
//    "priority": "batch"}
//
// "user" is required; every other field falls back to the caller's
// defaults. The numeric fields are JSON numbers (doubles), so each must
// be an integer that its RecommendRequest field can hold: anything else
// is a parse error naming the field, never a cast of an out-of-range
// double. Range rules that depend on the served snapshot (a known user,
// k within max_k) stay with RecommendService.

#ifndef LAYERGCN_SERVE_REQUEST_LINE_H_
#define LAYERGCN_SERVE_REQUEST_LINE_H_

#include <string>
#include <string_view>

#include "serve/recommend_service.h"

namespace layergcn::serve {

/// A request line parsed or rejected before it reaches the service. A
/// rejected line still gets a response, so the protocol stays one line
/// in, one line out even for garbage input.
struct ParsedRequest {
  RecommendRequest req;
  bool parse_ok = true;
  std::string parse_error;
};

/// Parses one request line; `defaults` supplies every field but the user.
ParsedRequest ParseRequestLine(std::string_view line,
                               const RecommendRequest& defaults);

}  // namespace layergcn::serve

#endif  // LAYERGCN_SERVE_REQUEST_LINE_H_
