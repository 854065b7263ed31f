#include "serve/request_line.h"

#include <cmath>
#include <limits>

#include "obs/json.h"
#include "serve/overload.h"

namespace layergcn::serve {
namespace {

// Converts a JSON number to T only when it is an integer T can hold: a
// double-to-integer cast outside the target's range is undefined.
template <typename T>
bool ToInteger(double x, T* out) {
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double low = std::numeric_limits<T>::is_signed ? -limit : 0.0;
  if (!(x >= low && x < limit) || x != std::trunc(x)) return false;
  *out = static_cast<T>(x);
  return true;
}

// Fills `req` from the line's fields; returns the error, empty when the
// line is a well-formed request.
std::string ParseInto(std::string_view line, RecommendRequest* req) {
  obs::JsonValue value;
  std::string error;
  if (!obs::ParseJson(line, &value, &error)) return "bad JSON: " + error;
  if (value.type != obs::JsonValue::Type::kObject) {
    return "request must be a JSON object";
  }
  const obs::JsonValue* user = value.Find("user");
  if (user == nullptr || !user->is_number()) return "missing numeric \"user\"";
  if (!ToInteger(user->number, &req->user_id)) {
    return "\"user\" must be a 32-bit integer";
  }
  if (const obs::JsonValue* k = value.Find("k"); k != nullptr) {
    if (!k->is_number() || !ToInteger(k->number, &req->k)) {
      return "\"k\" must be a 32-bit integer";
    }
  }
  if (const obs::JsonValue* b = value.Find("budget_us"); b != nullptr) {
    if (!b->is_number() || !ToInteger(b->number, &req->budget_us)) {
      return "\"budget_us\" must be an integer in [0, 2^64)";
    }
  }
  if (const obs::JsonValue* e = value.Find("exact"); e != nullptr) {
    if (e->type != obs::JsonValue::Type::kBool) {
      return "\"exact\" must be a boolean";
    }
    req->exact = e->boolean;
  }
  if (const obs::JsonValue* p = value.Find("priority"); p != nullptr) {
    if (!p->is_string() || !ParsePriority(p->string, &req->priority)) {
      return "\"priority\" must be interactive|batch|background";
    }
  }
  return "";
}

}  // namespace

ParsedRequest ParseRequestLine(std::string_view line,
                               const RecommendRequest& defaults) {
  ParsedRequest parsed;
  parsed.req = defaults;
  parsed.parse_error = ParseInto(line, &parsed.req);
  parsed.parse_ok = parsed.parse_error.empty();
  return parsed;
}

}  // namespace layergcn::serve
