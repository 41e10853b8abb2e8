#include "ro/alg/spms.h"

namespace ro::alg {

const char* sort_kind_name(SortKind k) {
  switch (k) {
    case SortKind::kMsort: return "msort";
    case SortKind::kSpms: return "spms";
  }
  return "?";
}

const char* spms_tuning_error(const SpmsTuning& t) {
  if (t.merge_base < 2) return "SpmsTuning: merge_base must be >= 2";
  if (t.merge2_min < 2) return "SpmsTuning: merge2_min must be >= 2";
  if (t.stride_mul < 1) return "SpmsTuning: stride_mul must be >= 1";
  if (t.seq_cap_div < 1) return "SpmsTuning: seq_cap_div must be >= 1";
  if (t.stride_per_seq < 1) return "SpmsTuning: stride_per_seq must be >= 1";
  if (t.multisearch_leaf < 2) {
    return "SpmsTuning: multisearch_leaf must be >= 2";
  }
  return nullptr;
}

}  // namespace ro::alg
